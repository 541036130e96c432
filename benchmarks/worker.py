"""One timed pass of a workload in a fresh interpreter.

    python3 benchmarks/worker.py MODE INPUT OUTPUT [--spans PATH] [--first-only]
                                 [--items A:B]

MODE is generate, solve, reduce or verify.  The pass reads its inputs from
INPUT, times the calls into the package, checks what they return outside the
timed regions, and writes a JSON result to OUTPUT.  With --spans it traces
the pass and writes the spans to PATH.  With --first-only it stops after the
first result, which is all a probe of the time to first result needs.  With
--items A:B a solve or reduce pass takes only input graphs A to B-1.  All
times are `time.monotonic()` readings, which share one clock with the
parent process.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
import time

import jonescheck.cli
from jonescheck import harness, solvers
from jonescheck.multigraph import Multigraph

import checks
import tracing
from corpus import CLASSES

SOLVE_LIMIT_S = 60.0  # the CLI's default per-call budget


def _corpus_stream():
    for tag, (cls, max_n) in CLASSES.items():
        for g in harness.generate_corpus(harness.CorpusSpec(cls, max_n)):
            yield tag, g


def _generate(limit: int | None) -> dict:
    emitted: dict[str, list[Multigraph]] = {tag: [] for tag in CLASSES}
    stamps = []
    error = None
    t0 = time.monotonic()
    try:
        for tag, g in itertools.islice(_corpus_stream(), limit):
            stamps.append(time.monotonic())
            emitted[tag].append(g)
    except Exception as exc:  # the graphs never yielded count as failed
        error = type(exc).__name__
    t_end = time.monotonic()
    return {
        "t_first": stamps[0] if stamps else None,
        "error": error,
        "work_s": t_end - t0,
        "latency_s": [t - t0 for t in stamps],
        "shapes": {
            tag: [checks.shape_fingerprint(g.n, g.edges) for g in gs]
            for tag, gs in emitted.items()
        },
    }


def _solve_one(g: Multigraph) -> tuple:
    harness.graph_digest(g)
    fvs = solvers.fvs_exact(g, time_limit_s=SOLVE_LIMIT_S)
    cp = solvers.cp_exact(g, time_limit_s=SOLVE_LIMIT_S)
    return fvs, cp


def _check_solve(g: Multigraph, out: tuple) -> dict:
    fvs, cp = out
    ok = (
        fvs.size == len(fvs.vertices)
        and checks.is_forest_after_removal(g.n, g.edges, fvs.vertices)
        and cp.size == len(cp.cycles)
        and checks.packing_ok(g.edges, cp.cycles)
        and cp.size <= fvs.size
    )
    return {"ok": ok, "fvs": fvs.size, "cp": cp.size}


def _reduce_one(g: Multigraph):
    return harness.reduce_pipeline(g, with_certificates=True)


def _check_reduce(g: Multigraph, res) -> dict:
    ok = all(checks.certificate_ok(c.to_dict()) for c in res.certificates) and all(
        leaf.label in checks.LEAF_LABELS for leaf in res.leaves
    )
    return {"ok": ok}


def _per_graph(inp: str, part: slice, run, check) -> dict:
    """Time `run` on each input graph alone; check each output untimed."""
    with open(inp) as f:
        items = json.load(f)
    graphs = [Multigraph(it["n"], tuple(map(tuple, it["edges"]))) for it in items[part]]
    latency, results = [], []
    t_first = None
    for g in graphs:
        t = time.monotonic()
        try:
            out = run(g)
        except Exception as exc:  # one bad graph is a failure, not a crash
            out = exc
        t_end = time.monotonic()
        latency.append(t_end - t)
        t_first = t_first or t_end
        if isinstance(out, Exception):
            results.append({"ok": False, "error": type(out).__name__})
        else:
            results.append(check(g, out))
    return {"t_first": t_first, "work_s": sum(latency), "latency_s": latency, "results": results}


def _verify(inp: str, out_path: str) -> dict:
    records = out_path + ".records"
    t0 = time.monotonic()
    try:
        code = jonescheck.cli.main(["verify", "--input", inp, "--jobs", "1", "--output", records])
    except Exception:  # like a CLI that dies: the whole pass fails
        code = 1
    return {"work_s": time.monotonic() - t0, "exit": code, "records": records}


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("generate", "solve", "reduce", "verify"))
    ap.add_argument("input")
    ap.add_argument("output")
    ap.add_argument("--spans")
    ap.add_argument("--first-only", action="store_true")
    ap.add_argument("--items", default=":")
    args = ap.parse_args(argv)
    limit = 1 if args.first_only else None
    start, _, stop = args.items.partition(":")
    part = slice(0, 1) if args.first_only else slice(int(start or 0), int(stop) if stop else None)
    tracer = tracing.Tracer() if args.spans else None
    if tracer:
        tracing.install(tracer)
    if args.mode == "generate":
        result = _generate(limit)
    elif args.mode == "solve":
        result = _per_graph(args.input, part, _solve_one, _check_solve)
    elif args.mode == "reduce":
        result = _per_graph(args.input, part, _reduce_one, _check_reduce)
    else:
        result = _verify(args.input, args.output)
    if tracer:
        tracer.dump(args.spans)
        result["calls"] = dict(tracer.calls)
        result["counters"] = dict(tracer.counters)
    with open(args.output, "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
