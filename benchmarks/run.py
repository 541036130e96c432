"""The jonescheck benchmark: four workloads, end-to-end metrics, and a traced
run that gives per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the package from
`src/` and writes scratch files under `.bench_work/`.  Every timed pass runs
in a fresh interpreter (`worker.py`, or the `jonescheck` CLI itself), so no
cache of one pass reaches the next.  Passes repeat until S seconds have gone.

With `--trace 0` the run reports the end-to-end metrics; with `--trace 1` it
makes one untraced and one traced pass of the same inputs, in process and
single-threaded, and reports the per-layer metrics.  Human-readable lines
come first; the last line of stdout is one JSON object.  See README.md.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import checks
import corpus
import cubic_planar
import stats
import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_REPS = 5  # set-ups per run: at least this many, and for at least SETUP_MIN_S
SETUP_MIN_S = 2.0
PROBES = 3  # time-to-first-result probes before each pass and after the last
SOLVE_PARTS = 3  # workers one solve-large pass is split over, probes between
CLI_STARTUP_REPS = 3
PASS_TIMEOUT_S = 120.0
VERIFY_JOBS = 2

# metric name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "graphs_per_s": ("1/s", "higher"),
    "graph_p50_ms": ("ms", "lower"),
    "graph_tail_ms": ("ms", "lower"),
    "first_record_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

# calls and self time for every traced function, and the layers' ratios
PER_LAYER = {
    f"{layer}.{fn}.{kind}": unit
    for layer, fns in tracing.TRACED.items()
    for fn in fns
    for kind, unit in (("calls", ("count", "lower")), ("self_s", ("s", "lower")))
}
PER_LAYER.update(
    {
        "canonical.accept_ratio": ("ratio", "higher"),
        "structure.find_first_cut.hit_ratio": ("ratio", "higher"),
        "solvers.cycles_enumerated": ("count", "lower"),
        "solvers.cycles_per_packed": ("ratio", "lower"),
        "solvers.cp_fallbacks": ("count", "lower"),
        "solvers.limit_hits": ("count", "lower"),
        "cli.startup_s": ("s", "lower"),
        "trace.overhead_frac": ("ratio", "lower"),
    }
)

# per-layer metrics that must read non-zero in a workload's traced run; a
# zero means a traced binding was missed, not that the layer did no work
REQUIRED_NONZERO = {
    "generate": (
        "canonical.canonical_form.calls",
        "canonical.canonical_form.self_s",
        "canonical.accept_ratio",
        "structure.is_planar.calls",
        "harness.generate_corpus.self_s",
    ),
    "verify-corpus": (
        "io.parse.calls",
        "io.serialize.calls",
        "harness.run_checks.self_s",
        "harness.graph_digest.self_s",
        "canonical.canonical_form.calls",
        "structure.small_cut_flags.calls",
        "structure.is_planar.calls",
        "structure.vertex_connectivity.self_s",
        "structure.planar_embedding.self_s",
        "structure.faces.self_s",
        "multigraph.delete_vertices.calls",
        "solvers.fvs_exact.calls",
        "solvers.cp_exact.calls",
        "solvers.enumerate_cycles.calls",
        "solvers.fp_fixed_embedding.calls",
        "solvers.cycles_per_packed",
    ),
    "solve-large": (
        "harness.graph_digest.self_s",
        "canonical.canonical_form.calls",
        "multigraph.delete_vertices.calls",
        "solvers.fvs_exact.self_s",
        "solvers.cp_exact.self_s",
        "solvers.enumerate_cycles.calls",
        "solvers.cycles_per_packed",
    ),
    "reduce": (
        "harness.reduce_pipeline.self_s",
        "structure.find_first_cut.calls",
        "structure.find_first_cut.hit_ratio",
        "multigraph.delete_edges.calls",
        "multigraph.delete_vertices.calls",
        "solvers.fvs_exact.calls",
        "solvers.cp_exact.calls",
    )
    + tuple(f"reduction.{fn}.calls" for fn in tracing.TRACED["reduction"]),
}


# -- inputs ------------------------------------------------------------------


def _gp(n: int, k: int) -> tuple[int, list[tuple[int, int]]]:
    """Generalized Petersen graph GP(n, k)."""
    outer = [(i, (i + 1) % n) for i in range(n)]
    spokes = [(i, n + i) for i in range(n)]
    inner = [(n + i, n + (i + k) % n) for i in range(n)]
    return 2 * n, outer + spokes + inner


def _wheel(n: int) -> tuple[int, list[tuple[int, int]]]:
    """Wheel W_n: hub n joined to every vertex of the cycle 0..n-1."""
    return n + 1, [(i, (i + 1) % n) for i in range(n)] + [(i, n) for i in range(n)]


# (name, graph, exact (fvs, cp)).  The graphs are built here, not with
# jonescheck.graphs, so the inputs do not depend on the code under test; the
# GP values were recorded with the exact solvers when this benchmark was made.
ANCHORS = (
    [("dodecahedron", _gp(10, 2), (6, 3))]
    + [(f"W{n}", _wheel(n), (2, 1)) for n in range(3, 11)]
    + [("GP(12,2)", _gp(12, 2), (7, 4)), ("GP(14,2)", _gp(14, 2), (8, 4))]
    + [(f"GP({n},1)", _gp(n, 1), fc) for n, fc in ((12, (7, 6)), (13, (7, 6)), (14, (8, 7)), (15, (8, 7)))]
)

# vertex counts of the random cubic planar pool.  With the anchors there are
# 99 graphs, the most that keep the tail at p75, which leaves 24 graphs above
# it: the six GP anchors, the four pool graphs with n >= 22 and the upper
# half of the 28 with n = 20 (and the dodecahedron, also n = 20).  So the
# tail is a middle value of that size, and p50 an upper-middle value of the
# 44 graphs with n = 18; neither sits on a boundary between sizes.
# The pool is drawn once, from POOL_SEED, and the run's seed only orders it,
# as it orders the corpus of verify-corpus and reduce.  Pools drawn from
# different seeds move the tail by about a tenth of its value on their own,
# which on top of a shared machine's drift between runs is too noisy to bound.
POOL_SEED = 1912
POOL_SIZES = (16,) * 8 + (18,) * 44 + (20,) * 28 + (22,) * 2 + (24,) * 2


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as f:
        json.dump(obj, f)


def _permuted_corpus(seed: int):
    graphs = corpus.load()
    random.Random(seed).shuffle(graphs)
    return graphs


def setup_generate(seed: int) -> dict:
    """A fresh interpreter that imports the package, which is what
    `jonescheck generate` pays before it starts, and the expected shapes."""
    subprocess.run([sys.executable, "-c", "import jonescheck"], env=_env(), cwd=ROOT, check=True)
    graphs = corpus.load()
    return {
        "shapes": {
            tag: [checks.shape_fingerprint(n, e) for t, n, e, _ in graphs if t == tag]
            for tag in corpus.CLASSES
        }
    }


def setup_verify(seed: int) -> dict:
    from jonescheck import io
    from jonescheck.multigraph import Multigraph

    graphs = _permuted_corpus(seed)
    path = WORK / "verify-input.s6"
    with open(path, "wb") as f:
        for _, n, edges, _ in graphs:
            f.write(io.serialize(Multigraph(n, tuple(edges)), "sparse6") + b"\n")
    return {"path": path, "expected": [fp for *_, fp in graphs]}


def setup_solve(seed: int) -> dict:
    items = [{"name": name, "n": n, "edges": e, "expect": fc} for name, (n, e), fc in ANCHORS]
    for i, (n, e) in enumerate(cubic_planar.pool(POOL_SEED, POOL_SIZES)):
        items.append({"name": f"pool{i}", "n": n, "edges": e, "expect": None})
    # the dodecahedron stays first; shuffling the rest spreads each size over
    # the pass, so a slow spell of the machine does not hit one size only
    rest = items[1:]
    random.Random(seed).shuffle(rest)
    items[1:] = rest
    path = WORK / "solve-input.json"
    _write_json(path, items)
    return {"path": path, "expected": [it["expect"] for it in items]}


def setup_reduce(seed: int) -> dict:
    graphs = _permuted_corpus(seed)
    path = WORK / "reduce-input.json"
    _write_json(path, [{"n": n, "edges": e} for _, n, e, _ in graphs])
    return {"path": path, "expected": [None] * len(graphs)}


# -- processes ---------------------------------------------------------------


def _env() -> dict:
    paths = [str(SRC), str(BENCH)]
    if os.environ.get("PYTHONPATH"):
        paths.append(os.environ["PYTHONPATH"])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def _run_process(cmd: list[str]) -> dict:
    """Run cmd to completion; stamp each stdout line as it arrives.

    Returns launch and end times, line stamps, the lines, the exit code and
    the peak resident memory of the process and the children it waited for.
    """
    t_launch = time.monotonic()
    proc = subprocess.Popen(cmd, env=_env(), cwd=ROOT, stdout=subprocess.PIPE)
    watchdog = threading.Timer(PASS_TIMEOUT_S, proc.kill)
    watchdog.start()
    stamps, lines = [], []
    try:
        for line in proc.stdout:
            stamps.append(time.monotonic())
            lines.append(line)
        t_end = time.monotonic()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        watchdog.cancel()
    return {
        "t_launch": t_launch,
        "t_end": t_end,
        "stamps": stamps,
        "lines": lines,
        "exit": proc.returncode,
        "rss_mb": usage.ru_maxrss / 1024,
    }


def _worker(
    mode: str, inp, traced: bool = False, first_only: bool = False, items: str | None = None
) -> tuple[dict, dict]:
    """One worker pass; the result carries the spans file when traced."""
    out = WORK / f"{mode}-result.json"
    spans = WORK / f"{mode}-spans.bin"
    cmd = [sys.executable, str(BENCH / "worker.py"), mode, str(inp), str(out)]
    cmd += ["--spans", str(spans)] if traced else []
    cmd += ["--first-only"] if first_only else []
    cmd += ["--items", items] if items else []
    proc = _run_process(cmd)
    if proc["exit"] != 0:
        raise RuntimeError(f"worker {mode} exited with {proc['exit']}")
    with open(out) as f:
        res = json.load(f)
    if traced:
        res["spans"] = spans
    return proc, res


def probe_first(mode: str | None, inputs: dict) -> list[float]:
    """Launch-to-first-result times of PROBES workers of `mode` that stop there.

    A pass yields one such time, and one short interval is at the mercy of
    the machine's moment-to-moment speed, so probes add samples spread over
    the run.  `verify-corpus` has none: its first record comes at the end.
    """
    if mode is None:
        return []
    times = []
    for _ in range(PROBES):
        proc, res = _worker(mode, inputs.get("path", "-"), first_only=True)
        if res["t_first"] is not None:
            times.append(res["t_first"] - proc["t_launch"])
    return times


# -- passes ------------------------------------------------------------------
# Each pass returns graphs, work_s (the timed phase), first_s (launch to the
# first result), latency_s (per graph, in input order), rss_mb, failed,
# probes (launch-to-first-result times of probes made during the pass), and
# the worker's result as `worker` (traced passes read their spans from it).


def _pass(proc: dict, res: dict, graphs: int, failed: int, probes: list[float] = ()) -> dict:
    return {
        "graphs": graphs,
        "work_s": res["work_s"],
        "first_s": res["t_first"] - proc["t_launch"] if res.get("t_first") else None,
        "latency_s": res.get("latency_s", []),
        "rss_mb": proc["rss_mb"],
        "failed": failed,
        "probes": list(probes),
        "worker": res,
    }


def pass_generate(inputs: dict, traced: bool = False) -> dict:
    proc, res = _worker("generate", "-", traced)
    want = inputs["shapes"]
    failed = sum(checks.unmatched(want[tag], res["shapes"].get(tag, [])) for tag in want)
    return _pass(proc, res, sum(map(len, want.values())), failed)


def _per_graph_pass(mode: str, inputs: dict, traced: bool, wrong, parts: int = 1) -> dict:
    """One pass over the graphs, in `parts` workers run one after another
    with probes between them; a traced pass has a single worker."""
    want = inputs["expected"]
    cuts = [len(want) * k // parts for k in range(parts + 1)]
    runs, probes = [], []
    for a, b in zip(cuts, cuts[1:]):
        if a:
            probes += probe_first(mode, inputs)
        runs.append(_worker(mode, inputs["path"], traced, items=f"{a}:{b}"))
    proc, res = runs[0]
    if parts > 1:
        assert not traced, "a traced pass keeps the spans of one worker only"
        proc = dict(proc, rss_mb=max(p["rss_mb"] for p, _ in runs))
        res = dict(
            res,
            work_s=sum(r["work_s"] for _, r in runs),
            latency_s=[t for _, r in runs for t in r["latency_s"]],
            results=[x for _, r in runs for x in r["results"]],
        )
    got = res["results"]
    failed = len(want) - len(got) + sum(not r["ok"] or wrong(w, r) for w, r in zip(want, got))
    return _pass(proc, res, len(want), failed, probes)


def pass_solve(inputs: dict, traced: bool = False, parts: int = 1) -> dict:
    return _per_graph_pass(
        "solve",
        inputs,
        traced,
        lambda w, r: w is not None and [r["fvs"], r["cp"]] != list(w),
        parts,
    )


def pass_reduce(inputs: dict, traced: bool = False) -> dict:
    return _per_graph_pass("reduce", inputs, traced, lambda w, r: False)


def _check_verify_output(lines: list[bytes], exit_code: int, expected: list[str]) -> int:
    """Failed graphs of one `verify` run: every graph when the run exits
    non-zero or its summary is wrong, else every record whose fingerprint
    does not match one expected."""
    records = [json.loads(line) for line in lines if line.strip()]
    summary = records.pop() if records and records[-1].get("summary") else {}
    good_summary = summary == {
        "summary": True,
        "graphs": len(expected),
        "assertion_failures": 0,
        "conjecture_violations": 0,
        "skipped": 0,
    }
    if exit_code != 0 or not good_summary:
        return len(expected)
    return checks.unmatched(expected, [checks.record_fingerprint(r) for r in records])


def pass_verify_cli(inputs: dict) -> dict:
    cmd = [sys.executable, "-m", "jonescheck.cli", "verify"]
    cmd += ["--input", str(inputs["path"]), "--jobs", str(VERIFY_JOBS)]
    proc = _run_process(cmd)
    latency = [
        t - proc["t_launch"]
        for t, line in zip(proc["stamps"], proc["lines"])
        if b'"summary"' not in line
    ]
    res = {"work_s": proc["t_end"] - proc["t_launch"], "latency_s": latency}
    if latency:
        res["t_first"] = proc["t_launch"] + latency[0]
    failed = _check_verify_output(proc["lines"], proc["exit"], inputs["expected"])
    return _pass(proc, res, len(inputs["expected"]), failed)


def pass_verify_inproc(inputs: dict, traced: bool = False) -> dict:
    proc, res = _worker("verify", inputs["path"], traced)
    lines = Path(res["records"]).read_bytes().splitlines() if res["exit"] == 0 else []
    failed = _check_verify_output(lines, res["exit"], inputs["expected"])
    return _pass(proc, res, len(inputs["expected"]), failed)


# -- metrics -----------------------------------------------------------------


def _median_latency(passes: list[dict]) -> list[float]:
    """Per-graph latency, the median over passes, for graphs every pass timed."""
    k = min(len(p["latency_s"]) for p in passes)
    return [statistics.median(p["latency_s"][i] for p in passes) for i in range(k)]


def end_to_end(setup_s: list[float], firsts: list[float], passes: list[dict]) -> tuple[dict, list[str]]:
    lat = sorted(_median_latency(passes))
    if not lat:
        raise RuntimeError("no graph completed")
    tail_p = stats.tail_percentile(len(lat))
    firsts = firsts + [p["first_s"] for p in passes if p["first_s"] is not None]
    firsts += [t for p in passes for t in p["probes"]]
    values = {
        "setup_s": statistics.median(setup_s),
        "graphs_per_s": sum(p["graphs"] for p in passes) / sum(p["work_s"] for p in passes),
        "graph_p50_ms": 1000 * stats.percentile(lat, 50),
        "graph_tail_ms": 1000 * stats.percentile(lat, tail_p),
        "first_record_s": statistics.median(firsts),
        "peak_rss_mb": max(p["rss_mb"] for p in passes),
    }
    notes = {
        "setup_s": f"median of {len(setup_s)} set-ups",
        "graphs_per_s": f"{sum(p['graphs'] for p in passes)} graphs over {len(passes)} passes",
        "graph_p50_ms": f"p50 over {len(lat)} graphs",
        "graph_tail_ms": f"p{tail_p:g} over {len(lat)} graphs",
        "first_record_s": f"median of {len(firsts)} launches",
        "peak_rss_mb": "largest process of any pass",
    }
    lines = [f"{k:<16} {v:>14.6f} {END_TO_END[k][0]:<4} {notes[k]}" for k, v in values.items()]
    return values, lines


def per_layer(untraced: dict, traced: dict, setup: tracing.Tracer, cli_startup_s: float) -> dict:
    """Per-layer metrics of a traced pass plus one traced set-up."""
    res = traced["worker"]
    self_s = Counter(tracing.self_times(*tracing.load_spans(res["spans"])))
    self_s.update(tracing.self_times(setup.names, setup.spans))
    calls = Counter(res["calls"]) + setup.calls
    counters = Counter(res["counters"]) + setup.counters
    values = {}
    for name in PER_LAYER:
        layer_fn, _, kind = name.rpartition(".")
        if kind == "calls":
            values[name] = calls.get(layer_fn, 0)
        elif kind == "self_s":
            values[name] = self_s.get(layer_fn, 0.0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    values.update(
        {
            "canonical.accept_ratio": ratio(
                counters.get("harness.graphs_generated", 0), calls.get("canonical.canonical_form", 0)
            ),
            "structure.find_first_cut.hit_ratio": ratio(
                counters.get("structure.find_first_cut.hits", 0), calls.get("structure.find_first_cut", 0)
            ),
            "solvers.cycles_enumerated": counters.get("solvers.cycles_enumerated", 0),
            "solvers.cycles_per_packed": ratio(
                counters.get("cp.cycles_enumerated", 0), counters.get("cp.cycles_packed", 0)
            ),
            "solvers.cp_fallbacks": counters.get("solvers.cp_fallbacks", 0),
            "solvers.limit_hits": counters.get("solvers.limit_hits", 0),
            "cli.startup_s": cli_startup_s,
            "trace.overhead_frac": traced["work_s"] / untraced["work_s"] - 1,
        }
    )
    return values


def cli_startup() -> float:
    """Median wall time of `jonescheck verify` on a one-graph input (K4)."""
    path = WORK / "one-graph.s6"
    path.write_bytes(b":CcKI\n")  # sparse6 of K4
    times = []
    for _ in range(CLI_STARTUP_REPS):
        proc = _run_process([sys.executable, "-m", "jonescheck.cli", "verify", "--input", str(path)])
        if proc["exit"] != 0 or len(proc["lines"]) != 2:
            raise RuntimeError("jonescheck verify failed on a one-graph input")
        times.append(proc["t_end"] - proc["t_launch"])
    return statistics.median(times)


# -- command line ------------------------------------------------------------

SETUPS = {
    "generate": setup_generate,
    "verify-corpus": setup_verify,
    "solve-large": setup_solve,
    "reduce": setup_reduce,
}
E2E_PASSES = {
    "generate": pass_generate,
    "verify-corpus": pass_verify_cli,
    "solve-large": functools.partial(pass_solve, parts=SOLVE_PARTS),
    "reduce": pass_reduce,
}
PROBE_MODES = {"generate": "generate", "solve-large": "solve", "reduce": "reduce"}
TRACE_PASSES = {
    "generate": pass_generate,
    "verify-corpus": pass_verify_inproc,
    "solve-large": pass_solve,
    "reduce": pass_reduce,
}


def _environment() -> str:
    import networkx

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return (
        f"git={sha} nproc={os.cpu_count()} python={platform.python_version()} "
        f"networkx={networkx.__version__}"
    )


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(SETUPS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "jonescheck" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import jonescheck

    if Path(jonescheck.__file__).resolve().parent != (SRC / "jonescheck").resolve():
        print(f"imported jonescheck from {jonescheck.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    setup_s = []
    t_setup = time.perf_counter()
    while len(setup_s) < SETUP_REPS or time.perf_counter() - t_setup < SETUP_MIN_S:
        t = time.perf_counter()
        inputs = SETUPS[args.workload](args.seed)
        setup_s.append(time.perf_counter() - t)

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# environment {_environment()}")
    if args.trace:
        setup = tracing.Tracer()
        restore = tracing.install(setup)
        try:
            SETUPS[args.workload](args.seed)
        finally:
            tracing.uninstall(restore)
        run = TRACE_PASSES[args.workload]
        passes = [run(inputs), run(inputs, traced=True)]
        values = per_layer(passes[0], passes[1], setup, cli_startup())
        units = {k: u for k, (u, _) in PER_LAYER.items()}
        for k, v in values.items():
            print(f"{k:<44} {v:>16.6f} {units[k]}")
        missing = [k for k in REQUIRED_NONZERO[args.workload] + ("cli.startup_s",) if not values[k]]
        if missing:
            print(f"traced run read zero for {', '.join(missing)}", file=sys.stderr)
    else:
        run = E2E_PASSES[args.workload]
        passes, firsts = [], []
        t0 = time.monotonic()
        while not passes or time.monotonic() - t0 < args.seconds:
            firsts += probe_first(PROBE_MODES.get(args.workload), inputs)
            passes.append(run(inputs))
        firsts += probe_first(PROBE_MODES.get(args.workload), inputs)
        values, lines = end_to_end(setup_s, firsts, passes)
        units = {k: u for k, (u, _) in END_TO_END.items()}
        missing = []
        print("\n".join(lines))

    attempted = sum(p["graphs"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    print(f"{'failed_frac':<16} {failed / attempted:>14.6f}      {failed} of {attempted} graph operations")
    print(
        json.dumps(
            {
                "correct": failed == 0 and not missing,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
            }
        )
    )
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
