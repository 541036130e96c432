"""Command-line interface: solve | cuts | reduce | verify | generate.

Emits one JSON object per line per graph, followed by a `summary` line.
Exit status is 0 unless an assertion-level check fails (a violated theorem or
an internal witness verification error); conjecture-level violations are
reported in-band with status "CONJECTURE-VIOLATION" but do not fail the run.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import sys

from . import harness, io, reduction, solvers, structure
from .multigraph import Multigraph

FORMAT_ALIASES = {"g6": "graph6", "s6": "sparse6", "edges": "edge-list"}


class _InputError(Exception):
    """The input could not be read or parsed, or the corpus asked for is out
    of range; no graph has been solved yet."""


def _read_graphs(args) -> list[Multigraph]:
    if args.stdin:
        data = sys.stdin.read()
    else:
        try:
            with open(args.input, "rb") as f:
                data = f.read()
        except OSError as exc:
            raise _InputError(exc) from exc
    fmt = FORMAT_ALIASES[args.format]
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogateescape")
    if fmt == "edge-list":  # the whole input is one graph
        chunks = [("input", data)]
    else:
        lines = enumerate(data.splitlines(), 1)
        chunks = [(f"line {i}", line.strip()) for i, line in lines if line.strip()]
    graphs = []
    for where, chunk in chunks:
        try:
            graphs.append(io.parse(chunk, fmt))
        except ValueError as exc:  # FormatError, or bytes that are not text
            raise _InputError(f"{where}: {exc}") from exc
    return graphs


def _emit(args, lines) -> None:
    out = sys.stdout if args.output is None else open(args.output, "w")
    try:
        for line in lines:
            out.write(line + "\n")
    finally:
        if out is not sys.stdout:
            out.close()


def _time_limit_s(args) -> float | None:
    return args.time_limit_ms / 1000.0 if args.time_limit_ms else None


def _solve_one(task) -> dict:
    idx, g, limit = task
    rec: dict = {"index": idx, "n": g.n, "m": g.m, "graph_id": harness.graph_digest(g)}
    try:
        fvs = solvers.fvs_exact(g, time_limit_s=limit)
        cp = solvers.cp_exact(g, time_limit_s=limit)
        rec["fvs"] = solvers.witness_to_dict(fvs)
        rec["cp"] = solvers.witness_to_dict(cp)
        rec["jones2"] = fvs.size <= 2 * cp.size
        rec["status"] = "ok"
    except solvers.SolverLimit:
        rec["status"] = "skipped"
    return rec


def cmd_solve(args) -> int:
    graphs = _read_graphs(args)
    tasks = [(i, g, _time_limit_s(args)) for i, g in enumerate(graphs)]
    records = list(_map(args.jobs, _solve_one, tasks))
    failures = sum(not r.get("jones2", True) for r in records)
    lines = [json.dumps(r, sort_keys=True) for r in records]
    lines.append(
        json.dumps(
            {"summary": True, "graphs": len(records), "violations": failures},
            sort_keys=True,
        )
    )
    _emit(args, lines)
    # a jones2 violation on a subcubic planar input would contradict a theorem
    bad = any(
        not r.get("jones2", True)
        for r, g in zip(records, graphs)
        if g.is_subcubic() and structure.is_planar(g)
    )
    return 1 if bad else 0


def cmd_cuts(args) -> int:
    lines = []
    for idx, g in enumerate(_read_graphs(args)):
        found = list(structure._small_cuts(g))
        cuts = [
            {"edges": list(c.edges), "trivial": c.trivial, "cyclic": c.cyclic}
            for c in found
        ]
        ess4, cyc4 = structure._cut_flags(g, found)
        lines.append(
            json.dumps(
                {
                    "index": idx,
                    "graph_id": harness.graph_digest(g),
                    "cuts": cuts,
                    "essentially_4ec": ess4,
                    "cyclically_4ec": cyc4,
                },
                sort_keys=True,
            )
        )
    _emit(args, lines)
    return 0


def cmd_reduce(args) -> int:
    lines = []
    bad = False
    for idx, g in enumerate(_read_graphs(args)):
        rec: dict = {"index": idx, "graph_id": harness.graph_digest(g)}
        try:
            res = harness.reduce_pipeline(
                g, with_certificates=args.certificates, time_limit_s=_time_limit_s(args)
            )
        except solvers.SolverLimit:
            rec["status"] = "skipped"
        else:
            certs = [c.to_dict() for c in res.certificates]
            bad = bad or any(not c["holds"] for c in certs)
            rec.update(
                status="ok",
                decompositions=[d.kind for d in res.decompositions],
                leaves=[
                    {"n": l.graph.n, "m": l.graph.m, "label": l.label}
                    for l in res.leaves
                ],
                certificates=certs,
            )
        lines.append(json.dumps(rec, sort_keys=True))
    _emit(args, lines)
    return 1 if bad else 0


def _verify_one(task):
    g, limit = task
    return harness.run_checks(g, limit)


def _map(jobs, fn, tasks):
    if jobs <= 1:
        return [fn(t) for t in tasks]
    with multiprocessing.Pool(jobs) as pool:
        return list(pool.imap(fn, tasks, chunksize=16))


def _corpus_spec(args) -> harness.CorpusSpec:
    try:
        return harness.CorpusSpec(args.cls, args.max_n)
    except ValueError as exc:
        raise _InputError(exc) from exc


def cmd_verify(args) -> int:
    if args.cls:
        graphs = list(harness.generate_corpus(_corpus_spec(args)))
    else:
        graphs = _read_graphs(args)
    tasks = [(g, _time_limit_s(args)) for g in graphs]
    records = _map(args.jobs, _verify_one, tasks)
    lines = []
    n_assert = n_conj = n_skip = 0
    for rec in records:
        line = rec.to_json()
        if rec.assertion_failures():
            n_assert += 1
        if rec.conjecture_violations():
            n_conj += 1
            line = json.dumps(
                {**json.loads(line), "status": "CONJECTURE-VIOLATION"}, sort_keys=True
            )
        if rec.skipped:
            n_skip += 1
        lines.append(line)
    lines.append(
        json.dumps(
            {
                "summary": True,
                "graphs": len(records),
                "assertion_failures": n_assert,
                "conjecture_violations": n_conj,
                "skipped": n_skip,
            },
            sort_keys=True,
        )
    )
    _emit(args, lines)
    return 1 if n_assert else 0


def cmd_generate(args) -> int:
    lines = []
    for g in harness.generate_corpus(_corpus_spec(args)):
        lines.append(io.serialize(g, "sparse6").decode())
    if args.out:
        with open(args.out, "w") as f:
            f.write("\n".join(lines) + ("\n" if lines else ""))
    else:
        _emit(args, lines)
    return 0


def _add_input_opts(p: argparse.ArgumentParser):
    """Add --input and --stdin, exactly one of which is required, and --format.

    Returns the group of input sources, so that `verify` can add --class.
    """
    sources = p.add_mutually_exclusive_group(required=True)
    sources.add_argument("--input", help="input file of graphs, one per line")
    sources.add_argument("--stdin", action="store_true", help="read graphs from stdin")
    p.add_argument(
        "--format", choices=sorted(FORMAT_ALIASES), default="s6", help="input format"
    )
    return sources


def _milliseconds(text: str) -> int:
    try:
        ms = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if ms < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0 (0 means no limit), got {ms}")
    return ms


def _add_common_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write report here instead of stdout")
    p.add_argument("--jobs", type=int, default=1, help="worker processes")
    p.add_argument(
        "--time-limit-ms",
        type=_milliseconds,
        default=60000,
        help="per-graph solver budget; graphs over budget are marked skipped",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="jonescheck",
        description="Verification workbench for cycle packings and feedback "
        "vertex sets in subcubic planar multigraphs.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="exact fvs/cp with verified witnesses")
    _add_input_opts(p)
    _add_common_opts(p)
    p.set_defaults(fn=cmd_solve)

    p = sub.add_parser("cuts", help="enumerate edge cuts of size <= 3 and flags")
    _add_input_opts(p)
    _add_common_opts(p)
    p.set_defaults(fn=cmd_cuts)

    p = sub.add_parser("reduce", help="run the cut decomposition pipeline")
    _add_input_opts(p)
    _add_common_opts(p)
    p.add_argument(
        "--certificates", action="store_true", help="check per-step certificates"
    )
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("verify", help="batch-check bounds over a corpus or input")
    sources = _add_input_opts(p)
    _add_common_opts(p)
    sources.add_argument("--class", dest="cls", choices=harness.CORPUS_CLASSES)
    p.add_argument("--max-n", type=int, default=8)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("generate", help="enumerate a corpus class as sparse6 lines")
    p.add_argument("--class", dest="cls", required=True, choices=harness.CORPUS_CLASSES)
    p.add_argument("--max-n", type=int, required=True)
    p.add_argument("--out", help="output file (default stdout)")
    p.add_argument("--output", help=argparse.SUPPRESS)
    p.set_defaults(fn=cmd_generate, output=None)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except _InputError as exc:
        print(f"jonescheck {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
