"""Command-line interface: solve | cuts | reduce | verify | generate.

`solve`, `cuts`, `reduce` and `verify` write one JSON object per graph, in
input order and flushed as each finishes, followed by a `summary` line.  A
graph whose work raises gets a `status: "error"` record and the batch goes
on.  Exit status is 0 unless a graph errors or an assertion-level check fails
(a violated theorem, a certificate that does not hold, or an internal witness
verification error); conjecture-level violations are reported in-band with
status "CONJECTURE-VIOLATION" but do not fail the run.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import traceback

from . import harness, io, solvers, structure
from .multigraph import Multigraph


class _InputError(Exception):
    """The input could not be read or parsed, or the corpus asked for is out
    of range; no graph has been solved yet."""


def _read_graphs(args) -> list[Multigraph]:
    if args.stdin:
        try:
            data = sys.stdin.read()
        except UnicodeDecodeError as exc:  # not text in a strict stdin encoding
            raise _InputError(f"stdin: {exc}") from exc
    else:
        try:
            with open(args.input, "rb") as f:
                data = f.read()
        except OSError as exc:
            raise _InputError(exc) from exc
    if isinstance(data, str):
        data = data.encode("utf-8", "surrogateescape")
    if args.format == "edges":  # the whole input is one graph
        chunks = [("input", data)]
    else:
        lines = enumerate(data.splitlines(), 1)
        chunks = [(f"line {i}", line.strip()) for i, line in lines if line.strip()]
    graphs = []
    for where, chunk in chunks:
        try:
            graphs.append(io.parse(chunk, args.format))
        except ValueError as exc:  # FormatError, or bytes that are not text
            raise _InputError(f"{where}: {exc}") from exc
    return graphs


def _output(path: str | None):
    """The report stream: stdout, or the file at `path`, closed on exit."""
    return contextlib.nullcontext(sys.stdout) if path is None else open(path, "w")


# -- per-graph work ------------------------------------------------------------
# Each takes (index, graph, time limit) and returns the graph's record, the
# counts it adds to the summary, and whether it fails the run.


def _solve_one(idx, g, limit):
    rec: dict = {"index": idx, "n": g.n, "m": g.m, "graph_id": harness.graph_digest(g)}
    try:
        fvs = solvers.fvs_exact(g, time_limit_s=limit)
        cp = solvers.cp_exact(g, time_limit_s=limit)
    except solvers.SolverLimit:
        rec["status"] = "skipped"
        return rec, {}, False
    rec.update(
        fvs=solvers.witness_to_dict(fvs),
        cp=solvers.witness_to_dict(cp),
        jones2=fvs.size <= 2 * cp.size,
        status="ok",
    )
    violated = not rec["jones2"]
    # a jones2 violation on a subcubic planar input would contradict a theorem
    theorem = violated and g.is_subcubic() and structure.is_planar(g)
    return rec, {"violations": violated}, theorem


def _cuts_one(idx, g, limit):
    # every cut with its kind from one scan; no side is listed
    _, found, kind, _ = structure._cut_scan(g)
    cuts = []
    for edges in found:
        trivial, cyclic = kind(edges)
        cuts.append({"edges": list(edges), "trivial": trivial, "cyclic": cyclic})
    ess4, cyc4 = structure.small_cut_flags(g)
    rec = {
        "index": idx,
        "graph_id": harness.graph_digest(g),
        "cuts": cuts,
        "essentially_4ec": ess4,
        "cyclically_4ec": cyc4,
    }
    return rec, {}, False


def _reduce_one(certificates, idx, g, limit):
    rec: dict = {"index": idx, "graph_id": harness.graph_digest(g)}
    try:
        res = harness.reduce_pipeline(g, with_certificates=certificates, time_limit_s=limit)
    except solvers.SolverLimit:
        rec["status"] = "skipped"
        return rec, {"skipped": 1}, False
    certs = [c.to_dict() for c in res.certificates]
    bad = any(not c["holds"] for c in certs)
    rec.update(
        status="ok",
        decompositions=[d.kind for d in res.decompositions],
        leaves=[{"n": l.graph.n, "m": l.graph.m, "label": l.label} for l in res.leaves],
        certificates=certs,
    )
    return rec, {"certificate_failures": bad}, bad


def _verify_one(idx, g, limit):
    res = harness.run_checks(g, limit)
    rec = {**res.to_dict(), "index": idx}
    violations = res.conjecture_violations()
    if violations:
        rec["status"] = "CONJECTURE-VIOLATION"
    failures = res.assertion_failures()
    counts = {
        "assertion_failures": bool(failures),
        "conjecture_violations": bool(violations),
        "skipped": bool(res.skipped),
    }
    return rec, counts, bool(failures)


# -- the batch driver ----------------------------------------------------------


def _run_one(fn, task):
    """`fn` on one task, with its record as a JSON line; an exception becomes
    an error record, so one bad graph cannot lose the batch."""
    idx, g, limit = task
    try:
        rec, counts, failed = fn(idx, g, limit)
    except Exception as exc:
        print(f"jonescheck: graph {idx}:", file=sys.stderr)
        traceback.print_exc()
        rec = {"index": idx, "status": "error", "error": f"{type(exc).__name__}: {exc}"}
        counts, failed = {"errors": 1}, True
    return json.dumps(rec, sort_keys=True), counts, failed


def _map(jobs, fn, tasks):
    """`fn` over the iterable `tasks`, lazily and in order: in process with
    one job, else on a pool of `jobs` worker processes."""
    if jobs <= 1:
        yield from map(fn, tasks)
        return
    import multiprocessing  # about 12 ms at start-up, paid only with a pool

    with multiprocessing.Pool(jobs) as pool:
        yield from pool.imap(fn, tasks, chunksize=16)


def _batch(args, fn, graphs, totals: tuple[str, ...] = ()) -> int:
    """Run `fn` on every graph and write each record, flushed, as it
    arrives in input order; then write the summary: the graph count, the
    sum of each count in `totals`, and `errors` when there were any.
    Returns the exit status: 1 if any graph failed the run, else 0."""
    limit = args.time_limit_ms / 1000.0 if args.time_limit_ms else None
    tasks = ((i, g, limit) for i, g in enumerate(graphs))
    summary = {"summary": True, "graphs": 0, **dict.fromkeys(totals, 0)}
    failed = False
    with _output(args.output) as out:
        for line, counts, bad in _map(args.jobs, functools.partial(_run_one, fn), tasks):
            out.write(line + "\n")
            out.flush()
            summary["graphs"] += 1
            for key, n in counts.items():
                summary[key] = summary.get(key, 0) + n
            failed = failed or bad
        out.write(json.dumps(summary, sort_keys=True) + "\n")
    return 1 if failed else 0


def cmd_solve(args) -> int:
    return _batch(args, _solve_one, _read_graphs(args), ("violations",))


def cmd_cuts(args) -> int:
    return _batch(args, _cuts_one, _read_graphs(args))


def cmd_reduce(args) -> int:
    fn = functools.partial(_reduce_one, args.certificates)
    return _batch(args, fn, _read_graphs(args), ("skipped", "certificate_failures"))


def _corpus_spec(args) -> harness.CorpusSpec:
    try:
        return harness.CorpusSpec(args.cls, args.max_n)
    except ValueError as exc:
        raise _InputError(exc) from exc


def cmd_verify(args) -> int:
    if args.cls:
        graphs = harness.generate_corpus(_corpus_spec(args))
    else:
        graphs = _read_graphs(args)
    totals = ("assertion_failures", "conjecture_violations", "skipped")
    return _batch(args, _verify_one, graphs, totals)


def cmd_generate(args) -> int:
    spec = _corpus_spec(args)
    with _output(args.out) as out:
        for g in harness.generate_corpus(spec):
            out.write(io.serialize(g, "s6").decode() + "\n")
    return 0


def _add_input_opts(p: argparse.ArgumentParser):
    """Add --input and --stdin, exactly one of which is required, and --format.

    Returns the group of input sources, so that `verify` can add --class.
    """
    sources = p.add_mutually_exclusive_group(required=True)
    sources.add_argument("--input", help="input file of graphs, one per line")
    sources.add_argument("--stdin", action="store_true", help="read graphs from stdin")
    p.add_argument("--format", choices=io.FORMATS, default="s6", help="input format")
    return sources


def _int_at_least(low: int, note: str = ""):
    """An argparse type: an int no smaller than `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}{note}, got {value}")
        return value

    return parse


def _add_common_opts(p: argparse.ArgumentParser) -> None:
    p.add_argument("--output", help="write report here instead of stdout")
    p.add_argument("--jobs", type=_int_at_least(1), default=1, help="worker processes")
    p.add_argument(
        "--time-limit-ms",
        type=_int_at_least(0, " (0 means no limit)"),
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
    p.set_defaults(fn=cmd_generate)

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
