import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

import fvs_oracle
import jonescheck
from jonescheck import cli, graphs, harness, io, solvers
from jonescheck.multigraph import Multigraph
from random_graphs import bridged, random_cubic_planar


def _run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr().out
    lines = [json.loads(l) for l in out.strip().splitlines() if l.strip()]
    return code, lines


@pytest.fixture()
def corpus_file(tmp_path):
    p = tmp_path / "graphs.s6"
    lines = [
        io.serialize(g, "s6").decode()
        for g in (graphs.complete(4), graphs.prism(), graphs.theta())
    ]
    p.write_text("\n".join(lines) + "\n")
    return str(p)


def test_solve(capsys, corpus_file):
    code, lines = _run(capsys, ["solve", "--input", corpus_file])
    assert code == 0
    summary = lines[-1]
    assert summary["summary"] and summary["graphs"] == 3
    k4 = lines[0]
    assert k4["fvs"]["size"] == 2 and k4["cp"]["size"] == 1
    assert k4["jones2"]


@pytest.fixture(scope="module")
def sweep_file(tmp_path_factory):
    """48 graphs: three chunks of the process pool's imap, so both workers
    get some."""
    p = tmp_path_factory.mktemp("sweep") / "graphs.s6"
    spec = harness.CorpusSpec("subcubic-planar-simple", 6)
    p.write_bytes(b"".join(io.serialize(g, "s6") + b"\n" for g in harness.generate_corpus(spec)))
    return str(p)


@pytest.mark.parametrize(
    "argv",
    [["solve"], ["cuts"], ["reduce", "--certificates"], ["verify"]],
    ids=["solve", "cuts", "reduce", "verify"],
)
def test_jobs_same_records(capsys, sweep_file, argv):
    code1, lines1 = _run(capsys, [*argv, "--input", sweep_file])
    code2, lines2 = _run(capsys, [*argv, "--input", sweep_file, "--jobs", "2"])
    assert code1 == code2 == 0
    assert lines1[-1] == lines2[-1] == {**lines1[-1], "summary": True, "graphs": 48}
    for rec in lines1 + lines2:
        rec.pop("wall_time", None)  # verify's timings
    assert [r["index"] for r in lines2[:-1]] == list(range(48))
    assert lines1 == lines2


def test_solve_jobs_same_fvs_witness_cubic(capsys, tmp_path):
    # 32 random cubic planar graphs (n = 24), some of which need the fvs
    # multi-start's restarts: each witness is the same whichever worker
    # solves it and whatever that worker solved before
    gs = [random_cubic_planar(24, random.Random(seed)) for seed in range(32)]
    assert sum(fvs_oracle.multi_start_runs(g) for g in gs[16:]) >= 4
    p = _write(tmp_path, gs)
    code1, lines1 = _run(capsys, ["solve", "--input", p])
    code2, lines2 = _run(capsys, ["solve", "--input", p, "--jobs", "2"])
    assert code1 == code2 == 0
    assert lines1 == lines2
    assert lines1[-1] == {"summary": True, "graphs": 32, "violations": 0}


def test_solve_long_path(capsys, tmp_path):
    # 1,500 vertices: canonical values above 255, and a search that does not
    # recurse once per vertex
    p = tmp_path / "path.txt"
    p.write_bytes(io.serialize(graphs.path(1500), "edges"))
    code, lines = _run(capsys, ["solve", "--input", str(p), "--format", "edges"])
    assert code == 0
    assert lines[0]["status"] == "ok" and lines[0]["n"] == 1500
    assert lines[0]["fvs"]["size"] == lines[0]["cp"]["size"] == 0


def test_solve_long_cycle(capsys, tmp_path):
    # regular and symmetric: the graph id needs the distance split and the
    # automorphism pruning of canonical_form to come in seconds
    p = tmp_path / "cycle.txt"
    p.write_bytes(io.serialize(graphs.cycle(1500), "edges"))
    code, lines = _run(capsys, ["solve", "--input", str(p), "--format", "edges"])
    assert code == 0
    assert lines[0]["status"] == "ok" and lines[0]["n"] == 1500
    assert lines[0]["fvs"]["size"] == lines[0]["cp"]["size"] == 1


def test_verify_long_cycle(capsys, tmp_path):
    # C_1500 has 1,124,250 minimal 2-cuts; the small-cut flags trace none
    # of their sides
    p = tmp_path / "cycle.txt"
    p.write_bytes(io.serialize(graphs.cycle(1500), "edges"))
    code, lines = _run(capsys, ["verify", "--input", str(p), "--format", "edges"])
    assert code == 0
    assert lines[0]["n"] == 1500 and lines[0]["values"] == {"fvs": 1, "cp": 1}
    assert lines[0]["flags"]["cyclically_4ec"] and not lines[0]["flags"]["essentially_4ec"]


def test_verify_never_imports_networkx(tmp_path):
    # K4 and the cube take the face-packing route, K3,3 and the Petersen
    # graph the non-planar one; a fresh interpreter sees every import
    bipartite33 = Multigraph(6, tuple((a, b) for a in range(3) for b in range(3, 6)))
    p = tmp_path / "graphs.s6"
    gs = (graphs.complete(4), bipartite33, graphs.petersen(), graphs.cube())
    p.write_bytes(b"".join(io.serialize(g, "s6") + b"\n" for g in gs))
    script = (
        "import json, sys\n"
        "import jonescheck.cli as cli\n"
        f"code = cli.main(['verify', '--input', {str(p)!r}, '--jobs', '1'])\n"
        "print(json.dumps({'exit': code, 'networkx': 'networkx' in sys.modules}))\n"
    )
    src = str(Path(jonescheck.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    lines = [json.loads(l) for l in proc.stdout.splitlines()]
    assert proc.returncode == 0, proc.stderr
    assert lines[-1] == {"exit": 0, "networkx": False}
    records = lines[:-2]
    assert [r["flags"]["planar"] for r in records] == [True, False, False, True]
    assert [r["values"].get("fp_fixed") for r in records] == [1, None, None, 2]


def test_cuts(capsys, corpus_file):
    code, lines = _run(capsys, ["cuts", "--input", corpus_file])
    assert code == 0
    prism = lines[1]
    nontrivial = [c for c in prism["cuts"] if not c["trivial"]]
    assert len(nontrivial) == 1 and len(nontrivial[0]["edges"]) == 3
    assert not prism["cyclically_4ec"]
    assert lines[0]["cyclically_4ec"]  # K4
    assert lines[-1] == {"summary": True, "graphs": 3}


def test_cuts_long_cycle(capsys, tmp_path):
    # C_400 has 79,800 minimal 2-cuts; each is read in O(1), no side listed
    p = tmp_path / "cycle.txt"
    p.write_bytes(io.serialize(graphs.cycle(400), "edges"))
    t0 = time.perf_counter()
    code = cli.main(["cuts", "--input", str(p), "--format", "edges"])
    elapsed = time.perf_counter() - t0
    rec, summary = (json.loads(l) for l in capsys.readouterr().out.splitlines())
    assert code == 0
    assert len(rec["cuts"]) == 400 * 399 // 2
    assert sum(c["trivial"] for c in rec["cuts"]) == 400
    assert not any(c["cyclic"] for c in rec["cuts"])
    assert not rec["essentially_4ec"] and rec["cyclically_4ec"]
    assert summary == {"summary": True, "graphs": 1}
    assert elapsed < 3.0


def test_reduce(capsys, corpus_file):
    code, lines = _run(
        capsys, ["reduce", "--input", corpus_file, "--certificates"]
    )
    assert code == 0
    *records, summary = lines
    assert summary == {
        "summary": True, "graphs": 3, "skipped": 0, "certificate_failures": 0
    }
    for rec in records:
        for leaf in rec["leaves"]:
            assert leaf["label"] in ("acyclic", "essentially_4ec", "small")
        for cert in rec["certificates"]:
            assert cert["holds"]


def _write(tmp_path, inputs) -> str:
    p = tmp_path / "graphs.s6"
    p.write_text("".join(io.serialize(g, "s6").decode() + "\n" for g in inputs))
    return str(p)


def test_reduce_time_limit(capsys, tmp_path):
    # the bridge certificate of two GP(20,2) solves cp on each 41-vertex
    # side, some 10 ms a call
    p = _write(tmp_path, [bridged(graphs.generalized_petersen(20, 2)), graphs.complete(4)])
    code, lines = _run(
        capsys,
        ["reduce", "--input", p, "--certificates", "--time-limit-ms", "1"],
    )
    assert code == 0
    *records, summary = lines
    assert summary["skipped"] == 1
    assert [r["status"] for r in records] == ["skipped", "ok"]
    assert records[1]["leaves"] == [{"n": 4, "m": 6, "label": "small"}]


def test_reduce_bridged_dodecahedra(capsys, tmp_path):
    # a bridge certificate solves only the two 21-vertex sides
    p = _write(tmp_path, [bridged(graphs.dodecahedron())])
    t = time.monotonic()
    code, lines = _run(capsys, ["reduce", "--input", p, "--certificates"])
    assert time.monotonic() - t < 1.0
    assert code == 0
    record, summary = lines
    assert summary == {"summary": True, "graphs": 1, "skipped": 0, "certificate_failures": 0}
    assert record["decompositions"][0] == "bridge"
    assert record["certificates"][0]["entries"][0] == {
        "name": "fvs_union", "left": 12, "right": 12, "relation": "<=", "holds": True
    }


def test_verify_corpus_class(capsys):
    code, lines = _run(
        capsys,
        ["verify", "--class", "subcubic-planar-simple", "--max-n", "6"],
    )
    assert code == 0
    summary = lines[-1]
    # a clean run's summary has these five keys and no others
    assert summary == {
        "summary": True,
        "graphs": 48,
        "assertion_failures": 0,
        "conjecture_violations": 0,
        "skipped": 0,
    }
    assert [r["index"] for r in lines[:-1]] == list(range(48))


def test_verify_stdin(capsys, monkeypatch):
    data = io.serialize(graphs.complete(4), "s6").decode() + "\n"
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.StringIO(data))
    code, lines = _run(capsys, ["verify", "--stdin"])
    assert code == 0
    assert lines[0]["values"]["fvs"] == 2


def test_verify_edges_format(capsys, tmp_path):
    p = tmp_path / "g.edges"
    p.write_bytes(io.serialize(graphs.prism(), "edges"))
    code, lines = _run(
        capsys, ["verify", "--input", str(p), "--format", "edges"]
    )
    assert code == 0
    assert lines[0]["values"] == {"cp": 2, "fvs": 2, "fp_fixed": 2}


def test_verify_g6_format(capsys, monkeypatch):
    import io as _io

    monkeypatch.setattr("sys.stdin", _io.StringIO("C~\n"))  # K4
    code, lines = _run(capsys, ["verify", "--stdin", "--format", "g6"])
    assert code == 0
    assert lines[0]["values"]["fvs"] == 2 and lines[0]["values"]["cp"] == 1


def test_stdin_not_utf8_is_input_error(capsys, monkeypatch):
    # a UTF-8 locale decodes stdin strictly, so the bytes fail in read()
    import io as _io

    strict = _io.TextIOWrapper(_io.BytesIO(b"\xff\n"), encoding="utf-8", errors="strict")
    monkeypatch.setattr("sys.stdin", strict)
    assert cli.main(["verify", "--stdin"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "stdin: 'utf-8' codec can't decode" in captured.err
    assert "Traceback" not in captured.err


def test_verify_streams_records(tmp_path, corpus_file, monkeypatch):
    # each record is written and flushed before the next graph is checked
    out = tmp_path / "report.jsonl"
    seen = []
    run_checks = harness.run_checks

    def spy(g, limit):
        seen.append(out.read_text() if out.exists() else None)
        return run_checks(g, limit)

    monkeypatch.setattr(harness, "run_checks", spy)
    argv = ["verify", "--input", corpus_file, "--jobs", "1", "--output", str(out)]
    assert cli.main(argv) == 0
    assert len(seen) == 3
    first = seen[1] or ""
    assert first.endswith("\n") and len(first.splitlines()) == 1
    assert json.loads(first)["index"] == 0
    assert out.read_text().startswith(first)


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("command", ["solve", "verify"])
def test_error_record_keeps_batch(capsys, corpus_file, monkeypatch, command, jobs):
    # pool workers are forked, so they inherit the patch
    cp_exact = solvers.cp_exact

    def broken(g, *args, **kwargs):
        if g.n == 6:  # the prism
            raise RuntimeError("no packing today")
        return cp_exact(g, *args, **kwargs)

    monkeypatch.setattr(solvers, "cp_exact", broken)
    code = cli.main([command, "--input", corpus_file, "--jobs", jobs])
    assert code == 1
    out, err = capsys.readouterr()
    if jobs == "1":  # pool workers write their tracebacks to their own stderr
        assert "jonescheck: graph 1:" in err and "no packing today" in err
    k4, prism, theta, summary = map(json.loads, out.splitlines())
    assert prism == {"index": 1, "status": "error", "error": "RuntimeError: no packing today"}
    assert (k4["index"], theta["index"]) == (0, 2)
    assert k4["values" if command == "verify" else "cp"] and "error" not in theta
    assert summary["graphs"] == 3 and summary["errors"] == 1


def test_generate(capsys, tmp_path):
    out = tmp_path / "c.s6"
    code = cli.main(
        ["generate", "--class", "cubic-planar-simple", "--max-n", "6", "--out", str(out)]
    )
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    gs = [io.parse(l, "s6") for l in lines]
    assert [(g.n, g.m) for g in gs] == [(4, 6), (6, 9)]


def test_generate_output_is_usage_error(capsys, tmp_path):
    # the output file option of generate is --out only
    argv = ["generate", "--class", "cubic-planar-simple", "--max-n", "6"]
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--output", str(tmp_path / "c.s6")])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --output" in captured.err
    assert not (tmp_path / "c.s6").exists()


def test_output_file(tmp_path, corpus_file):
    out = tmp_path / "report.jsonl"
    code = cli.main(["solve", "--input", corpus_file, "--output", str(out)])
    assert code == 0
    lines = [json.loads(l) for l in out.read_text().strip().splitlines()]
    assert lines[-1]["summary"]


def test_time_limit_skip(capsys, tmp_path):
    p = tmp_path / "d.s6"
    p.write_bytes(io.serialize(graphs.dodecahedron(), "s6") + b"\n")
    code, lines = _run(
        capsys, ["solve", "--input", str(p), "--time-limit-ms", "0"]
    )
    # 0 disables the limit rather than skipping everything
    assert code == 0 and lines[0]["status"] == "ok"


@pytest.mark.parametrize(
    "argv", [["solve"], ["cuts"], ["reduce"], ["verify", "--max-n", "3"]]
)
def test_no_input_source_is_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "is required" in capsys.readouterr().err


def test_malformed_line_reports_line_number(capsys, monkeypatch):
    import io as _io

    good = io.serialize(graphs.complete(4), "s6").decode()
    monkeypatch.setattr("sys.stdin", _io.StringIO(f"{good}\n\ngarbage!!\n"))
    assert cli.main(["solve", "--stdin"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "line 3: sparse6 must start with ':'" in captured.err


def test_missing_input_file(capsys, tmp_path):
    assert cli.main(["reduce", "--input", str(tmp_path / "missing.s6")]) == 2
    assert "No such file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--class", "subcubic-planar-simple", "--max-n", "99"],
        ["generate", "--class", "subcubic-planar-multi", "--max-n", "11"],
    ],
)
def test_corpus_out_of_range_is_usage_error(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"jonescheck {argv[0]}: error: max_n >" in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--class", "subcubic-planar-simple", "--max-n", "0"],
        ["generate", "--class", "cubic-planar-simple", "--max-n", "-1"],
    ],
)
def test_corpus_max_n_below_one_is_usage_error(capsys, argv):
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"jonescheck {argv[0]}: error: max_n must be >= 1" in captured.err


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_jobs_below_one_is_usage_error(capsys, corpus_file, jobs):
    with pytest.raises(SystemExit) as exc:
        cli.main(["solve", "--input", corpus_file, "--jobs", jobs])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument --jobs: must be >= 1, got {jobs}" in captured.err


def test_negative_time_limit_is_usage_error(capsys, corpus_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--input", corpus_file, "--time-limit-ms", "-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --time-limit-ms: must be >= 0" in captured.err
