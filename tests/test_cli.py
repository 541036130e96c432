import json

import pytest

from jonescheck import cli, graphs, io
from jonescheck.multigraph import Multigraph


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


def test_solve_jobs(capsys, corpus_file):
    code1, lines1 = _run(capsys, ["solve", "--input", corpus_file])
    code2, lines2 = _run(capsys, ["solve", "--input", corpus_file, "--jobs", "2"])
    assert code1 == code2 == 0
    assert [l["graph_id"] for l in lines1[:-1]] == [l["graph_id"] for l in lines2[:-1]]


def test_solve_long_path(capsys, tmp_path):
    # 1,500 vertices: canonical values above 255, and a search that does not
    # recurse once per vertex
    p = tmp_path / "path.txt"
    p.write_bytes(io.serialize(graphs.path(1500), "edges"))
    code, lines = _run(capsys, ["solve", "--input", str(p), "--format", "edges"])
    assert code == 0
    assert lines[0]["status"] == "ok" and lines[0]["n"] == 1500
    assert lines[0]["fvs"]["size"] == lines[0]["cp"]["size"] == 0


def test_cuts(capsys, corpus_file):
    code, lines = _run(capsys, ["cuts", "--input", corpus_file])
    assert code == 0
    prism = lines[1]
    nontrivial = [c for c in prism["cuts"] if not c["trivial"]]
    assert len(nontrivial) == 1 and len(nontrivial[0]["edges"]) == 3
    assert not prism["cyclically_4ec"]
    assert lines[0]["cyclically_4ec"]  # K4


def test_reduce(capsys, corpus_file):
    code, lines = _run(
        capsys, ["reduce", "--input", corpus_file, "--certificates"]
    )
    assert code == 0
    for rec in lines:
        for leaf in rec["leaves"]:
            assert leaf["label"] in ("acyclic", "essentially_4ec", "small")
        for cert in rec["certificates"]:
            assert cert["holds"]


def test_reduce_time_limit(capsys, tmp_path):
    # two dodecahedra, each with one edge subdivided, joined by a bridge
    # between the new vertices: the bridge certificate solves all 42 vertices
    d = graphs.dodecahedron()
    (u, v), rest = d.edges[0], d.edges[1:]
    half = [(u, d.n), (d.n, v), *rest]
    shift = d.n + 1
    edges = half + [(a + shift, b + shift) for a, b in half] + [(d.n, d.n + shift)]
    p = tmp_path / "graphs.s6"
    inputs = [Multigraph(2 * shift, tuple(edges)), graphs.complete(4)]
    p.write_text("".join(io.serialize(g, "s6").decode() + "\n" for g in inputs))
    code, records = _run(
        capsys,
        ["reduce", "--input", str(p), "--certificates", "--time-limit-ms", "1"],
    )
    assert code == 0
    assert [r["status"] for r in records] == ["skipped", "ok"]
    assert records[1]["leaves"] == [{"n": 4, "m": 6, "label": "small"}]


def test_verify_corpus_class(capsys):
    code, lines = _run(
        capsys,
        ["verify", "--class", "subcubic-planar-simple", "--max-n", "6"],
    )
    assert code == 0
    summary = lines[-1]
    assert summary["graphs"] == 48
    assert summary["assertion_failures"] == 0
    assert summary["conjecture_violations"] == 0


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


def test_negative_time_limit_is_usage_error(capsys, corpus_file):
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--input", corpus_file, "--time-limit-ms", "-5"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --time-limit-ms: must be >= 0" in captured.err
