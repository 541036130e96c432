"""Self-tests of the benchmark's own code.

    python3 -m pytest benchmarks/test_benchmark.py
"""

from __future__ import annotations

import json
import re
import sys
from array import array
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import cubic_planar  # noqa: E402
import run  # noqa: E402
import stats  # noqa: E402
import tracing  # noqa: E402


def test_pool_is_deterministic_and_cubic_planar():
    sizes = (4, 6, 16, 24, 24)
    pool = cubic_planar.pool(7, sizes)
    assert pool == cubic_planar.pool(7, sizes)
    assert pool != cubic_planar.pool(8, sizes)
    for (n, edges), want_n in zip(pool, sizes):
        assert n == want_n and len(edges) == 3 * n // 2
        cubic_planar.check(n, edges)


def test_pool_rejects_odd_sizes():
    with pytest.raises(ValueError):
        cubic_planar.pool(0, (5,))


def test_check_rejects_non_planar_and_non_cubic():
    k33 = [(a, b) for a in range(3) for b in range(3, 6)]
    with pytest.raises(AssertionError):
        cubic_planar.check(6, k33)
    with pytest.raises(AssertionError):
        cubic_planar.check(4, [(0, 1), (1, 2), (2, 3), (3, 0)])


@pytest.mark.parametrize(
    "n, p", [(20, 50.0), (39, 50.0), (40, 75.0), (100, 90.0), (200, 95.0), (4316, 99.0), (10000, 99.9)]
)
def test_tail_percentile_keeps_ten_samples_beyond(n, p):
    assert stats.tail_percentile(n) == p


def test_tail_percentile_needs_twenty_samples():
    with pytest.raises(ValueError):
        stats.tail_percentile(19)


def test_nearest_rank_percentile():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 99) == 99
    assert stats.percentile([5.0], 99.9) == 5.0


def _spans(rows):
    """rows: (name id, parent index, start, end)."""
    spans = {key: array(code) for key, code in tracing._ARRAYS}
    for nid, parent, start, end in rows:
        for key, value in zip(("name", "parent", "start", "end"), (nid, parent, start, end)):
            spans[key].append(value)
    return spans


def test_self_time_subtracts_direct_children_only():
    names = ["outer", "inner", "leaf"]
    spans = _spans(
        [
            (0, -1, 0.0, 10.0),  # outer: 10 long
            (1, 0, 1.0, 3.0),  # inner: 2 long
            (1, 0, 4.0, 8.0),  # inner: 4 long
            (2, 2, 5.0, 6.0),  # leaf inside the second inner: 1 long
            (0, -1, 20.0, 21.0),  # a second outer with no children
        ]
    )
    got = tracing.self_times(names, spans)
    assert got == pytest.approx({"outer": 10 - 2 - 4 + 1, "inner": 2 + 4 - 1, "leaf": 1})


def test_spans_round_trip(tmp_path):
    t = tracing.Tracer()
    outer = t.open(t.name_id("a"))
    t.close(t.open(t.name_id("b")))
    t.close(outer)
    t.dump(tmp_path / "spans.bin")
    names, spans = tracing.load_spans(tmp_path / "spans.bin")
    assert names == ["a", "b"]
    assert list(spans["parent"]) == [-1, 0]
    assert all(e >= s for s, e in zip(spans["start"], spans["end"]))


def test_install_rebinds_every_copy():
    from jonescheck import canonical, graphs, harness, reduction, solvers, structure

    originals = (canonical.canonical_form, solvers.fvs_exact, structure.faces)
    t = tracing.Tracer()
    restore = tracing.install(t)
    try:
        assert harness.canonical_form is canonical.canonical_form is not originals[0]
        assert reduction.fvs_exact is solvers.fvs_exact is not originals[1]
        assert solvers.face_walks is structure.faces is not originals[2]
        harness.graph_digest(graphs.prism())
        solvers.cp_exact(graphs.dodecahedron())
        list(harness.generate_corpus(harness.CorpusSpec("subcubic-planar-simple", 3)))
    finally:
        tracing.uninstall(restore)
    assert (canonical.canonical_form, solvers.fvs_exact, structure.faces) == originals
    assert harness.canonical_form is originals[0] and solvers.face_walks is originals[2]
    assert t.calls["harness.graph_digest"] == 1
    assert t.calls["solvers.enumerate_cycles"] == 1
    assert t.counters["cp.cycles_packed"] == 3
    assert t.counters["harness.graphs_generated"] == 4  # n = 1, 2, 3, 3
    assert t.calls["canonical.canonical_form"] > 3


def test_witness_checks():
    k4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert checks.is_forest_after_removal(4, k4, [0, 1])
    assert not checks.is_forest_after_removal(4, k4, [0])
    assert not checks.is_forest_after_removal(2, [(0, 1), (0, 1)], [])
    assert checks.is_cycle(k4, [0, 1, 3])
    assert not checks.is_cycle(k4, [0, 1])
    assert checks.is_cycle([(0, 0)], [0])
    assert checks.packing_ok([(0, 0), (1, 1), (0, 1)], [[0], [1]])
    assert not checks.packing_ok(k4, [[0, 1, 3], [3, 4, 5]])


def test_certificate_check_reevaluates_entries():
    entry = {"name": "x", "left": 3, "right": 2, "relation": "<=", "holds": True}
    assert not checks.certificate_ok({"holds": True, "entries": [entry]})
    assert checks.certificate_ok({"holds": True, "entries": [dict(entry, left=2)]})


NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_metric_names_and_benchmark_json_agree():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(run.SETUPS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == run.PER_LAYER
    for name in list(run.END_TO_END) + list(run.PER_LAYER):
        assert NAME.fullmatch(name), name
    for names in run.REQUIRED_NONZERO.values():
        assert set(names) <= set(run.PER_LAYER)


def test_solve_large_keeps_the_tail_at_p75():
    n = len(run.ANCHORS) + len(run.POOL_SIZES)
    assert n == 99 and stats.tail_percentile(n) == 75.0


def test_worker_items_selects_a_slice(tmp_path):
    import worker

    inp, out = tmp_path / "in.json", tmp_path / "out.json"
    graphs = [{"n": n, "edges": e} for _, (n, e), _ in run.ANCHORS[1:5]]  # W3..W6
    inp.write_text(json.dumps(graphs))
    assert worker.main(["solve", str(inp), str(out), "--items", "1:3"]) == 0
    assert [r["fvs"] for r in json.loads(out.read_text())["results"]] == [2, 2]
    assert worker.main(["solve", str(inp), str(out), "--first-only"]) == 0
    assert len(json.loads(out.read_text())["results"]) == 1
