import random
import time
from collections import Counter

import pytest

import certificate_oracle
import cut_oracle
import strip_oracle
from isomorphism import are_isomorphic
from random_graphs import bridged, chained_k4s
from jonescheck import graphs, harness, reduction, solvers, structure
from jonescheck.multigraph import Multigraph


def _double_diamond():
    # two K4-minus-an-edge blocks joined by a 2-edge cut
    return Multigraph(
        8,
        (
            (0, 1), (0, 2), (1, 2), (1, 3), (2, 3),
            (4, 5), (4, 6), (5, 6), (5, 7), (6, 7),
            (0, 4), (3, 7),
        ),
    )


def test_suppress_degree2_basic():
    c4 = graphs.cycle(4)
    res = reduction.suppress_degree2(c4, 1)
    assert are_isomorphic(res.graph, graphs.cycle(3))
    # suppressing both neighbors equal gives a loop
    g = Multigraph(2, ((0, 1), (0, 1)))
    res = reduction.suppress_degree2(g, 1)
    assert res.graph.loops[0]


def test_suppress_rejects_wrong_degree():
    with pytest.raises(ValueError):
        reduction.suppress_degree2(graphs.complete(4), 0)
    with pytest.raises(ValueError):
        reduction.suppress_degree2(Multigraph(1, ((0, 0),)), 0)


def test_suppress_witness_maps():
    c5 = graphs.cycle(5)
    res = reduction.suppress_degree2(c5, 2)
    child_fvs = solvers.fvs_exact(res.graph)
    lifted = strip_oracle.fvs_to_parent(res, child_fvs)
    lifted.verify(c5)
    child_cp = solvers.cp_exact(res.graph)
    lifted_cycles = tuple(strip_oracle.cycle_to_parent(res, cyc) for cyc in child_cp.cycles)
    solvers.CyclePacking(lifted_cycles, child_cp.size).verify(c5)
    parent_fvs = solvers.fvs_exact(c5)
    pushed = strip_oracle.fvs_to_child(res, parent_fvs)
    pushed.verify(res.graph)


def test_delete_degree_le1():
    # triangle with a pendant path
    g = Multigraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4)))
    h, vmap, emap = reduction.delete_degree_le1(g)
    assert h.n == 3 and h.m == 3
    assert sorted(vmap) == [0, 1, 2]


_BOWTIE = Multigraph(6, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)))


def test_split_bridge_certificate():
    bowtie = _BOWTIE
    bridge = structure.find_first_cut(bowtie)
    d = reduction.split_bridge(bowtie, bridge.edges[0])
    assert set(d.parts) == {"G1", "G2"}
    cert = reduction.check_bridge_certificate(d)
    assert cert.holds


def test_split_2cut_c4():
    c4 = graphs.cycle(4)
    cut = structure.find_first_cut(c4)
    d = reduction.split_2cut(c4, cut)
    assert set(d.parts) == {"G1", "G2", "G1p", "G2p"}
    # each side plus its virtual edge is a cycle
    for label in ("G1p", "G2p"):
        part = d.parts[label]
        assert solvers.fvs_exact(part.graph).size == 1
    cert = reduction.check_cut2_certificate(d)
    assert cert.holds


def test_split_2cut_c6_and_double_diamond():
    for g in (graphs.cycle(6), _double_diamond()):
        cut = structure.find_first_cut(g)  # both are bridgeless
        assert len(cut.edges) == 2
        d = reduction.split_2cut(g, cut)
        assert reduction.check_cut2_certificate(d).holds


def test_combine_packings_2cut():
    dd = _double_diamond()
    cut = structure.find_first_cut(dd)
    d = reduction.split_2cut(dd, cut)
    p1 = solvers.cp_exact(d.parts["G1p"].graph)
    p2 = solvers.cp_exact(d.parts["G2p"].graph)
    comb = reduction._lift_packing(d, {"G1p": p1, "G2p": p2}, "G1p", "G2p")
    comb.verify(dd)
    assert comb.size >= p1.size + p2.size - 1


def test_decompose_3cut_prism():
    prism = graphs.prism()
    cut = structure.find_first_cut(prism)
    d = reduction.decompose_3cut(prism, cut)
    tri_par = Multigraph(3, ((0, 1), (0, 1), (1, 2), (0, 2)))
    for i in (1, 2):
        assert are_isomorphic(d.parts[f"G{i}_ABC"].graph, graphs.complete(4))
        for pair in ("AB", "AC", "BC"):
            assert are_isomorphic(d.parts[f"G{i}_{pair}"].graph, tri_par)


def test_check_cut3_certificate_prism():
    prism = graphs.prism()
    cut = structure.find_first_cut(prism)
    d = reduction.decompose_3cut(prism, cut)
    cert = reduction.check_cut3_certificate(d)
    assert cert.holds
    names = {e.name for e in cert.entries}
    # items (a)-(f) are all represented
    assert any(n.startswith("a_") for n in names)
    assert any(n.startswith("f_") for n in names)
    assert set(cert.observations) == {"eq1", "eq2", "eq3", "eq4"}


def test_tree_median():
    path5 = graphs.path(5)
    assert reduction.tree_median(path5, 0, 2, 4) == 2
    star = Multigraph(4, ((0, 1), (0, 2), (0, 3)))
    assert reduction.tree_median(star, 1, 2, 3) == 0
    # median lies on all three pairwise paths
    spider = Multigraph(7, ((0, 1), (1, 2), (0, 3), (3, 4), (0, 5), (5, 6)))
    assert reduction.tree_median(spider, 2, 4, 6) == 0


def test_lift_fvs_3cut():
    prism = graphs.prism()
    cut = structure.find_first_cut(prism)
    d = reduction.decompose_3cut(prism, cut)
    for i in (1, 2):
        other = 2 if i == 1 else 1
        s_abc = solvers.fvs_exact(d.parts[f"G{i}_ABC"].graph)
        s_other = solvers.fvs_exact(d.parts[f"G{other}"].graph)
        lifted = reduction.lift_fvs_3cut(d, s_abc, s_other, i=i)
        lifted.verify(prism)
        assert lifted.size <= s_abc.size + s_other.size + 1


def test_lift_fvs_3cut_larger():
    # K4 on {0,1,2,3} joined to a triangle on {4,5,6} across a nontrivial 3-cut
    g = Multigraph(
        7,
        (
            (0, 1), (0, 2), (1, 2),
            (4, 5), (4, 6), (5, 6),
            (0, 4), (1, 5), (2, 6),
            (0, 3), (1, 3), (2, 3),
        ),
    )
    cut = structure.find_first_cut(g)
    assert cut is not None and sorted(cut.edges) == [6, 7, 8]
    d = reduction.decompose_3cut(g, cut)
    s_abc = solvers.fvs_exact(d.parts["G1_ABC"].graph)
    s2 = solvers.fvs_exact(d.parts["G2"].graph)
    lifted = reduction.lift_fvs_3cut(d, s_abc, s2, i=1)
    lifted.verify(g)


def test_certify_dispatch():
    prism = graphs.prism()
    cut = structure.find_first_cut(prism)
    d = reduction.decompose_3cut(prism, cut)
    assert reduction.certify(d).holds


def _random_connected_multigraph(rng: random.Random) -> Multigraph:
    # a random tree plus extra edges, loops and parallel edges
    n = rng.randint(2, 9)
    edges = [(rng.randrange(v), v) for v in range(1, n)]
    edges += [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, n))]
    edges += [rng.choice(edges) for _ in range(rng.randint(0, 2))]
    return Multigraph(n, tuple(edges))


def _decompositions(g: Multigraph):
    """The decomposition of g along each of its bridges, minimal 2-cuts and
    nontrivial minimal 3-cuts."""
    for cut in cut_oracle.scan_cuts(g):  # sorted by size
        if len(cut.edges) == 1:
            yield reduction.split_bridge(g, cut.edges[0])
        elif len(cut.edges) == 2:
            yield reduction.split_2cut(g, cut)
        elif not cut.trivial:
            yield reduction.decompose_3cut(g, cut)


def test_certificates_match_exact_oracle_random():
    # parent values from lifted witnesses against the exact-parent oracle,
    # on multigraphs with loops and parallel edges
    rng = random.Random(1414)
    kinds = {"bridge": 0, "cut2": 0, "cut3": 0}
    for _ in range(300):
        g = _random_connected_multigraph(rng)
        for d in _decompositions(g):
            assert reduction.certify(d) == certificate_oracle.certify(d), (g, d.cut)
            kinds[d.kind] += 1
    assert min(kinds.values()) >= 20, kinds


def test_pipeline_solves_each_part_once_per_process(multi_corpus_8, monkeypatch):
    # one solve cache per process: across the whole input list each distinct
    # (solver, part graph) pair is solved once, and the certificates equal
    # those each decomposition gets alone, from an empty cache
    inputs = [g for g in multi_corpus_8 if g.n <= 7] + [
        bridged(graphs.dodecahedron()),
        bridged(graphs.prism()),
        chained_k4s(2),
        chained_k4s(3),
        _double_diamond(),
    ]
    calls: Counter = Counter()

    def counting(solver):
        def wrapper(h, **kw):
            calls[solver.__name__, h] += 1
            return solver(h, **kw)

        return wrapper

    reduction._solve.cache_clear()
    with monkeypatch.context() as mp:
        mp.setattr(reduction, "fvs_exact", counting(solvers.fvs_exact))
        mp.setattr(reduction, "cp_exact", counting(solvers.cp_exact))
        results = [harness.reduce_pipeline(g, with_certificates=True) for g in inputs]
    assert max(calls.values()) == 1
    for g, res in zip(inputs, results):
        plain = harness.reduce_pipeline(g)
        assert (res.decompositions, res.leaves) == (plain.decompositions, plain.leaves)
        alone = []
        for d in res.decompositions:
            if d.kind != "low_degree":
                reduction._solve.cache_clear()
                alone.append(reduction.certify(d))
        assert [c.to_dict() for c in res.certificates] == [c.to_dict() for c in alone]


def test_solve_cache_keeps_limits_apart():
    # an entry solved with no limit does not serve a limited call, and the
    # limited call's SolverLimit leaves the unlimited entries as they were
    g = bridged(graphs.prism())
    reduction._solve.cache_clear()
    first = harness.reduce_pipeline(g, True, None)
    with pytest.raises(solvers.SolverLimit):
        harness.reduce_pipeline(g, True, 1e-9)
    again = harness.reduce_pipeline(g, True, None)
    assert again.certificates == first.certificates


def _virtual_cycle_packing(part: reduction.Part) -> solvers.CyclePacking:
    (v,) = part.virtual_edges
    cyc = next(c.edges for c in solvers.enumerate_cycles(part.graph) if v in c.edges)
    return solvers.CyclePacking((cyc,), 1)


def test_wrong_lifts_fail_verification():
    # a bridge lift that drops the second side's set
    d = reduction.split_bridge(_BOWTIE, structure.find_first_cut(_BOWTIE).edges[0])
    sets = {"G1": solvers.fvs_exact(d.parts["G1"].graph), "G2": solvers.FeedbackSet((), 0)}
    with pytest.raises(AssertionError):
        reduction._lift_fvs(d, sets, "G1", "G2")
    # a 2-cut lift without the virtual-edge side: fvs 3, and this union has 2
    dd = _double_diamond()
    d = reduction.split_2cut(dd, structure.find_first_cut(dd))
    sets = {k: solvers.fvs_exact(d.parts[k].graph) for k in ("G1", "G2", "G1p")}
    with pytest.raises(AssertionError):
        reduction._lift_fvs(d, sets, "G1", "G2")
    assert reduction._lift_fvs(d, sets, "G1p", "G2").size == 3
    # a 3-cut merge through two different pairs of cut edges
    prism = graphs.prism()
    d = reduction.decompose_3cut(prism, structure.find_first_cut(prism))
    packings = {k: _virtual_cycle_packing(d.parts[k]) for k in ("G1_AB", "G2_AB", "G2_AC")}
    with pytest.raises(AssertionError):
        reduction._lift_packing(d, packings, "G1_AB", "G2_AC")
    assert reduction._lift_packing(d, packings, "G1_AB", "G2_AB").size == 1


def test_decompositions_need_a_connected_parent():
    # the other component would fall out of both parts
    triangle = ((0, 1), (1, 2), (0, 2))

    def plus_triangle(g: Multigraph) -> Multigraph:
        return Multigraph(g.n + 3, g.edges + tuple((u + g.n, v + g.n) for u, v in triangle))

    g = plus_triangle(_BOWTIE)
    with pytest.raises(ValueError, match="connected"):
        reduction.split_bridge(g, cut_oracle.scan_cuts(g)[0].edges[0])
    g = plus_triangle(graphs.cycle(6))
    with pytest.raises(ValueError, match="connected"):
        reduction.split_2cut(g, cut_oracle.scan_cuts(g)[0])
    g = plus_triangle(graphs.prism())
    cut = next(c for c in cut_oracle.scan_cuts(g) if len(c.edges) == 3 and not c.trivial)
    with pytest.raises(ValueError, match="connected"):
        reduction.decompose_3cut(g, cut)


def _random_multigraph(rng: random.Random) -> Multigraph:
    # loops and parallel edges, often disconnected, long chains now and then
    n = rng.randint(1, 12)
    edges = [(u, v) for u in range(n) for v in range(u, n) if rng.random() < 1.5 / n]
    edges += [rng.choice(edges) for _ in range(rng.randint(0, 2)) if edges]
    return Multigraph(n, tuple(edges))


def test_strip_matches_oracle(simple_corpus_12, multi_corpus_8):
    # graphs and maps equal the round-by-round oracle's; every suppressible
    # vertex is tried on the smaller graphs
    rng = random.Random(707)
    randoms = [_random_multigraph(rng) for _ in range(2000)]
    for g in simple_corpus_12 + multi_corpus_8 + randoms:
        assert reduction.delete_degree_le1(g) == strip_oracle.delete_degree_le1(g)
        assert harness._strip_low_degree(g) == strip_oracle.strip_low_degree(g)
    for g in [g for g in simple_corpus_12 if g.n <= 9] + multi_corpus_8 + randoms:
        for v in range(g.n):
            if g.degree(v) == 2 and not g.loops[v]:
                assert reduction.suppress_degree2(g, v) == strip_oracle.suppress_degree2(g, v)


def test_strip_long_pendant_path():
    # peeling a 1,500-vertex path off a triangle is one pass, not one
    # rebuild of the graph per vertex
    n = 1503
    g = Multigraph(n, ((0, 1), (1, 2), (0, 2)) + tuple((v, v + 1) for v in range(2, n - 1)))
    t = time.monotonic()
    h, changed = harness._strip_low_degree(g)
    assert time.monotonic() - t < 0.1
    assert changed and h == Multigraph(1, ((0, 0),))
