import pytest

from jonescheck import graphs, reduction, solvers, structure
from jonescheck.canonical import are_isomorphic
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
    lifted = res.fvs_to_parent(child_fvs)
    lifted.verify(c5)
    child_cp = solvers.cp_exact(res.graph)
    lifted_cycles = tuple(res.cycle_to_parent(cyc) for cyc in child_cp.cycles)
    solvers.CyclePacking(lifted_cycles, child_cp.size).verify(c5)
    parent_fvs = solvers.fvs_exact(c5)
    pushed = res.fvs_to_child(parent_fvs)
    pushed.verify(res.graph)


def test_delete_degree_le1():
    # triangle with a pendant path
    g = Multigraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4)))
    h, vmap, emap = reduction.delete_degree_le1(g)
    assert h.n == 3 and h.m == 3
    assert sorted(vmap) == [0, 1, 2]


def test_split_bridge_certificate():
    bowtie = Multigraph(6, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (4, 5), (3, 5)))
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
    comb = reduction.combine_packings_2cut(d, p1, p2)
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
