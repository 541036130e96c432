import random
import time

import pytest

import bruteforce_oracle
import cp_oracle
from jonescheck import graphs, reduction, solvers, structure
from jonescheck.multigraph import Multigraph


def test_enumerate_cycles_counts():
    assert len(solvers.enumerate_cycles(graphs.complete(4))) == 7
    assert len(solvers.enumerate_cycles(graphs.theta())) == 3
    assert len(solvers.enumerate_cycles(graphs.cycle(5))) == 1
    assert len(solvers.enumerate_cycles(Multigraph(1, ((0, 0),)))) == 1
    assert solvers.enumerate_cycles(graphs.path(4)) == []


def test_enumerate_cycles_deadline():
    # GP(14,2) has 13,562 cycles, so the deadline is checked on the way
    with pytest.raises(solvers.SolverLimit):
        solvers.enumerate_cycles(
            graphs.generalized_petersen(14, 2), deadline=time.monotonic() - 1.0
        )


@pytest.mark.parametrize("minimal", [False, True])
def test_enumerate_cycles_deadline_per_step(minimal):
    # C_1500 has one cycle, found only after about 1,500 search steps, so the
    # deadline must be checked per step, not per cycle found
    with pytest.raises(solvers.SolverLimit):
        solvers.enumerate_cycles(
            graphs.cycle(1500), deadline=time.monotonic() - 1.0, minimal=minimal
        )


def _bridged_squares(k: int) -> Multigraph:
    """k 4-cycles, each joined to the next by a bridge from its vertex 2 to
    the next one's vertex 0; subcubic and planar."""
    edges = []
    for b in range(0, 4 * k, 4):
        edges += [(b, b + 1), (b + 1, b + 2), (b + 2, b + 3), (b + 3, b)]
        if b:
            edges.append((b - 2, b))
    return Multigraph(4 * k, tuple(edges))


def test_cp_bridged_squares_within_blocks():
    # an induced path that crossed the bridges could pass each square on
    # either side, doubling per square; the search stays in one block
    assert solvers.cp_exact(_bridged_squares(400), time_limit_s=1.0).size == 400
    assert solvers.cp_exact(_bridged_squares(18), time_limit_s=0.5).size == 18


def test_cp_long_path_and_cycle_linear():
    # each root is dropped after its search and vertices left with fewer
    # than two live neighbours are peeled, so no O(n^2) walk remains
    assert solvers.cp_exact(graphs.path(1500), time_limit_s=0.5).size == 0
    assert solvers.cp_exact(graphs.cycle(1500), time_limit_s=0.5).size == 1


def _assert_minimal_matches_oracle(g: Multigraph) -> None:
    def key(c):
        return (len(c.vertices), c.edges)

    kept, _ = cp_oracle._vertex_minimal(g, sorted(solvers.enumerate_cycles(g), key=key))
    assert sorted(solvers.enumerate_cycles(g, minimal=True), key=key) == kept


def test_minimal_cycles_match_oracle_random():
    # theta() and two_triples pin the triple-edge pitfall: a plain chordless
    # test would drop every 2-cycle of a triple edge
    two_triples = Multigraph(4, ((0, 1),) * 3 + ((2, 3),) * 3 + ((1, 2),))
    rng = random.Random(1309)
    for g in [graphs.theta(), two_triples] + [_random_multigraph(rng) for _ in range(2000)]:
        _assert_minimal_matches_oracle(g)


def test_minimal_cycles_match_oracle_multi_corpus(multi_corpus_8):
    for g in multi_corpus_8:
        _assert_minimal_matches_oracle(g)


def test_fvs_examples():
    assert solvers.fvs_exact(graphs.complete(4)).size == 2
    assert bruteforce_oracle.fvs_bruteforce(graphs.complete(4)).size == 2
    assert solvers.fvs_exact(graphs.cycle(6)).size == 1
    assert solvers.fvs_exact(graphs.path(5)).size == 0
    for n in range(3, 11):
        assert solvers.fvs_exact(graphs.wheel(n)).size == 2


def test_fvs_multigraph_features():
    # loop vertex must be in every feedback set
    g = Multigraph(3, ((0, 0), (0, 1), (1, 2), (0, 2)))
    w = solvers.fvs_exact(g)
    assert 0 in w.vertices
    # parallel pair is a cycle of length two
    assert solvers.fvs_exact(graphs.theta()).size == 1


def test_cp_examples():
    assert solvers.cp_exact(graphs.complete(4)).size == 1
    assert solvers.cp_exact(graphs.prism()).size == 2
    assert bruteforce_oracle.cp_bruteforce(graphs.prism()).size == 2
    for n in range(3, 11):
        assert solvers.cp_exact(graphs.wheel(n)).size == 1
    # each case below exercises one drop rule of the vertex-minimal filter;
    # theta() is a triple edge: three 2-cycles on one vertex set
    assert solvers.cp_exact(graphs.theta()).size == 1
    two_triples = Multigraph(4, ((0, 1),) * 3 + ((2, 3),) * 3 + ((1, 2),))
    assert solvers.cp_exact(two_triples).size == 2
    looped_digon = Multigraph(2, ((0, 1), (0, 1), (0, 0)))  # 2-cycle touching a loop
    assert solvers.cp_exact(looped_digon).size == 1
    # theta a-x-b, a-y-b, a-u-w-b with u-w doubled: the long cycles through
    # u-w induce the parallel edge, the digon u-w packs beside a-x-b-y
    a, b, x, y, u, w = range(6)
    theta_doubled = Multigraph(
        6, ((a, x), (x, b), (a, y), (y, b), (a, u), (u, w), (u, w), (w, b))
    )
    assert solvers.cp_exact(theta_doubled).size == 2
    assert bruteforce_oracle.cp_bruteforce(theta_doubled).size == 2


def test_witness_verification():
    g = graphs.prism()
    fvs = solvers.fvs_exact(g)
    fvs.verify(g)
    cp = solvers.cp_exact(g)
    cp.verify(g)
    bad = solvers.FeedbackSet(vertices=(0,), size=1, optimal=False)
    with pytest.raises(AssertionError):
        bad.verify(g)


def test_cp_witness_disjoint():
    g = graphs.dodecahedron()
    cp = solvers.cp_exact(g)
    seen = set()
    for cyc in cp.cycles:
        verts = set()
        for e in cyc:
            verts.update(g.edges[e])
        assert not (verts & seen)
        seen |= verts


def test_dodecahedron_frozen_values():
    # derived via fvs_bruteforce-style oracles once, then frozen
    d = graphs.dodecahedron()
    fvs = solvers.fvs_exact(d, time_limit_s=60)
    cp = solvers.cp_exact(d, time_limit_s=60)
    assert fvs.size == 6
    assert cp.size == 3
    assert fvs.size == 2 * cp.size


def _random_multigraph(rng: random.Random) -> Multigraph:
    """Multigraph on n <= 9 vertices with loops, parallel and triple edges."""
    n = rng.randrange(1, 10)
    edges = [
        (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 2 * n + 2))
    ]
    for _ in range(rng.randrange(0, 3)):
        if edges:
            edges += [rng.choice(edges)] * rng.randrange(1, 3)
    for _ in range(rng.randrange(0, 2)):
        v = rng.randrange(n)
        edges.append((v, v))
    return Multigraph(n, tuple(edges))


def test_oracle_equivalence_random():
    rng = random.Random(2024)
    graphs_ = []
    for _ in range(60):
        n = rng.randrange(2, 8)
        edges = tuple(
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 10))
        )
        graphs_.append(Multigraph(n, edges))
    graphs_ += [_random_multigraph(rng) for _ in range(400)]
    for g in graphs_:
        fvs = bruteforce_oracle.fvs_bruteforce(g).size
        assert solvers.fvs_exact(g).size == fvs
        # the degree bound alone, on the whole graph, never exceeds fvs
        assert solvers._degree_lower_bound(solvers._Work(g), frozenset()) <= fvs
        if len(solvers.enumerate_cycles(g)) <= 20:
            assert solvers.cp_exact(g).size == bruteforce_oracle.cp_bruteforce(g).size
        else:
            assert solvers.cp_exact(g).size == cp_oracle._cp_branch(g, None).size


def test_long_cycle_no_recursion_error():
    g = graphs.cycle(1500)
    assert solvers.fvs_exact(g).size == 1
    assert solvers.cp_exact(g).size == 1


def test_weak_duality_and_monotonicity():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randrange(3, 8)
        edges = [
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(1, 10))
        ]
        g = Multigraph(n, tuple(edges))
        fvs = solvers.fvs_exact(g).size
        cp = solvers.cp_exact(g).size
        assert cp <= fvs  # disjoint cycles each need their own fvs vertex
        # deleting an edge cannot increase either quantity
        from jonescheck.multigraph import delete_edges

        h = delete_edges(g, [rng.randrange(g.m)]).graph
        assert solvers.fvs_exact(h).size <= fvs
        assert solvers.cp_exact(h).size <= cp


def test_suppression_preserves_fvs_cp():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randrange(4, 8)
        edges = [(i, (i + 1) % n) for i in range(n)]
        edges += [
            (rng.randrange(n), rng.randrange(n)) for _ in range(rng.randrange(0, 3))
        ]
        g = Multigraph(n, tuple(edges))
        v = next(
            (x for x in range(n) if g.degree(x) == 2 and not g.loops[x]), None
        )
        if v is None:
            continue
        h = reduction.suppress_degree2(g, v).graph
        assert solvers.fvs_exact(h).size == solvers.fvs_exact(g).size
        assert solvers.cp_exact(h).size == solvers.cp_exact(g).size


def test_cp_matches_branching_oracle():
    for g in (graphs.prism(), graphs.cube(), graphs.wheel(5)):
        branched = cp_oracle._cp_branch(g, None)
        assert solvers.cp_exact(g).size == branched.size
        branched.verify(g)


def test_fp_fixed_embedding():
    k4 = graphs.complete(4)
    fp = solvers.fp_fixed_embedding(k4, structure.planar_embedding(k4))
    assert fp.size == 1
    cube = graphs.cube()
    fp = solvers.fp_fixed_embedding(cube, structure.planar_embedding(cube))
    assert fp.size == 2
    fp.verify(cube)


def test_fp_le_cp():
    for g in (graphs.complete(4), graphs.prism(), graphs.cube(), graphs.dodecahedron()):
        rot = structure.planar_embedding(g)
        assert solvers.fp_fixed_embedding(g, rot).size <= solvers.cp_exact(g).size


def test_time_limit_raises():
    with pytest.raises(solvers.SolverLimit):
        solvers.fvs_exact(graphs.dodecahedron(), time_limit_s=0.0)


def test_cp_time_limit_bounds_enumeration():
    # GP(18,2) lists its vertex-minimal cycles in a few hundredths of a
    # second, so the 0.2 s limit fires in the packing search; the per-step
    # deadline of the enumeration is pinned by
    # test_enumerate_cycles_deadline_per_step
    t0 = time.monotonic()
    with pytest.raises(solvers.SolverLimit):
        solvers.cp_exact(graphs.generalized_petersen(18, 2), time_limit_s=0.2)
    assert time.monotonic() - t0 < 3.0


def test_witness_to_dict():
    g = graphs.complete(4)
    d = solvers.witness_to_dict(solvers.fvs_exact(g))
    assert d["kind"] == "fvs" and d["size"] == 2 and len(d["vertices"]) == 2
    d = solvers.witness_to_dict(solvers.cp_exact(g))
    assert d["kind"] == "cp" and d["size"] == 1
