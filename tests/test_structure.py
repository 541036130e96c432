import random

import networkx as nx
import pytest

import connectivity_oracle
import cut_oracle
from jonescheck import graphs, structure
from jonescheck.multigraph import Multigraph


def test_edge_connectivity_examples():
    edge_connectivity = connectivity_oracle.edge_connectivity
    assert edge_connectivity(graphs.complete(4)) == 3
    assert edge_connectivity(graphs.cycle(5)) == 2
    assert edge_connectivity(graphs.path(3)) == 1
    assert edge_connectivity(graphs.theta()) == 3
    assert edge_connectivity(Multigraph(3, ((0, 1),))) == 0


def test_vertex_connectivity_examples():
    assert structure.vertex_connectivity(graphs.complete(4)) == 3
    assert structure.vertex_connectivity(graphs.prism()) == 3
    assert structure.vertex_connectivity(graphs.cycle(6)) == 2
    bowtie = Multigraph(5, ((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)))
    assert structure.vertex_connectivity(bowtie) == 1
    assert structure.vertex_connectivity(graphs.wheel(5)) == 3
    assert structure.vertex_connectivity(_octahedron()) == 4


def _octahedron() -> Multigraph:
    # K6 minus a perfect matching: 4-regular and 4-connected
    k6 = graphs.complete(6)
    return Multigraph(6, tuple(e for e in k6.edges if e not in ((0, 1), (2, 3), (4, 5))))


def test_vertex_connectivity_matches_networkx():
    # degrees up to 8, so the minimum-degree bound is exercised beyond
    # subcubic graphs; loops and parallel edges must not change the answer
    rng = random.Random(31337)
    pool = [graphs.wheel(5), graphs.wheel(7), _octahedron(), graphs.complete(6)]
    for _ in range(400):
        n = rng.randint(1, 9)
        p = rng.random()
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]
        edges += [rng.choice(edges) for _ in range(rng.randint(0, 2)) if edges]
        edges += [(v, v) for v in range(n) if rng.random() < 0.1]
        pool.append(Multigraph(n, tuple(edges)))
    for g in pool:
        s = g.underlying_simple()
        nxg = nx.Graph()
        nxg.add_nodes_from(range(s.n))
        nxg.add_edges_from(s.edges)
        assert structure.vertex_connectivity(g) == nx.node_connectivity(nxg), g


def test_enumerate_cuts_cycle():
    cuts = structure.enumerate_cuts(graphs.cycle(4), 2)
    # a 4-cycle has no bridges; every pair of edges is a minimal 2-cut
    assert all(len(c.edges) == 2 for c in cuts)
    assert len(cuts) == 6
    assert all(not c.cyclic for c in cuts)


def test_prism_rung_cut():
    prism = graphs.prism()
    cuts3 = [c for c in structure.enumerate_cuts(prism, 3) if not c.trivial]
    assert len(cuts3) == 1
    assert sorted(cuts3[0].edges) == [6, 7, 8]
    assert cuts3[0].cyclic  # both sides are triangles
    assert structure.small_cut_flags(prism) == (False, False)


def test_k4_flags():
    k4 = graphs.complete(4)
    assert structure.small_cut_flags(k4) == (True, True)


def test_flags_disconnected():
    # removing no edge already leaves two components with >= 2 vertices and
    # with a cycle
    k4 = graphs.complete(4)
    two_k4 = Multigraph(8, k4.edges + tuple((u + 4, v + 4) for u, v in k4.edges))
    assert structure.small_cut_flags(two_k4) == (False, False)
    two_triangles = Multigraph(6, ((0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)))
    assert structure.small_cut_flags(two_triangles) == (False, False)


def test_fast_scan_matches_enumeration(simple_corpus_12):
    # the cycle-space engine against the exhaustive subset scan on a slice
    # of the corpus
    for g in [g for g in simple_corpus_12 if g.n <= 8][:300]:
        assert list(structure._small_cuts(g)) == cut_oracle.small_cuts(g)
        assert structure.small_cut_flags(g) == cut_oracle.small_cut_flags(g)


def _random_multigraph(rng: random.Random) -> Multigraph:
    # loops, parallel and triple edges; often disconnected
    n = rng.randint(1, 9)
    edges: list[tuple[int, int]] = []
    for _ in range(rng.randint(0, 12)):
        u = rng.randrange(n)
        r = rng.random()
        v = u if r < 0.1 else rng.randrange(n)
        edges.extend([(u, v)] * (3 if r > 0.95 else 2 if r > 0.85 else 1))
    return Multigraph(n, tuple(edges[:12]))


def test_small_cuts_match_oracle_random():
    rng = random.Random(20111)
    for _ in range(2000):
        g = _random_multigraph(rng)
        expected = cut_oracle.small_cuts(g)
        for k in (1, 2, 3):
            want = [c for c in expected if len(c.edges) == k]
            assert structure.enumerate_cuts(g, k) == want
        assert structure.find_first_cut(g) == next(
            (c for c in expected if len(c.edges) < 3 or not c.trivial), None
        )
        assert structure.small_cut_flags(g) == cut_oracle.small_cut_flags(g)


def test_find_first_cut_matches_enumeration():
    # the first bridge, else the first 2-cut, else the first nontrivial 3-cut
    for g in (graphs.prism(), graphs.cycle(5), graphs.path(4), graphs.cube(), graphs.complete(4)):
        cuts = [
            *structure.enumerate_cuts(g, 1),
            *structure.enumerate_cuts(g, 2),
            *(c for c in structure.enumerate_cuts(g, 3) if not c.trivial),
        ]
        assert structure.find_first_cut(g) == next(iter(cuts), None)


def test_planarity():
    assert structure.is_planar(graphs.complete(4))
    assert structure.is_planar(graphs.theta())
    assert structure.is_planar(graphs.dodecahedron())
    assert not structure.is_planar(graphs.petersen())
    assert not structure.is_planar(graphs.complete(5))


def test_embedding_euler_formula(simple_corpus_12):
    # v - e + f = 2 for every connected planar embedding
    for g in [g for g in simple_corpus_12 if g.n <= 8 and g.m > 0][:300]:
        rot = structure.planar_embedding(g)
        rot.validate(g)
        f = len(structure.faces(g, rot))
        assert g.n - g.m + f == 2


def test_embedding_euler_multigraph():
    for g in (
        graphs.theta(),
        Multigraph(1, ((0, 0),)),
        Multigraph(3, ((0, 1), (0, 1), (1, 2), (2, 2))),
    ):
        rot = structure.planar_embedding(g)
        f = len(structure.faces(g, rot))
        assert g.n - g.m + f == 2


def test_faces_examples():
    k4 = graphs.complete(4)
    fs = structure.faces(k4, structure.planar_embedding(k4))
    assert len(fs) == 4
    assert all(f.is_cycle and len(f.vertices) == 3 for f in fs)
    theta = graphs.theta()
    fs = structure.faces(theta, structure.planar_embedding(theta))
    assert len(fs) == 3
    assert sum(f.is_cycle for f in fs) == 3


def test_rotation_validate_rejects():
    g = graphs.prism()
    rot = structure.planar_embedding(g)
    bad = structure.RotationSystem(rot.rotations[:-1])
    with pytest.raises(ValueError):
        bad.validate(g)


def _nx_planar(g: Multigraph) -> bool:
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from((u, v) for u, v in g.edges if u != v)
    return nx.check_planarity(nxg)[0]


def _bipartite33() -> Multigraph:
    return Multigraph(6, tuple((a, b) for a in range(3) for b in range(3, 6)))


def _subdivided(g: Multigraph) -> Multigraph:
    edges = []
    for i, (u, v) in enumerate(g.edges):
        w = g.n + i
        edges += [(u, w), (w, v)]
    return Multigraph(g.n + g.m, tuple(edges))


def _minus_edge(g: Multigraph) -> Multigraph:
    return Multigraph(g.n, g.edges[1:])


@pytest.mark.parametrize(
    "g, planar",
    [
        (graphs.complete(5), False),
        (_bipartite33(), False),
        (_subdivided(_bipartite33()), False),  # exactly 6 vertices of degree 3
        (_subdivided(graphs.complete(5)), False),  # exactly 5 of degree 4
        (graphs.petersen(), False),
        (_minus_edge(graphs.complete(5)), True),
        (_minus_edge(_bipartite33()), True),
        (_subdivided(_minus_edge(_bipartite33())), True),
    ],
    ids=["K5", "K33", "K33-sub", "K5-sub", "petersen", "K5-e", "K33-e", "K33-e-sub"],
)
def test_planarity_boundary(g, planar):
    assert _nx_planar(g) == planar
    assert structure.is_planar(g) == planar


def _random_bounded_degree(rng: random.Random) -> Multigraph:
    # maximum degree up to 5, pendant paths and isolated vertices included;
    # a third get loops and parallel copies on top
    n = rng.randint(1, 12)
    cap = rng.randint(3, 5)
    deg = [0] * n
    edges: list[tuple[int, int]] = []
    for _ in range(rng.randint(0, 4 * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and deg[u] < cap and deg[v] < cap and (min(u, v), max(u, v)) not in edges:
            edges.append((min(u, v), max(u, v)))
            deg[u] += 1
            deg[v] += 1
    if rng.random() < 1 / 3:
        edges += [rng.choice(edges) for _ in range(rng.randint(0, 3))] if edges else []
        edges += [(v, v) for v in rng.sample(range(n), rng.randint(0, min(n, 2)))]
    return Multigraph(n, tuple(edges))


def test_planarity_matches_networkx_random():
    rng = random.Random(5150)
    nonplanar = 0
    for _ in range(1500):
        g = _random_bounded_degree(rng)
        want = _nx_planar(g)
        assert structure.is_planar(g) == want, g
        nonplanar += not want
    assert nonplanar >= 100
