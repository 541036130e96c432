import itertools
import random
import time
from collections import Counter

import networkx as nx
import pytest

import connectivity_oracle
import cut_oracle
import planarity_oracle
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
        want = nx.node_connectivity(planarity_oracle.nx_graph(g))
        assert structure.vertex_connectivity(g) == want, g


def test_enumerate_cuts_cycle():
    cuts = [c for c in cut_oracle.scan_cuts(graphs.cycle(4)) if len(c.edges) == 2]
    # a 4-cycle has no bridges; every pair of edges is a minimal 2-cut
    assert all(len(c.edges) == 2 for c in cuts)
    assert len(cuts) == 6
    assert all(not c.cyclic for c in cuts)


def test_prism_rung_cut():
    prism = graphs.prism()
    cuts3 = [c for c in cut_oracle.scan_cuts(prism) if len(c.edges) == 3 and not c.trivial]
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
        assert cut_oracle.scan_cuts(g) == cut_oracle.small_cuts(g)
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


_K4 = graphs.complete(4).edges

# minimal 3-cuts whose edges meet at one vertex, which pin triviality where
# a local degree count could be fooled: a loop at the meeting vertex
# (trivial), a vertex of degree 3 on three parallel edges (trivial), and two
# K4s joined by three parallel edges (nontrivial, though the edges meet)
_TRIVIALITY_CASES = (
    Multigraph(4, _K4 + ((3, 3),)),
    Multigraph(5, ((3, 4),) * 3 + _K4),
    Multigraph(8, ((3, 4),) * 3 + _K4 + tuple((u + 4, v + 4) for u, v in _K4)),
)


def test_small_cuts_match_oracle_random():
    rng = random.Random(20111)
    for g in _TRIVIALITY_CASES + tuple(_random_multigraph(rng) for _ in range(2000)):
        expected = cut_oracle.small_cuts(g)
        cuts = cut_oracle.scan_cuts(g)
        for k in (1, 2, 3):
            want = [c for c in expected if len(c.edges) == k]
            assert [c for c in cuts if len(c.edges) == k] == want
        assert structure.find_first_cut(g) == next(
            (c for c in expected if len(c.edges) < 3 or not c.trivial), None
        )
        assert structure.small_cut_flags(g) == cut_oracle.small_cut_flags(g)


def test_flags_match_traced_sides_corpora(simple_corpus_12, multi_corpus_8):
    # the scan's sides, triviality and cycles, and the flags read off them,
    # against cuts whose sides are traced by a traversal
    for g in _TRIVIALITY_CASES + tuple(simple_corpus_12 + multi_corpus_8):
        traced = cut_oracle.traced_cuts(g)
        assert cut_oracle.scan_cuts(g) == traced, g
        assert structure.small_cut_flags(g) == cut_oracle.flags_of_cuts(g, traced), g


def test_flags_long_cycle():
    # C_400 has 79,800 minimal 2-cuts; two loops at one vertex make each of
    # them a candidate for a cut with a cycle on both sides
    c400 = graphs.cycle(400)
    for g in (c400, Multigraph(400, c400.edges + ((0, 0), (0, 0)))):
        t0 = time.perf_counter()
        assert structure.small_cut_flags(g) == (False, True)
        assert time.perf_counter() - t0 < 1.0


def test_find_first_cut_corpora(simple_corpus_12, multi_corpus_8):
    # the first hit of the traced cut list, which the tests above check
    # against the oracle
    for g in simple_corpus_12 + multi_corpus_8:
        assert structure.find_first_cut(g) == next(
            (c for c in cut_oracle.traced_cuts(g) if len(c.edges) < 3 or not c.trivial), None
        )


def test_find_first_cut_matches_enumeration():
    # the first bridge, else the first 2-cut, else the first nontrivial 3-cut
    for g in (graphs.prism(), graphs.cycle(5), graphs.path(4), graphs.cube(), graphs.complete(4)):
        small = cut_oracle.scan_cuts(g)
        cuts = [
            *(c for c in small if len(c.edges) == 1),
            *(c for c in small if len(c.edges) == 2),
            *(c for c in small if len(c.edges) == 3 and not c.trivial),
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
    assert planarity_oracle.is_planar(g) == planar
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


def _relabelled(g: Multigraph, rng: random.Random) -> Multigraph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Multigraph(g.n, tuple((perm[u], perm[v]) for u, v in g.edges))


def _stacked(rng: random.Random, n: int) -> tuple[Multigraph, list[tuple[int, int, int]]]:
    """A stacked triangulation and its faces: K4, then each new vertex put
    into a random face and joined to its three corners.  It is maximal
    planar and 3-connected, with degrees up to n - 1."""
    tri = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for v in range(4, n):
        a, b, c = tri.pop(rng.randrange(len(tri)))
        edges += [(a, v), (b, v), (c, v)]
        tri += [(a, b, v), (a, c, v), (b, c, v)]
    return Multigraph(n, tuple(edges)), tri


def _dual(tri: list[tuple[int, int, int]]) -> Multigraph:
    """The dual of a triangulation: a 3-connected cubic planar graph."""
    by_edge: dict[tuple[int, int], list[int]] = {}
    for f, (a, b, c) in enumerate(tri):
        for e in ((a, b), (a, c), (b, c)):
            by_edge.setdefault(tuple(sorted(e)), []).append(f)
    return Multigraph(len(tri), tuple(tuple(fs) for fs in by_edge.values()))


def _random_subdivision(rng: random.Random, g: Multigraph) -> Multigraph:
    """g with each edge replaced by a path of one to three edges."""
    n, edges = g.n, []
    for u, v in g.edges:
        for _ in range(rng.randint(0, 2)):
            edges.append((u, n))
            u, n = n, n + 1
        edges.append((u, v))
    return Multigraph(n, tuple(edges))


def _random_composite(rng: random.Random) -> Multigraph:
    """Up to 30 vertices: pieces kept apart or glued at a cut vertex, among
    them K5 and K3,3 subdivisions and triangulations with one extra edge;
    relabelled, and often with loops and parallel edges on top."""
    n, edges = 0, []
    while True:
        r = rng.random()
        if r < 0.3:
            piece = _random_bounded_degree(rng)
        elif r < 0.4:
            piece = _random_subdivision(rng, rng.choice([graphs.complete(5), _bipartite33()]))
        elif r < 0.65:
            piece, _ = _stacked(rng, rng.randint(4, 10))
            missing = [e for e in itertools.combinations(range(piece.n), 2) if e not in piece.edges]
            if missing and rng.random() < 0.2:  # a maximal planar graph plus an edge is not planar
                piece = Multigraph(piece.n, piece.edges + (rng.choice(missing),))
        elif r < 0.85:
            piece = graphs.cycle(rng.randint(3, 8))
        else:
            piece = graphs.path(rng.randint(1, 5))
        if n + piece.n > 30:
            break
        # glue the piece's vertex 0 onto a vertex already there, or not
        glue = n and rng.random() < 0.6
        label = [rng.randrange(n) if glue else n] + [n + i - glue for i in range(1, piece.n)]
        edges += [(label[u], label[v]) for u, v in piece.edges]
        n += piece.n - glue
    if edges and rng.random() < 0.5:
        edges += [rng.choice(edges) for _ in range(rng.randint(1, 3))]
        edges += [(v, v) for v in rng.sample(range(n), rng.randint(1, min(n, 3)))]
    return _relabelled(Multigraph(n, tuple(edges)), rng)


def _three_connected(rng: random.Random) -> list[Multigraph]:
    """3-connected planar graphs up to n = 30, each relabelled twice."""
    named = [graphs.complete(4), graphs.prism(), graphs.cube(), graphs.dodecahedron()]
    named += [graphs.wheel(k) for k in (3, 5, 8)] + [_octahedron()]
    pool = named
    for _ in range(30):
        tri, faces = _stacked(rng, rng.randint(5, 17))
        pool += [tri, _dual(faces)]
    return [_relabelled(g, rng) for g in pool for _ in range(2)]


def _assert_euler(g: Multigraph, fs: list[structure.Face]) -> None:
    """n - m + f = 2 on every component with an edge."""
    label = g._component_labels
    comps = Counter(label)
    edges = Counter(label[u] for u, _ in g.edges)
    per_face = Counter(label[g.edges[f.walk[0][0]][0]] for f in fs)
    for c, m in edges.items():
        assert comps[c] - m + per_face[c] == 2, (g, c)


def test_planarity_matches_networkx_random():
    # the oracle decides planarity; planar graphs must get an embedding
    # with the right face count, and 3-connected ones the oracle's faces,
    # which are unique (Whitney)
    rng = random.Random(5150)
    pool = [_random_bounded_degree(rng) for _ in range(1500)]
    pool += [_random_composite(rng) for _ in range(300)]
    pool += _three_connected(rng)
    nonplanar = compared = 0
    for g in pool:
        want = planarity_oracle.is_planar(g)
        assert structure.is_planar(g) == want, g
        nonplanar += not want
        if not want:
            with pytest.raises(ValueError):
                structure.planar_embedding(g)
            continue
        rot = structure.planar_embedding(g)
        rot.validate(g)
        assert rot == structure.planar_embedding(g)  # deterministic
        fs = structure.faces(g, rot)
        _assert_euler(g, fs)
        if g.is_simple() and min(g.degrees()) >= 3 and structure.vertex_connectivity(g) >= 3:
            oracle = structure.faces(g, planarity_oracle.planar_embedding(g))
            assert sorted(f.vertices for f in fs) == sorted(f.vertices for f in oracle), g
            compared += 1
    assert nonplanar >= 200
    assert compared >= 100
