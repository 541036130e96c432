import random

import pytest

from jonescheck import graphs
from jonescheck.multigraph import (
    Multigraph,
    add_edge,
    contract_side_to_vertex,
    delete_edges,
    delete_vertices,
)


def test_edge_normalization_and_ids():
    g = Multigraph(3, ((2, 0), (1, 1), (0, 1)))
    assert g.edges == ((0, 2), (1, 1), (0, 1))
    assert g.m == 3


def test_degrees_loops_count_twice():
    g = Multigraph(2, ((0, 0), (0, 1)))
    assert g.degree(0) == 3
    assert g.degree(1) == 1
    assert g.loops[0] == (0,)
    assert g.loops[1] == ()


def test_multiplicity():
    g = graphs.theta()
    assert g.edges.count((0, 1)) == 3
    # edges are stored as (min, max), so the reversed pair counts the same
    assert Multigraph(2, ((1, 0),) * 3).edges.count((0, 1)) == 3


def test_subcubic_cubic_simple():
    assert graphs.complete(4).is_cubic()
    assert graphs.cycle(5).is_subcubic()
    assert not graphs.complete(5).is_subcubic()
    assert not graphs.theta().is_simple()
    assert graphs.petersen().is_simple()


def test_components_and_connectivity():
    g = Multigraph(5, ((0, 1), (2, 3)))
    assert g.component_count() == 3
    assert not g.is_connected()
    comps = g.components()
    assert sorted(map(sorted, comps)) == [[0, 1], [2, 3], [4]]
    assert graphs.prism().is_connected()


def test_is_forest():
    assert graphs.path(5).is_forest()
    assert not graphs.cycle(4).is_forest()
    assert not Multigraph(1, ((0, 0),)).is_forest()  # loop is a cycle
    assert not Multigraph(2, ((0, 1), (0, 1))).is_forest()  # parallel pair


def test_is_forest_matches_component_count():
    # the union-find pass against the definition by components; the
    # brute-force fvs oracle calls is_forest, so this keeps it independent
    rng = random.Random(4242)
    for _ in range(2000):
        n = rng.randint(0, 9)
        edges: list[tuple[int, int]] = []
        for _ in range(rng.randint(0, 10) if n else 0):
            u = rng.randrange(n)
            r = rng.random()
            v = u if r < 0.1 else rng.randrange(n)
            edges.extend([(u, v)] * (3 if r > 0.95 else 2 if r > 0.85 else 1))
        g = Multigraph(n, tuple(edges))
        assert g.is_forest() == (g.is_simple() and g.m == g.n - g.component_count()), g


def test_underlying_simple():
    g = Multigraph(3, ((0, 1), (0, 1), (1, 1), (1, 2)))
    s = g.underlying_simple()
    assert s.is_simple()
    assert sorted(s.edges) == [(0, 1), (1, 2)]


def test_delete_vertices_maps():
    g = graphs.cycle(4)
    res = delete_vertices(g, [1])
    assert res.graph.n == 3
    assert res.graph.m == 2
    # vertex_map sends new ids to old ids
    assert [res.vertex_map[v] for v in range(3)] == [0, 2, 3]
    # surviving edges keep a map to their parent ids
    assert all(g.edges[res.edge_map[e]][0] is not None for e in range(res.graph.m))


def test_delete_edges():
    g = graphs.complete(4)
    res = delete_edges(g, [0, 5])
    assert res.graph.m == 4
    assert res.graph.n == 4
    assert res.edge_map == (1, 2, 3, 4)


def test_add_edge_and_isolated():
    g = add_edge(graphs.path(2), 0, 1)
    assert g.edges.count((0, 1)) == 2
    h = Multigraph(g.n + 2, g.edges)
    assert h.n == 4 and h.m == 2


def test_contract_side_to_vertex():
    # prism: contract one triangle side onto a new vertex -> K4
    from isomorphism import are_isomorphic

    prism = graphs.prism()
    res = contract_side_to_vertex(prism, keep=(0, 1, 2))
    assert are_isomorphic(res.graph, graphs.complete(4))
    assert res.vertex_map[3] == -1  # the contraction vertex


def test_contract_errors():
    g = graphs.prism()
    with pytest.raises(ValueError):
        contract_side_to_vertex(g, keep=())
    with pytest.raises(ValueError):
        contract_side_to_vertex(g, keep=tuple(range(6)))  # no cross edges


def test_immutability():
    g = graphs.cycle(3)
    with pytest.raises(Exception):
        g.n = 5
