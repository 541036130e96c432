"""Planarity from networkx's left-right-criterion implementation, the
reference for the path-addition test and embedding in `jonescheck.structure`.

networkx is a test dependency only; the package itself never imports it.
"""

from __future__ import annotations

import networkx as nx

from jonescheck.multigraph import Multigraph
from jonescheck.structure import RotationSystem, _rotation_system


def nx_graph(g: Multigraph) -> nx.Graph:
    """The underlying simple graph of g as a networkx graph."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(g.n))
    nxg.add_edges_from((u, v) for u, v in g.edges if u != v)
    return nxg


def is_planar(g: Multigraph) -> bool:
    ok, _ = nx.check_planarity(nx_graph(g))
    return ok


def planar_embedding(g: Multigraph) -> RotationSystem:
    """A planar rotation system for g from networkx's embedding, with loops
    and parallel edges put back as the package does; raises ValueError if g
    is non-planar."""
    nxg = nx_graph(g)
    ok, emb = nx.check_planarity(nxg)
    if not ok:
        raise ValueError("graph is not planar")
    order = [list(emb.neighbors_cw_order(v)) if nxg.degree(v) else [] for v in range(g.n)]
    return _rotation_system(g, order)
