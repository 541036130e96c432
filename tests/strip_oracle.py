"""Round-by-round reference for the low-degree reductions, used to
cross-check the one-pass versions in `jonescheck.reduction` and
`jonescheck.harness`.

Each round rebuilds the whole graph with `delete_vertices`, and the scan
for a suppressible vertex starts again at vertex 0 after each suppression.
"""

from __future__ import annotations

from jonescheck.multigraph import Multigraph, add_edge, delete_vertices
from jonescheck.reduction import SuppressedVertex


def suppress_degree2(g: Multigraph, v: int) -> SuppressedVertex:
    inc = [(eid, u if w == v else w) for eid, (u, w) in enumerate(g.edges) if v in (u, w)]
    if g.degree(v) != 2 or len(inc) != 2:
        raise ValueError(f"vertex {v} does not have two non-loop incident edges")
    (e1, u), (e2, w) = inc
    res = delete_vertices(g, (v,))
    inv = {p: c for c, p in enumerate(res.vertex_map)}
    child = add_edge(res.graph, inv[u], inv[w])  # u = w gives a loop
    return SuppressedVertex(
        parent=g,
        graph=child,
        suppressed=v,
        u=u,
        w=w,
        vertex_map=res.vertex_map,
        edge_map=res.edge_map + (-1,),
        virtual_edge=child.m - 1,
        removed_edges=(e1, e2),
    )


def delete_degree_le1(g: Multigraph):
    """Delete every degree <= 1 vertex, round after round, until none is left."""
    cur = g
    vmap = tuple(range(g.n))
    emap = tuple(range(g.m))
    while True:
        low = [v for v in range(cur.n) if cur.degree(v) <= 1]
        if not low:
            return cur, vmap, emap
        res = delete_vertices(cur, low)
        vmap = tuple(vmap[v] for v in res.vertex_map)
        emap = tuple(emap[e] for e in res.edge_map)
        cur = res.graph


def strip_low_degree(g: Multigraph) -> tuple[Multigraph, bool]:
    """Degree-<=1 deletion, then suppression of the first loop-free degree-2
    vertex until none is left."""
    cur, _, _ = delete_degree_le1(g)
    changed = cur.n != g.n
    while True:
        v = next(
            (x for x in range(cur.n) if cur.degree(x) == 2 and not cur.loops[x]),
            None,
        )
        if v is None:
            return cur, changed
        cur = suppress_degree2(cur, v).graph
        changed = True
