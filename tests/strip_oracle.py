"""Round-by-round reference for the low-degree reductions, used to
cross-check the one-pass versions in `jonescheck.reduction` and
`jonescheck.harness`.

Each round rebuilds the whole graph with `delete_vertices`, and the scan
for a suppressible vertex starts again at vertex 0 after each suppression.
The witness maps of one suppression (`cycle_to_parent`, `fvs_to_parent`,
`fvs_to_child`) live here too: nothing in the package needs them.
"""

from __future__ import annotations

from jonescheck.multigraph import Multigraph, add_edge, delete_vertices
from jonescheck.reduction import SuppressedVertex
from jonescheck.solvers import FeedbackSet


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



def cycle_to_parent(res: SuppressedVertex, child_edges: tuple[int, ...]) -> tuple[int, ...]:
    """Image of a child cycle under the cycle bijection."""
    out = []
    for e in child_edges:
        if e == res.virtual_edge:
            out.extend(res.removed_edges)
        else:
            out.append(res.edge_map[e])
    return tuple(sorted(out))


def fvs_to_parent(res: SuppressedVertex, s: FeedbackSet) -> FeedbackSet:
    """A feedback set of the child is one of the parent, same size."""
    verts = tuple(sorted(res.vertex_map[v] for v in s.vertices))
    out = FeedbackSet(verts, s.size)
    out.verify(res.parent)
    return out


def fvs_to_child(res: SuppressedVertex, s: FeedbackSet) -> FeedbackSet:
    """Parent feedback set mapped down: v is traded for u if present."""
    inv = {p: c for c, p in enumerate(res.vertex_map)}
    verts = set(s.vertices)
    if res.suppressed in verts:
        verts.discard(res.suppressed)
        verts.add(res.u)
    out = FeedbackSet(tuple(sorted(inv[v] for v in verts)), len(set(verts)))
    out.verify(res.graph)
    return out

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
