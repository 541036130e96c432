"""Reference cycle packing by direct branching, used to cross-check
`jonescheck.solvers.cp_exact`.

This is the earlier fallback kept word for word: it branches on the
lowest-index vertex on a cycle, either deleting it or packing one of the
cycles through it, which it lists with a recursive depth-first search.  It
never enumerates the cycles of the whole graph, so it shares no code with
`cp_exact` beyond the witness check.
"""

from __future__ import annotations

from jonescheck.multigraph import Multigraph, delete_vertices
from jonescheck.solvers import CyclePacking, _check_deadline


def _cycles_through(adj, loops, v, alive) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Simple cycles through v in the residual graph, as (edge ids, vertices)."""
    out = []
    if loops.get(v):
        out.append(((loops[v][0],), (v,)))
    path_edges: list[int] = []
    on_path = [v]
    used: set[int] = set()

    def dfs(x: int) -> None:
        for y, eid in adj[x]:
            if y not in alive or eid in used:
                continue
            if y == v and path_edges:
                if path_edges[0] < eid:
                    out.append((tuple(path_edges) + (eid,), tuple(sorted(on_path))))
            elif y != v and y not in on_path:
                path_edges.append(eid)
                on_path.append(y)
                used.add(eid)
                dfs(y)
                used.discard(eid)
                on_path.pop()
                path_edges.pop()

    dfs(v)
    return out


def _cp_branch(g: Multigraph, deadline: float | None) -> CyclePacking:
    """Fallback direct branching for graphs whose cycle count trips the cap.

    Branches on the lowest-index vertex on a cycle: either it is unused
    (delete it) or some cycle through it joins the packing.
    """
    adj = g.adjacency
    loops = {v: list(g.loops[v]) for v in range(g.n)}
    best: list[tuple[int, ...]] = []

    def cyclomatic(alive: set[int]) -> int:
        sub = delete_vertices(g, [v for v in range(g.n) if v not in alive]).graph
        return sub.m - sub.n + sub.component_count()

    def search(alive: set[int], packed: list[tuple[int, ...]]) -> None:
        nonlocal best
        _check_deadline(deadline)
        if len(packed) > len(best):
            best = list(packed)
        bound = cyclomatic(alive)
        if len(packed) + bound <= len(best):
            return
        v = None
        for x in sorted(alive):
            if loops.get(x) or any(
                y in alive for y, _ in adj[x]
            ):
                cyc = _cycles_through(adj, loops, x, alive)
                if cyc:
                    v = x
                    break
        if v is None:
            return
        for ids, verts in cyc:
            packed.append(ids)
            search(alive - set(verts), packed)
            packed.pop()
        search(alive - {v}, packed)

    search(set(range(g.n)), [])
    cp = CyclePacking(tuple(sorted(best)), len(best), optimal=True)
    cp.verify(g)
    return cp
