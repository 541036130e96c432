"""Reference cycle packing by direct branching, and the reference filter
for vertex-minimal cycles, used to cross-check `jonescheck.solvers`.

`_cp_branch` is the earlier fallback kept word for word: it branches on the
lowest-index vertex on a cycle, either deleting it or packing one of the
cycles through it, which it lists with a recursive depth-first search.  It
never enumerates the cycles of the whole graph, so it shares no code with
`cp_exact` beyond the witness check.

`_vertex_minimal` is the filter `cp_exact` applied to the list of all
cycles (`bruteforce_oracle.all_cycles`) before `enumerate_cycles` listed
the kept ones directly; it is kept word for word as well.
"""

from __future__ import annotations

from jonescheck.multigraph import Multigraph, delete_vertices
from jonescheck.solvers import Cycle, CyclePacking, _check_deadline


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
    cp = CyclePacking(tuple(sorted(best)), len(best))
    cp.verify(g)
    return cp


def _vertex_minimal(
    g: Multigraph, cycles: list[Cycle]
) -> tuple[list[Cycle], list[int]]:
    """Cycles with no other cycle on a subset of their vertices, one per set.

    Keeps the first cycle of each vertex set in the given order and returns
    the kept cycles with their vertex bitmasks.  Drops a cycle on two or
    more vertices when one of them has a loop, and a cycle on three or more
    when its vertex set also induces a chord or a parallel edge: its vertex
    set then induces more edges than its length, and the extra edge closes
    a cycle on a strict subset.  (The plain chordless test is wrong on
    multigraphs: it would drop every 2-cycle of a triple edge.)  Any packing
    can trade a dropped cycle for a kept one on a subset of its vertices, so
    the maximum packing size is unchanged.
    """
    bits = [1 << v for v in range(g.n)]
    nbrs = [0] * g.n  # neighbor bitmask of each vertex
    looped = 0  # vertices with a loop
    doubled = []  # vertex pairs joined by two or more edges
    for u, v in g.edges:
        if u == v:
            looped |= bits[u]
        elif nbrs[u] & bits[v]:
            doubled.append(bits[u] | bits[v])
        else:
            nbrs[u] |= bits[v]
            nbrs[v] |= bits[u]
    seen: set[tuple[int, ...]] = set()  # the rules depend on the vertex set only
    kept: list[Cycle] = []
    masks: list[int] = []
    for c in cycles:
        vs = c.vertices
        if vs in seen:
            continue
        seen.add(vs)
        mk = sum(map(bits.__getitem__, vs))
        if len(vs) > 1 and mk & looped:
            continue
        if len(vs) > 2 and (
            sum((mk & nbrs[v]).bit_count() for v in vs) > 2 * len(vs)
            or any((mk & p) == p for p in doubled)
        ):
            continue
        kept.append(c)
        masks.append(mk)
    return kept, masks
