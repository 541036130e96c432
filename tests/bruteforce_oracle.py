"""Brute-force feedback vertex sets and cycle packings, and the list of
all simple cycles, used to cross-check `jonescheck.solvers`.

Both solvers enumerate subsets outright: vertex sets in increasing size for
fvs, sets of cycles in decreasing size for cp.  They share no search with
the branch-and-bound solvers; cp takes its cycles from `all_cycles`, not
from the vertex-minimal list `solvers.enumerate_cycles` gives `cp_exact`.
Each raises `SolverLimit` past its size guard.
"""

from __future__ import annotations

import itertools

from jonescheck.multigraph import Multigraph, delete_vertices
from jonescheck.solvers import (
    Cycle,
    CyclePacking,
    FeedbackSet,
    SolverLimit,
    _check_deadline,
)


def all_cycles(g: Multigraph, deadline: float | None = None) -> list[Cycle]:
    """Simple cycles, each exactly once, deterministic order.

    Loops are cycles of length 1 and parallel pairs cycles of length 2.
    A cycle is reported from its minimal vertex; the traversal direction is
    fixed by requiring first edge id < last edge id, as in
    `solvers.enumerate_cycles`, whose list is the vertex-minimal part of
    this one.  The `deadline` (a `time.monotonic()` value) is checked every
    1,024 steps of the search.
    """
    out: list[Cycle] = []
    for v in range(g.n):
        for eid in g.loops[v]:
            out.append(Cycle((eid,), (v,)))
    adj = g.adjacency
    steps = 0
    for root in range(g.n):
        # depth-first search with an explicit stack of adjacency iterators,
        # so long cycles do not exhaust the interpreter's recursion limit
        path_edges: list[int] = []
        path_verts: list[int] = [root]
        on_path = {root}
        frames = [iter(adj[root])]
        while frames:
            for y, eid in frames[-1]:
                if path_edges and eid == path_edges[-1]:
                    continue  # the edge the path arrived by
                if y == root and path_edges:
                    if path_edges[0] < eid:
                        out.append(
                            Cycle(tuple(path_edges) + (eid,), tuple(sorted(on_path)))
                        )
                elif y > root and y not in on_path:
                    steps += 1
                    if not steps & 1023:
                        _check_deadline(deadline)
                    path_edges.append(eid)
                    path_verts.append(y)
                    on_path.add(y)
                    frames.append(iter(adj[y]))
                    break
            else:
                frames.pop()
                if path_edges:
                    path_edges.pop()
                    on_path.remove(path_verts.pop())
    return out


def fvs_bruteforce(g: Multigraph) -> FeedbackSet:
    """Exhaustive subset enumeration in increasing size; oracle, n <= 16."""
    if g.n > 16:
        raise SolverLimit("brute-force FVS guard: n > 16")
    for k in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            if delete_vertices(g, subset).graph.is_forest():
                fs = FeedbackSet(subset, k)
                fs.verify(g)
                return fs
    raise AssertionError("unreachable: deleting all vertices leaves a forest")


def cp_bruteforce(g: Multigraph, max_cycles: int = 20) -> CyclePacking:
    """Exhaustive search over all subsets of cycles; oracle."""
    cycles = all_cycles(g)
    if len(cycles) > max_cycles:
        raise SolverLimit(f"brute-force CP guard: {len(cycles)} cycles > {max_cycles}")
    best: tuple[int, ...] = ()
    vsets = [set(c.vertices) for c in cycles]
    # disjoint cycles are independent in the cycle space, so the cyclomatic
    # number caps the packing size; sizes above it need not be enumerated
    rmax = min(len(cycles), g.m - g.n + g.component_count())
    for r in range(rmax, 0, -1):
        for subset in itertools.combinations(range(len(cycles)), r):
            used: set[int] = set()
            ok = True
            for i in subset:
                if used & vsets[i]:
                    ok = False
                    break
                used |= vsets[i]
            if ok:
                best = subset
                break
        if best:
            break
    cp = CyclePacking(tuple(sorted(cycles[i].edges for i in best)), len(best))
    cp.verify(g)
    return cp
