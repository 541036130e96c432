"""Brute-force feedback vertex sets and cycle packings, used to cross-check
`jonescheck.solvers`.

Both enumerate subsets outright: vertex sets in increasing size for fvs,
sets of cycles in decreasing size for cp.  They share no search with the
branch-and-bound solvers; cp takes its cycles from the full
`enumerate_cycles` list, not the vertex-minimal one `cp_exact` packs.
Each raises `SolverLimit` past its size guard.
"""

from __future__ import annotations

import itertools

from jonescheck.multigraph import Multigraph, delete_vertices
from jonescheck.solvers import CyclePacking, FeedbackSet, SolverLimit, enumerate_cycles


def fvs_bruteforce(g: Multigraph) -> FeedbackSet:
    """Exhaustive subset enumeration in increasing size; oracle, n <= 16."""
    if g.n > 16:
        raise SolverLimit("brute-force FVS guard: n > 16")
    for k in range(g.n + 1):
        for subset in itertools.combinations(range(g.n), k):
            if delete_vertices(g, subset).graph.is_forest():
                fs = FeedbackSet(subset, k, optimal=True)
                fs.verify(g)
                return fs
    raise AssertionError("unreachable: deleting all vertices leaves a forest")


def cp_bruteforce(g: Multigraph, max_cycles: int = 20) -> CyclePacking:
    """Exhaustive search over all subsets of cycles; oracle."""
    cycles = enumerate_cycles(g)
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
    cp = CyclePacking(
        tuple(sorted(cycles[i].edges for i in best)), len(best), optimal=True
    )
    cp.verify(g)
    return cp
