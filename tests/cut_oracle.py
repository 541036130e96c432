"""References for small edge cuts, used to cross-check the cycle-space
scan in `jonescheck.structure`.

`small_cuts` and `small_cut_flags` remove edge subsets and recompute
components with a union-find, so they are slow but follow the definitions
word for word.  `traced_cuts` takes the scan's edge sets and traces each
cut's sides by a traversal, as the scan's listing once did, and
`flags_of_cuts` is the flags routine over such traced cuts.  `scan_cuts`
lists the scan's own cuts with their sides, for tests that want them.
"""

from __future__ import annotations

import itertools
from collections import Counter
from typing import Iterable

from jonescheck import structure
from jonescheck.multigraph import Multigraph
from jonescheck.structure import EdgeCut


def _parts(g: Multigraph, removed: tuple[int, ...]) -> list[tuple[tuple[int, ...], bool]]:
    """Components of g minus the `removed` edge ids, sorted, each with
    whether it contains a cycle (a loop and a parallel pair count)."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    closing = []  # an endpoint of each edge that closes a cycle
    for eid, (u, v) in enumerate(g.edges):
        if eid in removed:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            closing.append(u)
        else:
            parent[ru] = rv
    comps: dict[int, list[int]] = {}
    for v in range(g.n):
        comps.setdefault(find(v), []).append(v)
    cyclic = {find(u) for u in closing}
    return sorted((tuple(vs), r in cyclic) for r, vs in comps.items())


def small_cuts(g: Multigraph) -> list[EdgeCut]:
    """All minimal edge cuts with 1-3 edges, sorted by (size, edge ids)."""
    base = len(_parts(g, ()))
    disconnecting: set[tuple[int, ...]] = set()
    cuts = []
    for k in (1, 2, 3):
        for subset in itertools.combinations(range(g.m), k):
            parts = _parts(g, subset)
            if len(parts) == base:
                continue
            disconnecting.add(subset)
            if any(
                sub in disconnecting
                for r in range(1, k)
                for sub in itertools.combinations(subset, r)
            ):
                continue
            # a minimal cut splits one component in two
            ends = {v for e in subset for v in g.edges[e]}
            sides = [p for p in parts if ends & set(p[0])]
            assert len(sides) == 2
            (side_a, cyc_a), (side_b, cyc_b) = sides
            cuts.append(
                EdgeCut(
                    edges=subset,
                    side_a=side_a,
                    side_b=side_b,
                    trivial=min(len(side_a), len(side_b)) <= 1,
                    cyclic=cyc_a and cyc_b,
                )
            )
    return cuts


def small_cut_flags(g: Multigraph) -> tuple[bool, bool]:
    """(essentially_4ec, cyclically_4ec) by definition: no removal of <= 3
    edges (zero included) leaves two components with >= 2 vertices each, or
    two components that each contain a cycle."""
    essential = cyclic = True
    for k in range(4):
        for subset in itertools.combinations(range(g.m), k):
            parts = _parts(g, subset)
            if sum(len(vs) >= 2 for vs, _ in parts) >= 2:
                essential = False
            if sum(cyc for _, cyc in parts) >= 2:
                cyclic = False
            if not (essential or cyclic):
                return essential, cyclic
    return essential, cyclic


def flags_of_cuts(g: Multigraph, cuts: Iterable[EdgeCut]) -> tuple[bool, bool]:
    """`small_cut_flags` of g, read off all the minimal cuts of g with 1-3
    edges, such as those of `traced_cuts(g)`."""
    labels = g._component_labels
    sizes = Counter(labels)
    edges = Counter(labels[u] for u, _ in g.edges)
    essential = sum(size >= 2 for size in sizes.values()) <= 1
    cyclic = sum(edges[c] >= size for c, size in sizes.items()) <= 1
    for cut in cuts:
        if not (essential or cyclic):
            break
        essential = essential and cut.trivial
        cyclic = cyclic and not cut.cyclic
    return essential, cyclic


def traced_cuts(g: Multigraph) -> list[EdgeCut]:
    """The minimal cuts that `structure._cut_scan` lists, from its
    `_cut_edge_sets`, each with its sides traced by one traversal.  A
    minimal cut splits one component into two connected sides; a side holds
    a cycle exactly when its edges, loops included, number at least its
    vertices."""
    adj = g.adjacency
    deg = g.degrees()
    labels = g._component_labels
    members = g.components()
    comp_edges = Counter(labels[u] for u, _ in g.edges)
    cuts = []
    for edges in structure._cut_scan(g)[1]:
        banned = set(edges)
        start = g.edges[edges[0]][0]
        seen = {start}
        stack = [start]
        while stack:
            for y, eid in adj[stack.pop()]:
                if y not in seen and eid not in banned:
                    seen.add(y)
                    stack.append(y)
        inner = (sum(deg[v] for v in seen) - len(edges)) // 2
        outer = comp_edges[labels[start]] - len(edges) - inner
        side = tuple(sorted(seen))
        rest = tuple(v for v in members[labels[start]] if v not in seen)
        side_a, side_b = sorted((side, rest))
        cuts.append(
            EdgeCut(
                edges=edges,
                side_a=side_a,
                side_b=side_b,
                trivial=min(len(side), len(rest)) <= 1,
                cyclic=inner >= len(side) and outer >= len(rest),
            )
        )
    return cuts


def scan_cuts(g: Multigraph) -> list[EdgeCut]:
    """Every minimal edge cut with 1-3 edges from `structure._cut_scan`,
    sorted by (size, edge ids), each with its sides."""
    _, cuts, kind, sides = structure._cut_scan(g)
    return [EdgeCut(c, *sides(c), *kind(c)) for c in cuts]
