"""Canonical forms for small multigraphs.

Two multigraphs get the same canonical byte string exactly when they are
isomorphic, respecting loops and edge multiplicities.  No external
isomorphism engine is involved.

The vertices are first coloured by iterated degree/neighbourhood refinement.
An ordering of the vertices then encodes the graph as one element per
position: (colour, loops, row), where the row holds the multiplicities to
the vertices at earlier positions.  The canonical form is the largest
encoding over the orderings that, at every position, place a vertex with the
largest element.  Colour is the first key, so those orderings run through
the colour classes from the highest colour down, and each position compares
only the unplaced vertices of its class.  A vertex's row is kept sparse, as
the list of `(-position, multiplicity)` pairs of its placed neighbours; it
compares exactly like the dense row.  The search branches only where several
vertices tie on the largest element, and it abandons a branch as soon as its
prefix falls below the best encoding found.  Intended scale is n <= ~20;
large graphs work, but highly symmetric ones are slow (no automorphism
pruning).

The bytes are n, then per position the loop count and the dense row.  A
value below 255 is one byte; a larger one is the byte 255 followed by the
value in 4 big-endian bytes, so the encoding stays injective.
"""

from __future__ import annotations

from .multigraph import Multigraph


def _refined_colors(
    n: int,
    loops: tuple[int, ...],
    neigh: list[list[tuple[int, int]]],
) -> list[int]:
    """Iterated color refinement; colors are ranks of label-invariant keys."""
    keys = [(len(neigh[v]) + 2 * loops[v], loops[v]) for v in range(n)]
    order = {k: i for i, k in enumerate(sorted(set(keys)))}
    colors = [order[k] for k in keys]
    ncolors = len(order)
    # once every vertex has its own color, refining again keeps the ranks
    while ncolors < n:
        keys2 = [
            (colors[v], tuple(sorted([(colors[u], m) for u, m in neigh[v]])))
            for v in range(n)
        ]
        distinct = set(keys2)
        if len(distinct) == ncolors:  # stable: the ranks would not change
            return colors
        order = {k: i for i, k in enumerate(sorted(distinct))}
        colors = [order[k] for k in keys2]
        ncolors = len(order)
    return colors


def _put(out: bytearray, x: int) -> None:
    if x < 255:
        out.append(x)
    else:
        out.append(255)
        out.extend(x.to_bytes(4, "big"))


def canonical_form(g: Multigraph) -> bytes:
    """Canonical byte string; equal iff isomorphic (loops/multiplicities kept)."""
    n = g.n
    if n == 0:
        return b"\x00"
    loops = [0] * n
    mult: list[dict[int, int]] = [dict() for _ in range(n)]
    for u, v in g.edges:
        if u == v:
            loops[u] += 1
        else:
            mult[u][v] = mult[u].get(v, 0) + 1
            mult[v][u] = mult[v].get(u, 0) + 1
    neigh = [sorted(m.items()) for m in mult]
    colors = _refined_colors(n, tuple(loops), neigh)

    classes: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v in range(n):
        classes[colors[v]].append(v)
    # the class each position draws from: highest color first
    slot = [c for c in reversed(classes) for _ in c]

    rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    placed = [False] * n
    order: list[int] = []
    # rows at the positions of the best ordering; a placed vertex's row
    # stays as it was when the vertex was placed
    best: list[list[tuple[int, int]]] | None = None
    best_order: list[int] = []

    def place(v: int) -> None:
        p = -len(order)
        order.append(v)
        placed[v] = True
        for u, m in neigh[v]:
            if not placed[u]:
                rows[u].append((p, m))

    def unplace() -> None:
        v = order.pop()
        placed[v] = False
        for u, _ in neigh[v]:
            if not placed[u]:
                rows[u].pop()

    def extend(tied: bool) -> None:
        # `tied`: the prefix equals the best encoding's prefix, so a smaller
        # element prunes the branch
        nonlocal best, best_order
        start = len(order)
        while True:
            p = len(order)
            if p == n:
                if not tied:
                    best, best_order = [rows[v][:] for v in order], order[:]
                break
            free = [v for v in slot[p] if not placed[v]]
            if len(free) == 1:
                top = rows[free[0]]
                cands = free
            else:
                top = max([rows[v] for v in free])
                cands = [v for v in free if rows[v] == top]
            if tied:
                if top < best[p]:
                    break
                tied = top == best[p]
            if len(cands) == 1:
                place(cands[0])
                continue
            for v in cands:
                before = best
                place(v)
                extend(tied)
                unplace()
                # a new best extends this prefix and `top`
                tied = tied or best is not before
            break
        while len(order) > start:
            unplace()

    extend(False)
    assert best is not None
    pos = [0] * n
    for p, v in enumerate(best_order):
        pos[v] = p
    out = bytearray()
    _put(out, n)
    for p, v in enumerate(best_order):
        _put(out, loops[v])
        row = [0] * p
        for u, m in neigh[v]:
            if pos[u] < p:
                row[pos[u]] = m
        if p and max(row) >= 255:
            for x in row:
                _put(out, x)
        else:
            out.extend(row)
    return bytes(out)


def are_isomorphic(g: Multigraph, h: Multigraph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    return canonical_form(g) == canonical_form(h)
