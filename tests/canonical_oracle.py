"""Reference canonical form, used to cross-check `jonescheck.canonical`.

This is the earlier implementation kept word for word: one colour
refinement, then a backtracking search that, at every position, builds the
dense adjacency row of every unplaced vertex and keeps those with the
maximal (colour, loops, row) element.  It is slow but simple, and its bytes
are what `jonescheck.canonical.canonical_form` must reproduce for values
below 255 (it cannot encode larger ones).
"""

from __future__ import annotations

from jonescheck.multigraph import Multigraph


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
    while True:
        keys2 = [
            (colors[v], tuple(sorted((colors[u], m) for u, m in neigh[v])))
            for v in range(n)
        ]
        order = {k: i for i, k in enumerate(sorted(set(keys2)))}
        new_colors = [order[k] for k in keys2]
        if len(order) == ncolors:
            return new_colors
        colors, ncolors = new_colors, len(order)


def canonical_form(g: Multigraph) -> bytes:
    """Canonical byte string; equal iff isomorphic (loops/multiplicities kept)."""
    n = g.n
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

    # Backtracking: place vertices one position at a time; at each position
    # keep only the candidates whose (color, loops, row-of-multiplicities)
    # element is lexicographically maximal.  The maximal full encoding over
    # all orderings is the canonical form.
    best: list[tuple] | None = None
    order: list[int] = []
    pos_of: dict[int, int] = {}

    def element(v: int) -> tuple:
        row = [0] * len(order)
        mv = mult[v]
        for u, m in mv.items():
            p = pos_of.get(u)
            if p is not None:
                row[p] = m
        return (colors[v], loops[v], tuple(row))

    def extend(prefix: list[tuple], used: set[int], tied: bool) -> None:
        # `tied` = the prefix so far equals the best encoding's prefix; only
        # then may a locally smaller element prune the branch
        nonlocal best
        if len(order) == n:
            if best is None or prefix > best:
                best = list(prefix)
            return
        cands = [v for v in range(n) if v not in used]
        elems = [(element(v), v) for v in cands]
        top = max(e for e, _ in elems)
        if best is not None and tied:
            p = len(prefix)
            if top < best[p]:
                return
            tied = top == best[p]
        for e, v in elems:
            if e != top:
                continue
            order.append(v)
            pos_of[v] = len(order) - 1
            used.add(v)
            prefix.append(e)
            extend(prefix, used, tied)
            prefix.pop()
            used.remove(v)
            del pos_of[v]
            order.pop()

    if n == 0:
        return b"\x00"
    extend([], set(), True)
    assert best is not None
    out = bytearray([n])
    for color, lp, row in best:
        out.append(lp)
        out.extend(row)
    return bytes(out)
