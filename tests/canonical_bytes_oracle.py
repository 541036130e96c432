"""Reference canonical form, used to cross-check `jonescheck.canonical`
byte for byte.

`_layer_sizes`, `_refined_colors` and `canonical_form` are the earlier
kernel kept word for word: refinement ranks all n keys of tuples in every
round, rows are lists of (-position, multiplicity) pairs, and the search
runs even when the colouring is discrete.  `jonescheck.canonical` must give
the same bytes and the same list of automorphism generators on every input.
"""

from __future__ import annotations

from jonescheck.canonical import _find, _put
from jonescheck.multigraph import Multigraph


def _layer_sizes(n: int, neigh: list[list[tuple[int, int]]], v: int) -> tuple[int, ...]:
    """How many vertices lie at distance 1, 2, ... from `v`."""
    seen = [False] * n
    seen[v] = True
    frontier = [v]
    sizes = []
    while frontier:
        nxt = []
        for x in frontier:
            for u, _ in neigh[x]:
                if not seen[u]:
                    seen[u] = True
                    nxt.append(u)
        if nxt:
            sizes.append(len(nxt))
        frontier = nxt
    return tuple(sizes)


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
            if ncolors > 1:
                return colors
            # one class (a regular graph): split once by distance layers.
            # With one color, the sorted colors at each distance are just
            # the layer sizes.
            keys2 = [(0, _layer_sizes(n, neigh, v)) for v in range(n)]
            distinct = set(keys2)
            if len(distinct) == 1:
                return colors
        order = {k: i for i, k in enumerate(sorted(distinct))}
        colors = [order[k] for k in keys2]
        ncolors = len(order)
    return colors


def canonical_form(
    g: Multigraph, automorphisms: list[tuple[int, ...]] | None = None
) -> bytes:
    """Canonical byte string; equal iff isomorphic (loops/multiplicities kept).
    Appends to `automorphisms`, if given, generators of the automorphism
    group, each as the tuple of vertex images."""
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
    # automorphisms found at tied leaves, each as the (vertex, image) pairs
    # of the vertices it moves
    autos: list[list[tuple[int, int]]] = []

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

    def extend(tied: bool) -> int:
        # `tied`: the prefix equals the best encoding's prefix, so a smaller
        # element prunes the branch.  Returns the position of the branching
        # to backjump to, or n for none.
        nonlocal best, best_order
        start = len(order)
        jump = n
        while True:
            p = len(order)
            if p == n:
                if not tied:
                    best, best_order = [rows[v][:] for v in order], order[:]
                    break
                # the same encoding as the best: best_order[i] -> order[i] is
                # an automorphism, and the subtree below the position where
                # the two orders part is its image of a subtree already searched
                jump = next(i for i in range(n) if best_order[i] != order[i])
                autos.append(
                    [(a, b) for a, b in zip(best_order[jump:], order[jump:]) if a != b]
                )
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
            # orbits of the automorphisms that fix the prefix pointwise; a
            # candidate in the orbit of a searched one has an isomorphic subtree
            root: dict[int, int] = {}
            merged = 0
            searched: set[int] = set()
            for v in cands:
                if merged < len(autos):
                    for moved in autos[merged:]:
                        if not any(placed[a] for a, _ in moved):
                            for a, b in moved:
                                ra, rb = _find(root, a), _find(root, b)
                                if ra != rb:
                                    root[ra] = rb
                    merged = len(autos)
                    searched = {_find(root, u) for u in searched}
                if _find(root, v) in searched:
                    continue
                before = best
                place(v)
                j = extend(tied)
                unplace()
                # a new best extends this prefix and `top`
                tied = tied or best is not before
                if j < p:
                    jump = j
                    break
                searched.add(_find(root, v))
            break
        while len(order) > start:
            unplace()
        return jump

    extend(False)
    assert best is not None
    if automorphisms is not None:
        for moved in autos:
            image = list(range(n))
            for a, b in moved:
                image[a] = b
            automorphisms.append(tuple(image))
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
