"""Canonical forms for small multigraphs.

Two multigraphs get the same canonical byte string exactly when they are
isomorphic, respecting loops and edge multiplicities.  No external
isomorphism engine is involved.

The vertices are first coloured by iterated degree/neighbourhood refinement.
A round gives each vertex the key (colour, sorted (colour, multiplicity) of
its neighbours), and the new colours are the ranks of the keys.  The classes
are kept as ordered member lists, so a vertex's new colour is the number of
distinct keys in all lower classes plus the rank of its neighbour signature
within its own class.  A singleton class needs no signature, and neither
does a class none of whose members has a neighbour in a class that split in
the round before: its members had equal signatures then, and a colour that
did not split maps to one new colour, so they still do.  A round with no
split ends refinement.  On a regular graph that stalls with every vertex in
one class; there, and only there, the class is split once by the number of
vertices at each distance from a vertex (BFS layers), and refinement goes
on.  Both keys are isomorphism invariants, so the colouring stays canonical.
An ordering of the vertices then encodes the graph as one element per
position: (colour, loops, row), where the row holds the multiplicities to
the vertices at earlier positions.  The canonical form is the largest
encoding over the orderings that, at every position, place a vertex with the
largest element.  Colour is the first key, so those orderings run through
the colour classes from the highest colour down, and each position compares
only the unplaced vertices of its class.  When every class is a single
vertex that order is forced, and the bytes are written without a search.
A vertex's row is kept sparse, as the list of its placed neighbours'
(-position, multiplicity) pairs; it compares exactly like the dense row.
The search branches only where several vertices tie on the largest element,
and it abandons a branch as soon as its prefix falls below the best encoding
found.

Pairs are compared as single integers.  With `big` one more than the largest
multiplicity or loop count, (colour, multiplicity) is `colour * big +
multiplicity` and (-position, multiplicity) is `(n - position) * big +
multiplicity`.  Both maps keep the order of the pairs, so every sort and
comparison, and with them the bytes, come out as with the pairs.

A leaf that ties the best encoding gives an automorphism, best order ->
this order.  The search prunes with these as in McKay & Piperno ("Practical
graph isomorphism, II", J. Symb. Comput. 60, 2014): at a branching it skips
each candidate in the orbit of a searched sibling under the automorphisms
that fix the prefix pointwise, and after a tied leaf it backjumps to the
branching where that leaf left the best order.  Either way the subtree left
out is the image of one already searched, so the maximum, and with it the
bytes, do not change.  There is no refinement after a vertex is placed.
The same argument shows that the automorphisms found generate the whole
group: the best leaves are one orbit of it, and each best leaf left out is
the image of a searched one under a product of them.  `canonical_form`
hands them back on request, for orbit pruning in corpus generation.

The bytes are n, then per position the loop count and the dense row.  A
value below 255 is one byte; a larger one is the byte 255 followed by the
value in 4 big-endian bytes, so the encoding stays injective.
"""

from __future__ import annotations

from .multigraph import Multigraph


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


def _refined_cells(
    n: int, loops: list[int], neigh: list[list[tuple[int, int]]], big: int
) -> list[list[int]]:
    """The colour classes of iterated refinement, lowest colour first, each
    in ascending vertex order.  A class's index is its colour: the pieces of
    a class that splits take its place in the order of their signatures, so
    a vertex's new colour is the number of distinct keys in the lower classes
    plus the rank of its signature within its own class."""
    by_key: dict[tuple[int, int], list[int]] = {}
    for v in range(n):
        by_key.setdefault((len(neigh[v]) + 2 * loops[v], loops[v]), []).append(v)
    cells = []
    for key in sorted(by_key):
        cells.append(by_key[key])
    colors = [0] * n
    moved: list[int] | None = None  # the vertices of the cells that split; None: all
    while len(cells) < n:
        for c, cell in enumerate(cells):
            for v in cell:
                colors[v] = c
        # a cell with no member next to a moved vertex cannot split
        touched: set[int] | None = None
        if moved is not None:
            touched = set()
            for v in moved:
                for u, _ in neigh[v]:
                    touched.add(colors[u])
        new: list[list[int]] = []
        moved = []
        for c, cell in enumerate(cells):
            if len(cell) == 1 or (touched is not None and c not in touched):
                new.append(cell)
                continue
            # plain loops: a comprehension per vertex costs more than its work
            sigs: list[tuple[int, ...]] = []
            for v in cell:
                sig = []
                for u, m in neigh[v]:
                    sig.append(colors[u] * big + m)
                sig.sort()
                sigs.append(tuple(sig))
            distinct = set(sigs)
            if len(distinct) == 1:
                new.append(cell)
                continue
            pieces: dict[tuple[int, ...], list[int]] = {}
            for sig in sorted(distinct):
                pieces[sig] = []
            for v, s in zip(cell, sigs):
                pieces[s].append(v)
            new += pieces.values()
            moved += cell
        if not moved:
            if len(cells) > 1:
                break
            # one class (a regular graph): split once by distance layers.
            # With one color, the sorted colors at each distance are just
            # the layer sizes.
            by_layers: dict[tuple[int, ...], list[int]] = {}
            for v in range(n):
                by_layers.setdefault(_layer_sizes(n, neigh, v), []).append(v)
            if len(by_layers) == 1:
                break
            new = [by_layers[k] for k in sorted(by_layers)]
            moved = None
        cells = new
    return cells


def _find(root: dict[int, int], x: int) -> int:
    """Union-find root of `x`; a vertex missing from `root` is its own root."""
    while x in root:
        up = root[x]
        if up in root:
            up = root[x] = root[up]
        x = up
    return x


def _put(out: bytearray, x: int) -> None:
    if x < 255:
        out.append(x)
    else:
        out.append(255)
        out.extend(x.to_bytes(4, "big"))


def _search(
    n: int,
    neigh: list[list[tuple[int, int]]],
    cells: list[list[int]],
    big: int,
    autos: list[list[tuple[int, int]]],
) -> list[int]:
    """The order of the largest encoding.  Appends to `autos` the
    automorphisms found at tied leaves, each as the (vertex, image) pairs of
    the vertices it moves."""
    # the class each position draws from, highest color first, and whether
    # the position is the last of its class (one vertex left to place)
    slot: list[list[int]] = []
    last: list[bool] = []
    for cell in reversed(cells):
        slot += [cell] * len(cell)
        last += [False] * (len(cell) - 1) + [True]

    # a row entry is (n - position) * big + multiplicity
    rows: list[list[int]] = [[] for _ in range(n)]
    placed = [False] * n
    order: list[int] = []
    # rows at the positions of the best ordering; a placed vertex's row
    # stays as it was when the vertex was placed
    best: list[list[int]] = []
    best_order: list[int] = []

    def place(v: int) -> None:
        key = (n - len(order)) * big
        order.append(v)
        placed[v] = True
        for u, m in neigh[v]:
            if not placed[u]:
                rows[u].append(key + m)

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
        start = p = len(order)
        jump = n
        while True:
            if p == n:
                if not tied:
                    best = []
                    for v in order:
                        best.append(rows[v][:])
                    best_order = order[:]
                    break
                # the same encoding as the best: best_order[i] -> order[i] is
                # an automorphism, and the subtree below the position where
                # the two orders part is its image of a subtree already searched
                jump = next(i for i in range(n) if best_order[i] != order[i])
                autos.append(
                    [(a, b) for a, b in zip(best_order[jump:], order[jump:]) if a != b]
                )
                break
            cell = slot[p]
            if last[p]:
                for v in cell:
                    if not placed[v]:
                        break
                if tied and rows[v] != best[p]:
                    if rows[v] < best[p]:
                        break
                    tied = False
                place(v)
                p += 1
                continue
            # the unplaced vertices of the class with the largest row
            cands = []
            for v in cell:
                if not placed[v]:
                    if not cands or rows[v] > top:
                        top = rows[v]
                        cands = [v]
                    elif rows[v] == top:
                        cands.append(v)
            if tied:
                if top < best[p]:
                    break
                tied = top == best[p]
            if len(cands) == 1:
                place(cands[0])
                p += 1
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
                rv = _find(root, v)
                if rv in searched:
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
                searched.add(rv)
            break
        while len(order) > start:
            unplace()
        return jump

    extend(False)
    return best_order


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
    neigh: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    mult: dict[tuple[int, int], int] = {}
    for e in g.edges:
        mult[e] = mult.get(e, 0) + 1
    for (u, v), m in mult.items():
        if u == v:
            loops[u] = m
        else:
            neigh[u].append((v, m))
            neigh[v].append((u, m))
    for nb in neigh:
        nb.sort()
    # every multiplicity and loop count is below `big`
    big = 1 + max(mult.values(), default=0)
    cells = _refined_cells(n, loops, neigh, big)
    if len(cells) == n:
        # a discrete colouring forces the order, and there is no automorphism
        best_order = []
        for cell in reversed(cells):
            best_order += cell
    else:
        autos: list[list[tuple[int, int]]] = []
        best_order = _search(n, neigh, cells, big, autos)
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
    if big <= 255:
        # one byte per value: position p's loop count, then its row of p
        start = len(out)
        out += bytes(n * (n + 1) // 2)
        for p, v in enumerate(best_order):
            out[start] = loops[v]
            start += 1
            for u, m in neigh[v]:
                q = pos[u]
                if q < p:
                    out[start + q] = m
            start += p
        return bytes(out)
    for p, v in enumerate(best_order):
        _put(out, loops[v])
        row = [0] * p
        for u, m in neigh[v]:
            if pos[u] < p:
                row[pos[u]] = m
        for x in row:
            _put(out, x)
    return bytes(out)
