"""Graphs shared by the tests: random cubic planar graphs and two composites."""

from __future__ import annotations

import random

from jonescheck.multigraph import Multigraph


def random_cubic_planar(n: int, rng: random.Random) -> Multigraph:
    """Cubic planar graph on an even n >= 4: from K4, each step subdivides
    two edges on the boundary of a random face and joins the two new
    vertices across it.  Faces are kept as vertex lists in one orientation."""
    faces = [[0, 1, 2], [0, 2, 3], [0, 3, 1], [1, 3, 2]]
    edges = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    for x in range(4, n, 2):
        f = rng.choice(faces)
        i, j = rng.sample(range(len(f)), 2)
        for (a, b), mid in (((f[i - 1], f[i]), x), ((f[j - 1], f[j]), x + 1)):
            edges.remove((min(a, b), max(a, b)))
            edges += [(min(a, mid), mid), (min(b, mid), mid)]
            for h in faces:  # both faces on the edge, f among them
                for t in range(len(h)):
                    if {h[t - 1], h[t]} == {a, b}:
                        h.insert(t, mid)
                        break
        edges.append((x, x + 1))
        p = f.index(x)
        r = f[p:] + f[:p]
        q = r.index(x + 1)
        faces.remove(f)
        faces += [r[: q + 1], r[q:] + r[:1]]
    return Multigraph(n, tuple(edges))


def bridged(d: Multigraph) -> Multigraph:
    """Two copies of d, each with one edge subdivided, joined by a bridge
    between the new vertices (n = 2 * d.n + 2)."""
    (u, v), rest = d.edges[0], d.edges[1:]
    half = [(u, d.n), (d.n, v), *rest]
    shift = d.n + 1
    edges = half + [(a + shift, b + shift) for a, b in half] + [(d.n, d.n + shift)]
    return Multigraph(2 * shift, tuple(edges))


def chained_k4s(k: int) -> Multigraph:
    """k copies of K4, each joined to the next by a bridge from its vertex 3
    to the next one's vertex 0; maximum degree 4."""
    edges = []
    for b in range(0, 4 * k, 4):
        edges += [(b + i, b + j) for i in range(4) for j in range(i + 1, 4)]
        if b:
            edges.append((b - 1, b))
    return Multigraph(4 * k, tuple(edges))
