"""Seeded random cubic planar graphs for the solve-large workload.

Start from K4 drawn in the plane.  Each step picks a random face, subdivides
two distinct edges on its boundary and joins the two new vertices through
the face, which keeps the graph simple, connected, cubic and planar and adds
two vertices.  The faces are tracked here as vertex cycles, so the pool for
a seed depends only on the seed and never on the code under test.
"""

from __future__ import annotations

import random

import networkx as nx


def _replace_edge_in_face(face: list[int], u: int, v: int, mid: int) -> bool:
    """Insert `mid` between the consecutive vertices u, v of `face`, if present."""
    k = len(face)
    for i in range(k):
        a, b = face[i], face[(i + 1) % k]
        if {a, b} == {u, v}:
            face.insert(i + 1, mid)
            return True
    return False


def random_cubic_planar(n: int, rng: random.Random) -> tuple[int, list[tuple[int, int]]]:
    """A cubic planar graph on n vertices (n even, n >= 4) as (n, edge list)."""
    if n < 4 or n % 2:
        raise ValueError("cubic graphs need an even vertex count >= 4")
    edges = {(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}
    faces = [[0, 1, 2], [0, 3, 1], [1, 3, 2], [0, 2, 3]]
    nv = 4
    while nv < n:
        fi = rng.randrange(len(faces))
        face = faces[fi]
        i, j = sorted(rng.sample(range(len(face)), 2))
        k = len(face)
        a, b = nv, nv + 1
        nv += 2
        ea = (face[i], face[(i + 1) % k])
        eb = (face[j], face[(j + 1) % k])
        for (x, y), mid in ((ea, a), (eb, b)):
            edges.discard((min(x, y), max(x, y)))
            edges.add((min(x, mid), max(x, mid)))
            edges.add((min(y, mid), max(y, mid)))
            # the face on the other side of the subdivided edge gains `mid`
            for other in faces[:fi] + faces[fi + 1 :]:
                if _replace_edge_in_face(other, x, y, mid):
                    break
        edges.add((a, b))
        # the chord a-b splits the chosen face in two
        left = [a] + face[i + 1 : j + 1] + [b]
        right = [b] + face[j + 1 :] + face[: i + 1] + [a]
        faces[fi] = left
        faces.append(right)
    return n, sorted(edges)


def check(n: int, edges) -> None:
    """Raise AssertionError unless the graph is simple, connected, cubic and
    planar (checked with networkx, not with the code under test)."""
    g = nx.Graph(edges)
    if not (
        sorted(g.nodes) == list(range(n))
        and g.number_of_edges() == len(edges)
        and all(d == 3 for _, d in g.degree)
        and nx.is_connected(g)
        and nx.check_planarity(g)[0]
    ):
        raise AssertionError("not a simple connected cubic planar graph")


def pool(seed: int, sizes: tuple[int, ...]) -> list[tuple[int, list[tuple[int, int]]]]:
    """One random cubic planar graph per entry of `sizes`, determined by `seed`."""
    rng = random.Random(seed)
    graphs = [random_cubic_planar(n, rng) for n in sizes]
    for n, edges in graphs:
        check(n, edges)
    return graphs
