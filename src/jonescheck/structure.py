"""Connectivity and planarity analysis for small multigraphs.

Minimal edge cuts with at most 3 edges all come from one engine,
`_small_cuts`: cycle-space signatures over a spanning forest turn the cut
test into XORs of edge signatures, so every such cut is read off in O(m^2)
plus one traversal per cut for its sides.  Planarity is decided on the
underlying simple graph (loops and parallel edges never affect planarity).
A graph whose 2-core has fewer than 5 vertices of degree >= 4 and fewer
than 6 of degree >= 3 holds no Kuratowski subdivision and is planar; any
other goes to the left-right-criterion implementation from networkx.  In an
embedding, loops and parallels are reinserted into the rotation system next
to their mates.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

import networkx as nx

from .multigraph import Multigraph, delete_vertices


@dataclass(frozen=True)
class EdgeCut:
    """A minimal disconnecting edge set of size 1-3 with its side partition."""

    edges: tuple[int, ...]
    side_a: tuple[int, ...]
    side_b: tuple[int, ...]
    trivial: bool  # some side has <= 1 vertex
    cyclic: bool  # both sides contain a cycle


# A dart is (edge_id, end) with end in {0, 1}: the dart leaves the vertex
# edges[edge_id][end].  A loop contributes both darts at the same vertex.
Dart = tuple[int, int]


@dataclass(frozen=True)
class RotationSystem:
    """Cyclic order of outgoing darts around each vertex."""

    rotations: tuple[tuple[Dart, ...], ...]

    def validate(self, g: Multigraph) -> None:
        if len(self.rotations) != g.n:
            raise ValueError("rotation system has wrong vertex count")
        seen = set()
        for v, rot in enumerate(self.rotations):
            for e, end in rot:
                if not (0 <= e < g.m) or end not in (0, 1):
                    raise ValueError(f"bad dart ({e},{end}) at vertex {v}")
                if g.edges[e][end] != v:
                    raise ValueError(f"dart ({e},{end}) does not leave vertex {v}")
                if (e, end) in seen:
                    raise ValueError(f"dart ({e},{end}) appears twice")
                seen.add((e, end))
        if len(seen) != 2 * g.m:
            raise ValueError("rotation system misses some edge-ends")


@dataclass(frozen=True)
class Face:
    """Closed walk of darts produced by face traversal of a rotation system."""

    walk: tuple[Dart, ...]
    vertices: tuple[int, ...]
    is_cycle: bool


# -- connectivity ----------------------------------------------------------


def vertex_connectivity(g: Multigraph) -> int:
    """Exact vertex connectivity of the underlying simple graph.

    Deleting the neighbours of a vertex of minimum degree d isolates it, so
    the connectivity is at most min(n - 1, d), and only smaller vertex sets
    are tried as separators.
    """
    s = g.underlying_simple()
    if s.n <= 1 or not s.is_connected():
        return 0
    bound = min(s.n - 1, min(s.degrees()))
    for k in range(bound):
        for cut in itertools.combinations(range(s.n), k):
            h = delete_vertices(s, cut).graph
            if h.n > 0 and not h.is_connected():
                return k
    return bound


# -- small edge cuts -------------------------------------------------------


def _small_cuts(g: Multigraph) -> Iterator[EdgeCut]:
    """Every minimal edge cut with 1-3 edges, sorted by (size, edge ids).

    Cycle-space signatures over a spanning forest (Pritchard & Thurimella,
    ACM TALG 7(4), 2011): each non-tree edge owns one bit, and a tree edge
    carries the XOR of the non-tree edges whose fundamental cycles use it.
    A set of non-loop edges is a cut exactly when its signatures XOR to 0,
    and a minimal one when no proper subset's do.  One bit per non-tree
    edge makes the test exact.  Loops lie in no cut and get no signature.
    The cuts are found first; each one's sides are traced as it is yielded.
    """
    adj = g.adjacency
    root = [-1] * g.n
    parent_edge = [-1] * g.n
    order: list[int] = []  # every vertex after its parent
    for r in range(g.n):
        if root[r] != -1:
            continue
        root[r] = r
        stack = [r]
        while stack:
            x = stack.pop()
            order.append(x)
            for y, eid in adj[x]:
                if root[y] == -1:
                    root[y] = r
                    parent_edge[y] = eid
                    stack.append(y)
    tree = set(parent_edge)
    sig = [0] * g.m
    acc = [0] * g.n  # XOR of the non-tree bits at a vertex, then its subtree
    bit = 1
    for eid, (u, v) in enumerate(g.edges):
        if u != v and eid not in tree:
            sig[eid] = bit
            acc[u] ^= bit
            acc[v] ^= bit
            bit <<= 1
    for x in reversed(order):
        eid = parent_edge[x]
        if eid != -1:
            sig[eid] = acc[x]
            u, v = g.edges[eid]
            acc[u + v - x] ^= acc[x]

    real = [eid for eid, (u, v) in enumerate(g.edges) if u != v]
    found: list[tuple[int, ...]] = [(e,) for e in real if not sig[e]]
    nonzero = [e for e in real if sig[e]]
    by_sig: dict[int, list[int]] = {}
    for e in nonzero:
        by_sig.setdefault(sig[e], []).append(e)
    for i, e in enumerate(nonzero):
        for f in nonzero[i + 1 :]:
            if sig[e] == sig[f]:
                found.append((e, f))
            else:
                found.extend((e, f, h) for h in by_sig.get(sig[e] ^ sig[f], ()) if h > f)
    found.sort(key=len)  # stable: each size is found in edge-id order

    # a minimal cut splits one component into two connected sides; a side
    # holds a cycle exactly when its edges, loops included, number at least
    # its vertices
    deg = g.degrees()
    members: dict[int, list[int]] = {}
    for v in range(g.n):
        members.setdefault(root[v], []).append(v)
    comp_edges = {r: sum(deg[v] for v in vs) // 2 for r, vs in members.items()}
    for edges in found:
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
        outer = comp_edges[root[start]] - len(edges) - inner
        side = tuple(sorted(seen))
        rest = tuple(v for v in members[root[start]] if v not in seen)
        side_a, side_b = sorted((side, rest))
        yield EdgeCut(
            edges=edges,
            side_a=side_a,
            side_b=side_b,
            trivial=min(len(side), len(rest)) <= 1,
            cyclic=inner >= len(side) and outer >= len(rest),
        )


def _cut_flags(g: Multigraph, cuts: Iterable[EdgeCut]) -> tuple[bool, bool]:
    """`small_cut_flags` of g, given the cuts of `_small_cuts(g)`."""
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


def small_cut_flags(g: Multigraph) -> tuple[bool, bool]:
    """(essentially_4ec, cyclically_4ec) of g.

    essentially_4ec: no removal of <= 3 edges (zero included) leaves two
    components with >= 2 vertices each.  cyclically_4ec: no such removal
    leaves two components that each contain a cycle; vacuously true when no
    two vertex-disjoint cycles exist at all.
    """
    return _cut_flags(g, _small_cuts(g))


def enumerate_cuts(g: Multigraph, k: int) -> list[EdgeCut]:
    """All minimal edge cuts of size exactly k (k in 1..3), sorted by edge ids."""
    if k not in (1, 2, 3):
        raise ValueError("cut size must be 1, 2 or 3")
    return [c for c in _small_cuts(g) if len(c.edges) == k]


def find_first_cut(g: Multigraph) -> EdgeCut | None:
    """The first bridge, else the first minimal 2-edge cut, else the first
    nontrivial minimal 3-edge cut, each in edge-id order; None if there is
    none."""
    for cut in _small_cuts(g):
        if len(cut.edges) < 3 or not cut.trivial:
            return cut
    return None


# -- planarity and embeddings ---------------------------------------------


def _nx_graph(s: Multigraph) -> nx.Graph:
    """The simple graph s as a networkx graph."""
    nxg = nx.Graph()
    nxg.add_nodes_from(range(s.n))
    nxg.add_edges_from(s.edges)
    return nxg


def is_planar(g: Multigraph) -> bool:
    # Kuratowski: a non-planar graph contains a subdivision of K5 or K3,3.
    # It is 2-connected, so it lies in the 2-core, and there its 5 branch
    # vertices have degree >= 4, or its 6 branch vertices degree >= 3.
    s = g.underlying_simple()
    nbrs: list[list[int]] = [[] for _ in range(s.n)]
    for u, v in s.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    deg = [len(a) for a in nbrs]
    peel = [v for v in range(s.n) if deg[v] <= 1]
    while peel:
        v = peel.pop()
        for u in nbrs[v]:
            deg[u] -= 1
            if deg[u] == 1:
                peel.append(u)
    if sum(d >= 3 for d in deg) < 6 and sum(d >= 4 for d in deg) < 5:
        return True
    ok, _ = nx.check_planarity(_nx_graph(s))
    return ok


def planar_embedding(g: Multigraph) -> RotationSystem:
    """A planar rotation system for g; raises ValueError if g is non-planar.

    Parallel edges are placed adjacently (nested), loops as adjacent dart
    pairs; both conventions are always planarity-preserving.
    """
    nxg = _nx_graph(g.underlying_simple())
    ok, emb = nx.check_planarity(nxg)
    if not ok:
        raise ValueError("graph is not planar")

    by_pair: dict[tuple[int, int], list[int]] = {}
    for eid, (u, v) in enumerate(g.edges):
        if u != v:
            by_pair.setdefault((u, v), []).append(eid)
    rotations = []
    for v in range(g.n):
        rot: list[Dart] = []
        if nxg.degree(v) > 0:
            for u in emb.neighbors_cw_order(v):
                ids = by_pair[(min(u, v), max(u, v))]
                # nest parallel blocks: ascending on the lower endpoint,
                # descending on the higher one
                ordered = ids if v < u else list(reversed(ids))
                for eid in ordered:
                    end = 0 if g.edges[eid][0] == v else 1
                    rot.append((eid, end))
        for eid in g.loops[v]:
            rot.append((eid, 0))
            rot.append((eid, 1))
        rotations.append(tuple(rot))
    rs = RotationSystem(tuple(rotations))
    rs.validate(g)
    return rs


def faces(g: Multigraph, rot: RotationSystem) -> list[Face]:
    """Face walks of the embedding; orbits of the next-dart permutation."""
    rot.validate(g)
    succ: dict[Dart, Dart] = {}
    for v in range(g.n):
        r = rot.rotations[v]
        for i, d in enumerate(r):
            succ[d] = r[(i + 1) % len(r)]
    out = []
    seen: set[Dart] = set()
    for start in sorted(succ):
        if start in seen:
            continue
        walk = []
        d = start
        while True:
            walk.append(d)
            seen.add(d)
            e, end = d
            rev = (e, 1 - end)
            d = succ[rev]
            if d == start:
                break
        verts = tuple(sorted({g.edges[e][end] for e, end in walk}))
        is_cycle = (
            len(walk) >= 1
            and len(verts) == len(walk)
            and len(set(e for e, _ in walk)) == len(walk)
        )
        out.append(Face(tuple(walk), verts, is_cycle))
    return out
