"""Connectivity and planarity analysis for small multigraphs.

Minimal edge cuts with at most 3 edges all come from one scan:
cycle-space signatures over a spanning forest turn the cut test into XORs
of edge signatures, so every such cut is read off in O(m^2), and subtree
intervals of the forest give each cut's triviality and cycles in O(1).
`small_cut_flags` and the `cuts` listing read those and list no side;
`find_first_cut` stops at its first hit and lists that cut's sides alone,
as runs of the forest's traversal order.  Planarity is decided on the
underlying simple graph (loops and parallel edges never affect planarity).
A graph whose 2-core has fewer than 5 vertices of degree >= 4 and fewer
than 6 of degree >= 3 holds no Kuratowski subdivision and is planar; any
other is split into biconnected blocks (Hopcroft & Tarjan), and each block
goes through the same degree test and then path addition (Demoucron,
Malgrange & Pertuiset), which also yields the block's faces.  An embedding
reads each vertex's rotation off those faces, and loops and parallels are
reinserted into the rotation system next to their mates.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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


Cut = tuple[int, ...]  # the edge ids of a cut, ascending


def _cut_edge_sets(g: Multigraph, sig: list[int]) -> Iterator[Cut]:
    """The edge ids of every minimal cut with 1-3 edges, from the signatures
    of `_cut_scan`, in (size, edge ids) order and found lazily."""
    real = [eid for eid, (u, v) in enumerate(g.edges) if u != v]
    yield from ((e,) for e in real if not sig[e])
    nonzero = [e for e in real if sig[e]]
    by_sig: dict[int, list[int]] = {}
    for e in nonzero:
        by_sig.setdefault(sig[e], []).append(e)
    for e in nonzero:
        same = by_sig[sig[e]]
        if len(same) > 1:
            yield from ((e, f) for f in same[same.index(e) + 1 :])
    for i, e in enumerate(nonzero):
        for f in nonzero[i + 1 :]:
            if sig[e] != sig[f]:
                for h in by_sig.get(sig[e] ^ sig[f], ()):
                    if h > f:
                        yield (e, f, h)


def _cut_scan(g: Multigraph) -> tuple[list[tuple[int, int]], Iterator[Cut], Callable, Callable]:
    """One pass over a spanning forest of g: the (vertices, edges) of each
    component, the lazy edge sets of `_cut_edge_sets`, and two functions of
    a cut, one giving its (trivial, cyclic) in O(1) and one its two sides,
    sorted.

    Each edge gets a cycle-space signature (Pritchard & Thurimella, ACM
    TALG 7(4), 2011): each non-tree edge owns one bit, and a tree edge
    carries the XOR of the non-tree edges whose fundamental cycles use it.
    A set of non-loop edges is a cut exactly when its signatures XOR to 0,
    and a minimal one when no proper subset's do; one bit per non-tree edge
    makes the test exact.  Loops lie in no cut and get no signature.

    A vertex lies across a minimal cut from its root exactly when it lies
    in an odd number of the subtrees below the cut's tree edges.  Each
    subtree is an interval of the traversal order, and the points covered
    an odd number of times by a few intervals run from the 1st to the 2nd
    of their sorted ends, from the 3rd to the 4th, and so on: those runs
    are one side, and the gaps between them in the component's run the
    other.  So a side's vertex count and degree sum come from prefix sums;
    its inner edges, loops included, number (degree sum - cut size) / 2, and
    it holds a cycle exactly when its edges number at least its vertices.
    """
    ends = g.edges
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]  # loops left out
    for eid, (u, v) in enumerate(ends):
        if u != v:
            adj[u].append((v, eid))
            adj[v].append((u, eid))
    root = [-1] * g.n
    parent_edge = [-1] * g.n  # -1 at a root
    pos = [0] * g.n
    order: list[int] = []  # every vertex after its parent
    roots = []
    for r in range(g.n):
        if root[r] != -1:
            continue
        root[r] = r
        roots.append(r)
        stack = [r]
        while stack:
            x = stack.pop()
            pos[x] = len(order)
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
    for eid, (u, v) in enumerate(ends):
        if u != v and eid not in tree:
            sig[eid] = bit
            acc[u] ^= bit
            acc[v] ^= bit
            bit <<= 1
    size = [1] * g.n  # vertices in each subtree
    span = [()] * g.m  # the interval of order below each tree edge
    for x in reversed(order):
        eid = parent_edge[x]
        if eid != -1:
            sig[eid] = acc[x]
            span[eid] = (pos[x], pos[x] + size[x])
            u, v = ends[eid]
            y = u + v - x  # the parent
            acc[y] ^= acc[x]
            size[y] += size[x]
    degsum = list(itertools.accumulate(map(g.degrees().__getitem__, order), initial=0))
    # (vertices, edges) of each component: its root's subtree, which starts
    # the component's run of the order
    comp = {r: (size[r], (degsum[pos[r] + size[r]] - degsum[pos[r]]) // 2) for r in roots}

    def kind(cut: Cut) -> tuple[bool, bool]:
        k = len(cut)
        bounds = sorted([p for e in cut for p in span[e]])
        hi, lo = bounds[1::2], bounds[::2]
        nv = sum(hi) - sum(lo)
        inner = (sum([degsum[p] for p in hi]) - sum([degsum[p] for p in lo]) - k) // 2
        comp_v, comp_e = comp[root[ends[cut[0]][0]]]
        return min(nv, comp_v - nv) <= 1, inner >= nv and comp_e - k - inner >= comp_v - nv

    def sides(cut: Cut) -> tuple[Cut, Cut]:
        # a root is the smallest vertex of its component, so its side sorts first
        r = root[ends[cut[0]][0]]
        pts = [pos[r], *sorted([p for e in cut for p in span[e]]), pos[r] + size[r]]
        stay, move = (
            tuple(sorted(v for a, b in zip(pts[i::2], pts[i + 1 :: 2]) for v in order[a:b]))
            for i in (0, 1)
        )
        return stay, move

    return list(comp.values()), _cut_edge_sets(g, sig), kind, sides


def small_cut_flags(g: Multigraph) -> tuple[bool, bool]:
    """(essentially_4ec, cyclically_4ec) of g.

    essentially_4ec: no removal of <= 3 edges (zero included) leaves two
    components with >= 2 vertices each.  cyclically_4ec: no such removal
    leaves two components that each contain a cycle; vacuously true when no
    two vertex-disjoint cycles exist at all.  Each cut is read in O(1) from
    `_cut_scan`, and no side is listed.
    """
    comps, cuts, kind, _ = _cut_scan(g)
    # removing no edge: the components themselves
    essential = sum(nv >= 2 for nv, _ in comps) <= 1
    cyclic = sum(ne >= nv for nv, ne in comps) <= 1
    # both sides of a k-cut hold a cycle only if their component has at
    # least k more edges than vertices, and cuts come by size
    slack = max((ne - nv for nv, ne in comps), default=0)
    for cut in cuts:
        if not essential and (not cyclic or len(cut) > slack):
            break
        trivial, both = kind(cut)
        essential = essential and trivial
        cyclic = cyclic and not both
    return essential, cyclic


def find_first_cut(g: Multigraph) -> EdgeCut | None:
    """The first bridge, else the first minimal 2-edge cut, else the first
    nontrivial minimal 3-edge cut, each in edge-id order; None if there is
    none.  Only the returned cut's sides are listed.
    """
    _, cuts, kind, sides = _cut_scan(g)
    for cut in cuts:
        trivial, cyclic = kind(cut)
        if len(cut) < 3 or not trivial:
            return EdgeCut(cut, *sides(cut), trivial, cyclic)
    return None


# -- planarity and embeddings ---------------------------------------------


def _edge_blocks(adj: list[dict[int, int]], m: int) -> list[int]:
    """Biconnected block of each edge of a graph without parallel edges.

    `adj[v]` maps each neighbour of v to the id of the edge joining them;
    ids not in the graph get -1.  One iterative Hopcroft–Tarjan pass.
    """
    block = [-1] * m
    disc = [0] * len(adj)  # discovery time, 0 while unvisited
    low = [0] * len(adj)
    open_edges: list[int] = []  # edges of blocks not yet closed
    clock = blocks = 0
    for s in range(len(adj)):
        if disc[s]:
            continue
        clock += 1
        disc[s] = low[s] = clock
        frames = [(s, -1, iter(adj[s].items()))]
        while frames:
            x, via, it = frames[-1]
            for y, eid in it:
                if not disc[y]:
                    open_edges.append(eid)
                    clock += 1
                    disc[y] = low[y] = clock
                    frames.append((y, eid, iter(adj[y].items())))
                    break
                if disc[y] < disc[x] and eid != via:  # back edge
                    open_edges.append(eid)
                    low[x] = min(low[x], disc[y])
            else:
                frames.pop()
                if frames:
                    p = frames[-1][0]
                    low[p] = min(low[p], low[x])
                    if low[x] >= disc[p]:  # p cuts x's subtree off: close a block
                        while True:
                            e = open_edges.pop()
                            block[e] = blocks
                            if e == via:
                                break
                        blocks += 1
    return block


def _blocks(n: int, edges: Sequence[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """The edges of each biconnected block of the simple graph on vertices
    0..n-1 with these edges."""
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u][v] = adj[v][u] = eid
    out: dict[int, list[tuple[int, int]]] = {}
    for edge, b in zip(edges, _edge_blocks(adj, len(edges))):
        out.setdefault(b, []).append(edge)
    return list(out.values())


def _kuratowski_free(deg: Iterable[int]) -> bool:
    """Whether a graph whose 2-core has these degrees is planar by counting.

    Kuratowski: a non-planar graph contains a subdivision of K5 or K3,3.
    It is 2-connected, so it lies in the 2-core, and there its 5 branch
    vertices have degree >= 4, or its 6 branch vertices degree >= 3.
    """
    deg = list(deg)
    return sum(d >= 3 for d in deg) < 6 and sum(d >= 4 for d in deg) < 5


def _block_faces(edges: list[tuple[int, int]]) -> list[list[int]] | None:
    """The faces of a planar embedding of a biconnected simple graph with at
    least three vertices, each a cyclic vertex sequence; None if the graph
    is not planar.

    Path addition (Demoucron, Malgrange & Pertuiset, 1964).  The embedded
    part H starts as one cycle.  A fragment is an edge not in H joining two
    vertices of H, or a component of the vertices outside H with its edges;
    its attachments are its vertices in H, and a face of H is admissible for
    it when it holds them all.  Each step embeds one path of a fragment,
    between two of its attachments, into one admissible face, which it
    splits in two; a fragment with a single admissible face goes first.  A
    fragment with none means the graph is not planar.  Faces are oriented:
    where u, v, w run along a face, w follows u in the rotation at v.
    """
    verts = sorted({x for e in edges for x in e})
    n = len(verts)
    if len(edges) > 3 * n - 6:  # Euler
        return None
    index = {v: i for i, v in enumerate(verts)}
    nbrs: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        a, b = index[u], index[v]
        nbrs[a].append(b)
        nbrs[b].append(a)

    # every vertex has two neighbours, so a walk that never turns back
    # closes a cycle
    at = [-1] * n
    at[0] = 0
    walk, prev = [0], -1
    while True:
        x = walk[-1]
        y = nbrs[x][0] if nbrs[x][0] != prev else nbrs[x][1]
        if at[y] >= 0:
            break
        at[y] = len(walk)
        walk.append(y)
        prev = x
    cycle = walk[at[y] :]

    embedded = [False] * n
    placed: set[int] = set()  # u * n + v, u < v, for each edge of H or of a chord
    owner = [-1] * n  # fragment of each vertex outside H
    # a face: its vertex sequence, its vertex set and the fragments it is
    # admissible for; a fragment: its attachments, its vertices (none for
    # a chord) and its admissible faces
    faces: list[tuple[list[int], set[int], set[int]]] = []
    frags: list[tuple[set[int], list[int], set[int]]] = []
    split: set[int] = set()
    alive: list[bool] = []
    forced: list[int] = []  # fragments that had one admissible face
    pending: list[int] = []  # every fragment, newest last

    def add(att: set[int], comp: list[int], candidates: tuple[int, ...]) -> bool:
        fid = len(frags)
        admissible = set()
        for f in candidates:
            if att <= faces[f][1]:
                admissible.add(f)
                faces[f][2].add(fid)
        frags.append((att, comp, admissible))
        alive.append(True)
        pending.append(fid)
        if len(admissible) == 1:
            forced.append(fid)
        return bool(admissible)

    def place(
        path: list[int],
        new: list[int],
        region: Iterable[int],
        old: int,
        candidates: tuple[int, ...],
    ) -> bool:
        """Put the path, with its vertices `new` not yet in H, into H; then
        add the fragments it leaves: chords at the new vertices, and the
        components of the vertices of `region` that fragment `old` owned.
        False if one of them has no admissible face."""
        for v in new:
            embedded[v] = True
        for u, v in zip(path, path[1:]):
            placed.add(u * n + v if u < v else v * n + u)
        for p in new:
            for q in nbrs[p]:
                if embedded[q]:
                    key = p * n + q if p < q else q * n + p
                    if key not in placed:
                        placed.add(key)
                        if not add({p, q}, [], candidates):
                            return False
        for r in region:
            if embedded[r] or owner[r] != old:
                continue
            owner[r] = fid = len(frags)
            comp, att = [r], set()
            for x in comp:  # grows while it is read
                for y in nbrs[x]:
                    if embedded[y]:
                        att.add(y)
                    elif owner[y] == old:
                        owner[y] = fid
                        comp.append(y)
            if not add(att, comp, candidates):
                return False
        return True

    faces.append((cycle, set(cycle), set()))
    faces.append((cycle[::-1], faces[0][1], set()))
    if not place(cycle + cycle[:1], cycle, range(n), -1, (0, 1)):
        return None
    while True:
        fr = -1
        while forced:
            c = forced.pop()
            if alive[c] and len(frags[c][2]) == 1:
                fr = c
                break
        if fr < 0:
            while pending and not alive[pending[-1]]:
                pending.pop()
            if not pending:
                break
            fr = pending[-1]
        att, comp, admissible = frags[fr]
        if comp:
            # grow a search tree from a vertex next to one attachment a
            # until it meets another attachment b
            a = min(att)
            for x in nbrs[a]:
                if not embedded[x] and owner[x] == fr:
                    break
            parent, stack, b = {x: a}, [x], -1
            while b < 0:
                x = stack.pop()
                for y in nbrs[x]:
                    if not embedded[y]:
                        if y not in parent:
                            parent[y] = x
                            stack.append(y)
                    elif y != a:
                        b = y
            path = [b]
            while x != a:
                path.append(x)
                x = parent[x]
            path.append(a)
            path.reverse()
        else:
            path = sorted(att)

        f = min(admissible)
        seq, _, others = faces[f]
        i = seq.index(path[0])
        seq = seq[i:] + seq[:i]
        j = seq.index(path[-1])
        inner = path[1:-1]
        h1 = seq[: j + 1] + inner[::-1]
        h2 = seq[j:] + seq[:1] + inner
        halves = (len(faces), len(faces) + 1)
        faces.append((h1, set(h1), set()))
        faces.append((h2, set(h2), set()))
        split.add(f)
        alive[fr] = False
        for h in admissible:
            faces[h][2].discard(fr)
        for other in others:
            oatt, _, fs = frags[other]
            fs.discard(f)
            for h in halves:
                if oatt <= faces[h][1]:
                    fs.add(h)
                    faces[h][2].add(other)
            if not fs:
                return None
            if len(fs) == 1:
                forced.append(other)
        if not place(path, inner, comp, fr, halves):
            return None
    return [[verts[v] for v in face[0]] for f, face in enumerate(faces) if f not in split]


def is_planar(g: Multigraph) -> bool:
    """Whether g is planar; loops and parallel edges never change that."""
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
    if _kuratowski_free(deg):
        return True
    # K3,3 has 9 edges and K5 10, so a smaller block is planar
    core = [(u, v) for u, v in s.edges if deg[u] > 1 and deg[v] > 1]
    for block in _blocks(s.n, core):
        if len(block) >= 9 and not _kuratowski_free(Counter(x for e in block for x in e).values()):
            if _block_faces(block) is None:
                return False
    return True


def _rotation_system(g: Multigraph, order: list[list[int]]) -> RotationSystem:
    """The rotation system of g from `order[v]`, the neighbours of v in the
    underlying simple graph in rotation order, with parallel edges and loops
    put back."""
    by_pair: dict[tuple[int, int], list[int]] = {}
    for eid, (u, v) in enumerate(g.edges):
        if u != v:
            by_pair.setdefault((u, v), []).append(eid)
    rotations = []
    for v in range(g.n):
        rot: list[Dart] = []
        for u in order[v]:
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


def planar_embedding(g: Multigraph) -> RotationSystem:
    """A planar rotation system for g; raises ValueError if g is non-planar.

    Each biconnected block of the underlying simple graph is embedded by
    `_block_faces`, and the rotation at a vertex is read off the block's
    oriented faces; at a cut vertex the rotations of its blocks follow one
    another.  Parallel edges are placed adjacently (nested), loops as
    adjacent dart pairs; both conventions are always planarity-preserving.
    The same graph always gets the same rotation system.
    """
    s = g.underlying_simple()
    order: list[list[int]] = [[] for _ in range(s.n)]
    for block in _blocks(s.n, s.edges):
        if len(block) == 1:  # a bridge
            (u, v), = block
            order[u].append(v)
            order[v].append(u)
            continue
        block_faces = _block_faces(block)
        if block_faces is None:
            raise ValueError("graph is not planar")
        succ: dict[tuple[int, int], int] = {}
        for face in block_faces:
            for u, v, w in zip(face[-1:] + face[:-1], face, face[1:] + face[:1]):
                succ[v, u] = w
        first: dict[int, int] = {}
        for u, v in block:
            first.setdefault(u, v)
            first.setdefault(v, u)
        for v, u0 in first.items():
            u = u0
            while True:
                order[v].append(u)
                u = succ[v, u]
                if u == u0:
                    break
    return _rotation_system(g, order)


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
