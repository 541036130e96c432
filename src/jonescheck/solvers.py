"""Exact feedback vertex set, cycle packing and face packing solvers.

Every solver returns a witness object and re-verifies it against the carrier
graph before returning.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .multigraph import Multigraph, delete_vertices
from .structure import Face, RotationSystem, _edge_blocks, faces as face_walks


class SolverLimit(Exception):
    """A solver hit its time limit."""


class Cycle(NamedTuple):
    edges: tuple[int, ...]
    vertices: tuple[int, ...]


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise SolverLimit("time limit exceeded")


def _deadline(time_limit_s: float | None) -> float | None:
    return None if time_limit_s is None else time.monotonic() + time_limit_s


# -- witness types ---------------------------------------------------------


@dataclass(frozen=True)
class FeedbackSet:
    vertices: tuple[int, ...]
    size: int

    def verify(self, g: Multigraph) -> None:
        if not delete_vertices(g, self.vertices).graph.is_forest():
            raise AssertionError("feedback set does not leave a forest")
        if len(set(self.vertices)) != len(self.vertices):
            raise AssertionError("feedback set repeats a vertex")
        if self.size != len(self.vertices):
            raise AssertionError("feedback set size mismatch")


def _is_cycle_subgraph(g: Multigraph, edge_ids: tuple[int, ...]) -> bool:
    ids = list(edge_ids)
    if len(ids) != len(set(ids)):
        return False
    if len(ids) == 1:
        u, v = g.edges[ids[0]]
        return u == v  # a loop is a cycle of length 1
    deg: dict[int, int] = {}
    for e in ids:
        u, v = g.edges[e]
        if u == v:
            return False
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    if any(d != 2 for d in deg.values()):
        return False
    # connectivity of the edge set
    verts = list(deg)
    adj: dict[int, list[int]] = {v: [] for v in verts}
    for e in ids:
        u, v = g.edges[e]
        adj[u].append(v)
        adj[v].append(u)
    seen = {verts[0]}
    stack = [verts[0]]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(verts)


@dataclass(frozen=True)
class CyclePacking:
    cycles: tuple[tuple[int, ...], ...]  # edge-id lists
    size: int

    def verify(self, g: Multigraph) -> None:
        if self.size != len(self.cycles):
            raise AssertionError("cycle packing size mismatch")
        used: set[int] = set()
        for ids in self.cycles:
            if not _is_cycle_subgraph(g, ids):
                raise AssertionError(f"edge set {ids} is not a cycle")
            verts = {w for e in ids for w in g.edges[e]}
            if used & verts:
                raise AssertionError("cycles are not vertex-disjoint")
            used |= verts


@dataclass(frozen=True)
class FacePacking:
    faces: tuple[int, ...]  # indices into the face list of the embedding
    size: int
    all_faces: tuple[Face, ...] = field(default=(), repr=False)

    def verify(self, g: Multigraph) -> None:
        if self.size != len(self.faces):
            raise AssertionError("face packing size mismatch")
        used: set[int] = set()
        for i in self.faces:
            f = self.all_faces[i]
            if not f.is_cycle:
                raise AssertionError("packed face is not a cycle")
            if used & set(f.vertices):
                raise AssertionError("faces are not vertex-disjoint")
            used |= set(f.vertices)


# -- cycle enumeration -----------------------------------------------------


def enumerate_cycles(
    g: Multigraph, deadline: float | None = None, max_len: int | None = None
) -> list[Cycle]:
    """The vertex-minimal cycles: those with no other cycle on a subset of
    their vertices, each exactly once, in a deterministic order.

    A cycle is reported from its minimal vertex; the traversal direction is
    fixed by requiring first edge id < last edge id.  One cycle per vertex
    set:
    - the first loop at each vertex (a cycle of length 1);
    - for each pair joined by two or more edges, neither end with a loop,
      the 2-cycle on its two smallest edge ids;
    - each cycle on three or more loop-free vertices, joined by single
      edges, whose vertex set induces no other edge.
    (The plain chordless test, "induced edges == length", is wrong on
    multigraphs: it would drop every 2-cycle of a triple edge.)  A packing
    can trade any other cycle for a listed one on a subset of its vertices,
    so the maximum packing size is unchanged.  `max_len` keeps only the
    cycles with at most `max_len` vertices: the search never grows a path
    past that length.

    The long cycles come from an induced-path search, after Uno & Satoh
    (Discovery Science 2014) and Dias, Castonguay, Longo & Jradi
    (arXiv:1309.1051).  From each root r the path grows by a vertex y > r
    whose only neighbours on the path are its last vertex and r; it closes
    when y is adjacent to r, and never grows past such a y.  It walks only
    single edges between loop-free vertices, and only those in the
    biconnected block of its first edge, since every such cycle lies in one
    block of that graph.  Each cycle is searched from one side only: no
    search starts on r's highest-id walked edge to a live vertex, since a
    cycle is listed only when its first edge id is below its closing edge
    id, and every other edge of r is below that one.  The `deadline` (a
    `time.monotonic()` value) is checked every 1,024 steps of the search,
    so a search that finds few cycles stops in time as well.
    """
    if max_len is None:
        max_len = g.n
    n = g.n
    loop = [-1] * n  # the first loop at each vertex
    pairs: dict[tuple[int, int], list[int]] = {}
    for eid, (u, v) in enumerate(g.edges):
        if u != v:
            pairs.setdefault((u, v), []).append(eid)
        elif loop[u] < 0:
            loop[u] = eid
    out = [Cycle((e,), (v,)) for v, e in enumerate(loop) if e >= 0]
    nbrs: list[list[int]] = [[] for _ in range(n)]  # distinct neighbours
    single: list[dict[int, int]] = [{} for _ in range(n)]  # walked edges
    for (u, v), ids in pairs.items():
        nbrs[u].append(v)
        nbrs[v].append(u)
        if loop[u] >= 0 or loop[v] >= 0:
            continue
        if len(ids) > 1:
            out.append(Cycle((ids[0], ids[1]), (u, v)))
        else:
            single[u][v] = single[v][u] = ids[0]
    if max_len < 3:
        return [c for c in out if len(c.vertices) <= max_len]
    block = _edge_blocks(single, g.m)
    # a vertex left with fewer than two walked edges to vertices still alive
    # lies on no long cycle among them; dropping each root after its search
    # and peeling such vertices keeps a long path or cycle linear
    alive = [True] * n
    degree = [len(a) for a in single]  # walked edges to live vertices

    def drop(x: int) -> None:
        alive[x] = False
        stack = [x]
        while stack:
            for y in single[stack.pop()]:
                if alive[y]:
                    degree[y] -= 1
                    if degree[y] < 2:
                        alive[y] = False
                        stack.append(y)

    for v in range(n):
        if alive[v] and degree[v] < 2:
            drop(v)
    on_path = [False] * n
    near = [0] * n  # number of path vertices adjacent to each vertex
    path: list[int] = []
    path_edges: list[int] = []
    full = max_len - 1  # a path this long can only close
    steps = 0

    def push(x: int) -> None:
        nonlocal steps
        steps += 1
        if not steps & 1023:
            _check_deadline(deadline)
        on_path[x] = True
        path.append(x)
        for z in nbrs[x]:
            near[z] += 1

    def pop() -> None:
        x = path.pop()
        on_path[x] = False
        for z in nbrs[x]:
            near[z] -= 1

    for r in range(n):  # every vertex still alive is above r
        if not alive[r]:
            continue
        closing = single[r]
        top = max(e for y, e in closing.items() if alive[y])  # see the docstring
        push(r)
        for y0, e0 in closing.items():
            if not alive[y0] or e0 == top:
                continue
            b = block[e0]
            push(y0)
            path_edges.append(e0)
            frames = [iter(single[y0].items())]
            while frames:
                for y, eid in frames[-1]:
                    if not alive[y] or on_path[y] or block[eid] != b:
                        continue
                    # only the last path vertex is adjacent: extend
                    if near[y] == 1 and len(path) < full:
                        push(y)
                        path_edges.append(eid)
                        frames.append(iter(single[y].items()))
                        break
                    # adjacent to the last path vertex and r: the path closes
                    if near[y] == 2 and y in closing and e0 < closing[y]:
                        out.append(
                            Cycle(
                                (*path_edges, eid, closing[y]),
                                tuple(sorted((*path, y))),
                            )
                        )
                else:
                    frames.pop()
                    pop()
                    path_edges.pop()
        pop()
        drop(r)
    return out


# -- feedback vertex set ---------------------------------------------------


class _Work:
    """Mutable multigraph on the original vertex labels for the FVS search.

    `adj[v]` maps each neighbour of v to the number of edges between them
    (None once v is removed), `loops[v]` counts loops and `deg[v]` is the
    degree, a loop twice.  `remove` and the bypass of `_reduce` keep `deg`,
    `m` (edges left, a loop once) and `n` (vertices left) current.
    """

    __slots__ = ("adj", "deg", "loops", "m", "n")

    def __init__(self, g: Multigraph | None = None):
        if g is None:
            return
        self.adj: list[dict[int, int] | None] = [{} for _ in range(g.n)]
        self.loops = [0] * g.n
        self.deg = [0] * g.n
        for u, v in g.edges:
            if u == v:
                self.loops[u] += 1
            else:
                self.adj[u][v] = self.adj[u].get(v, 0) + 1
                self.adj[v][u] = self.adj[v].get(u, 0) + 1
            self.deg[u] += 1
            self.deg[v] += 1
        self.m, self.n = g.m, g.n

    def copy(self) -> "_Work":
        w = _Work()
        w.adj = [None if a is None else dict(a) for a in self.adj]
        w.deg = list(self.deg)
        w.loops = list(self.loops)
        w.m, w.n = self.m, self.n
        return w

    def remove(self, v: int) -> None:
        adj, deg = self.adj, self.deg
        for u, k in adj[v].items():
            del adj[u][v]
            deg[u] -= k
        self.m -= deg[v] - self.loops[v]
        self.n -= 1
        adj[v] = None
        deg[v] = self.loops[v] = 0


def _reduce(work: _Work, kept: frozenset[int], chosen: list[int]) -> bool:
    """Apply loop/degree-1/degree-2 reductions to a fixpoint, in sweeps by
    ascending label.

    Returns False if some kept vertex is forced into the feedback set.
    """
    adj, deg, loops = work.adj, work.deg, work.loops
    changed = True
    while changed:
        changed = False
        for v, a in enumerate(adj):
            if a is None:
                continue
            if loops[v]:
                if v in kept:
                    return False
                chosen.append(v)
                work.remove(v)
                changed = True
            elif deg[v] <= 1:
                work.remove(v)
                changed = True
            elif deg[v] == 2 and len(a) == 2:
                # bypass: distinct neighbors only; a parallel pair is left
                # for branching so no loop is created
                u, w = a
                work.remove(v)
                adj[u][w] = adj[u].get(w, 0) + 1
                adj[w][u] = adj[w].get(u, 0) + 1
                deg[u] += 1
                deg[w] += 1
                work.m += 1
                changed = True
    return True


def _degree_lower_bound(work: _Work, kept: frozenset[int]) -> int | None:
    """Least number of free vertices whose deletion can leave a forest.

    Deleting a vertex of degree d lowers the cyclomatic number m - n + c by
    at most d - 1, and degrees only fall as vertices go (Bafna, Berman and
    Fujito 1999).  So a feedback set avoiding `kept` has at least as many
    vertices as it takes of the largest d - 1 values to reach the cyclomatic
    number.  Returns None when all free vertices together fall short.
    """
    adj = work.adj
    seen = [a is None for a in adj]
    comps = 0
    for s in range(len(adj)):
        if seen[s]:
            continue
        comps += 1
        seen[s] = True
        stack = [s]
        while stack:
            for y in adj[stack.pop()]:
                if not seen[y]:
                    seen[y] = True
                    stack.append(y)
    need = work.m - work.n + comps
    if need <= 0:
        return 0
    free = (d - 1 for v, d in enumerate(work.deg) if adj[v] is not None and v not in kept)
    drops = sorted(free, reverse=True)
    for k, d in enumerate(drops, 1):
        need -= d
        if need <= 0:
            return k
    return None


def _greedy_fvs(work: _Work, order: range | list[int]) -> list[int]:
    """A feedback set of `work`, which it consumes: reduce, then take a
    vertex of largest degree, the first in `order` on ties, until no edge."""
    chosen: list[int] = []
    while True:
        _reduce(work, frozenset(), chosen)
        if not work.m:
            return chosen
        v = max(order, key=work.deg.__getitem__)
        chosen.append(v)
        work.remove(v)


def _drop_redundant(work: _Work, picked: list[int]) -> list[int]:
    """`picked`, a feedback set of the loop-free `work`, less every vertex
    whose return still leaves a forest.  The other vertices join a
    union-find forest (`parent[v] < 0` outside it) first, then the picked
    ones, last picked first, each if its edges reach distinct trees."""
    parent = [-1] * len(work.adj)

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    picks = set(picked)
    rest = [v for v, a in enumerate(work.adj) if a is not None and v not in picks]
    for v in rest + picked[::-1]:
        roots = [find(u) for u, k in work.adj[v].items() if parent[u] >= 0 for _ in range(k)]
        if len(set(roots)) == len(roots):
            parent[v] = v
            for r in roots:
                parent[r] = v
    return [v for v in picked if parent[v] < 0]


_RESTARTS = 50  # greedy restarts tried at a cubic root


def fvs_exact(g: Multigraph, time_limit_s: float | None = None) -> FeedbackSet:
    """Minimum feedback vertex set by branch and bound with reductions.

    The search runs on a `_Work` graph, whose stored degrees and counts no
    node sums again.  The incumbent is the greedy set (`_greedy_fvs`, ties
    to the smallest label).  When every vertex of the reduced root has degree 3 and the
    incumbent lies above the root's degree bound (met on a connected cubic
    graph exactly when some feedback set is independent and leaves a tree;
    Speckenmeyer 1988, Ueno, Kajitani and Gotoh 1988), the incumbent and up
    to `_RESTARTS` greedy runs with tie orders from a `random.Random(0)`
    local to the call are trimmed by `_drop_redundant`; the smallest is kept
    and the first to meet the bound ends them.  No search runs when the
    reductions empty the graph or the incumbent meets the root's degree
    bound: the search would stop at its root, so the witness is the same,
    and only the root's deadline check is kept.  Sweeps and ties go by label,
    so the witness depends only on the labels; without restarts it is the
    one of the dict-based kernel in `tests/fvs_oracle.py`.
    """
    deadline = _deadline(time_limit_s)
    root = _Work(g)
    forced: list[int] = []
    _reduce(root, frozenset(), forced)
    labels = range(g.n)
    start = _greedy_fvs(root.copy(), labels)
    best = sorted(forced + start)
    best_size = len(best)
    bound = _degree_lower_bound(root, frozenset())
    if len(start) > bound and all(d == 3 for d, a in zip(root.deg, root.adj) if a is not None):
        rng = random.Random(0)
        for r in range(_RESTARTS + 1):  # the incumbent, then the restarts
            if r:
                _check_deadline(deadline)
                start = _greedy_fvs(root.copy(), rng.sample(labels, g.n))
            start = _drop_redundant(root, start)
            if len(forced) + len(start) < best_size:
                best = sorted(forced + start)
                best_size = len(best)
            if len(start) == bound:
                break

    def search(work: _Work, chosen: list[int], kept: frozenset[int]) -> None:
        nonlocal best, best_size
        _check_deadline(deadline)
        if not _reduce(work, kept, chosen):
            return
        if len(chosen) >= best_size:
            return
        if not work.m:
            best = sorted(chosen)
            best_size = len(chosen)
            return
        bound = _degree_lower_bound(work, kept)
        if bound is None or len(chosen) + bound >= best_size:
            return  # the free vertices cannot break every cycle, or beat best
        free = (x for x, a in enumerate(work.adj) if a is not None and x not in kept)
        v = max(free, key=work.deg.__getitem__)  # the smallest label on ties
        in_branch = work.copy()
        in_branch.remove(v)
        search(in_branch, chosen + [v], kept)
        search(work, list(chosen), kept | {v})

    if root.m and len(forced) + bound < best_size:
        search(root, forced, frozenset())
    else:  # the root search would stop at once; keep its deadline check
        _check_deadline(deadline)
    fs = FeedbackSet(tuple(best), best_size)
    fs.verify(g)
    return fs


# -- cycle packing ---------------------------------------------------------


def _mis_over_masks(
    masks: list[int],
    weights_len: list[int],
    n_free: int,
    deadline: float | None,
) -> list[int]:
    """Maximum independent set over items with vertex bitmasks.

    Items must be sorted by increasing popcount; weights_len[i] is the number
    of vertices of item i (used for the packing upper bound).
    """
    best: list[int] = []
    greedy_mask = 0
    for i, mk in enumerate(masks):
        if not (mk & greedy_mask):
            best.append(i)
            greedy_mask |= mk
    best_size = len(best)
    chosen: list[int] = []

    def search(cands: list[int], mask: int, free: int) -> None:
        nonlocal best, best_size
        _check_deadline(deadline)
        if chosen and len(chosen) > best_size:
            best = list(chosen)
            best_size = len(chosen)
        if not cands:
            return
        minlen = weights_len[cands[0]]
        if len(chosen) + min(len(cands), free // minlen) <= best_size:
            return
        for idx, i in enumerate(cands):
            if len(chosen) + (len(cands) - idx) <= best_size:
                break
            mk = masks[i]
            sub = [j for j in cands[idx + 1 :] if not (masks[j] & (mask | mk))]
            chosen.append(i)
            search(sub, mask | mk, free - weights_len[i])
            chosen.pop()

    search(list(range(len(masks))), 0, n_free)
    return best


_SHORT_CYCLES = 6  # cap of the first enumeration pass of cp_exact


def _minimal_by_length(g: Multigraph, deadline: float | None, max_len: int) -> list[Cycle]:
    cycles = enumerate_cycles(g, deadline=deadline, max_len=max_len)
    return sorted(cycles, key=lambda c: (len(c.vertices), c.edges))


def _packing_cap(n: int, cycles: list[Cycle]) -> int:
    """max(n - s, l) for the greedy packing of `cycles`, sorted by length:
    p0 cycles, the longest of l vertices, and s the number of vertices of
    the p0 shortest listed cycles."""
    used = p0 = longest = 0
    for c in cycles:
        mk = sum(1 << v for v in c.vertices)
        if not mk & used:
            used |= mk
            p0 += 1
            longest = len(c.vertices)
    return max(n - sum(len(c.vertices) for c in cycles[:p0]), longest) if cycles else n


def cp_exact(g: Multigraph, time_limit_s: float | None = None) -> CyclePacking:
    """Maximum cycle packing via independent set over vertex-minimal cycles.

    Packs the vertex-minimal cycles (`enumerate_cycles`),
    sorted by (length, edges), with `_mis_over_masks`, but lists only a
    prefix of them on graphs of more than 2 * `_SHORT_CYCLES` vertices.  A
    first pass lists the cycles of at most `_SHORT_CYCLES` vertices; their
    greedy packing has p0 cycles, the longest of l vertices, and the p0
    shortest of them, the p0 shortest of the whole list, have s vertices
    together.  Every cycle of a packing of more than p0 cycles is disjoint
    from p0 other listed cycles, which are distinct and so have at least s
    vertices together; so it has at most n - s vertices, and so does every
    cycle the greedy packing of the whole list adds to the first p0.  Hence
    the cycles of at most L = max(n - s, l) vertices, a prefix of the sorted
    list, hold the whole list's greedy packing and every packing that beats
    it.  The search over a prefix meets those packings in the same order
    as over the whole list and prunes none of them, so the witness is the
    one the whole list gives.  A second pass lists that prefix when L
    exceeds the first cap.  Smaller graphs are listed whole in one pass,
    which costs about as much.  The time limit bounds both passes and the
    search.
    """
    deadline = _deadline(time_limit_s)
    if g.n <= 2 * _SHORT_CYCLES:
        cycles = _minimal_by_length(g, deadline, g.n)
    else:
        cycles = _minimal_by_length(g, deadline, _SHORT_CYCLES)
        cap = _packing_cap(g.n, cycles)
        if cap > _SHORT_CYCLES:
            cycles = _minimal_by_length(g, deadline, cap)
        else:
            cycles = [c for c in cycles if len(c.vertices) <= cap]
    masks = [sum(1 << v for v in c.vertices) for c in cycles]
    lens = [len(c.vertices) for c in cycles]
    picked = _mis_over_masks(masks, lens, g.n, deadline)
    chosen = tuple(sorted(cycles[i].edges for i in picked))
    cp = CyclePacking(chosen, len(chosen))
    cp.verify(g)
    return cp


# -- face packing ----------------------------------------------------------


def fp_fixed_embedding(
    g: Multigraph, rot: RotationSystem, time_limit_s: float | None = None
) -> FacePacking:
    """Maximum set of pairwise vertex-disjoint cycle-faces of a fixed embedding."""
    deadline = _deadline(time_limit_s)
    all_faces = tuple(face_walks(g, rot))
    cands = [i for i, f in enumerate(all_faces) if f.is_cycle]
    order = sorted(cands, key=lambda i: (len(all_faces[i].vertices), all_faces[i].walk))
    masks = []
    lens = []
    for i in order:
        mk = 0
        for v in all_faces[i].vertices:
            mk |= 1 << v
        masks.append(mk)
        lens.append(max(1, len(all_faces[i].vertices)))
    picked = _mis_over_masks(masks, lens, g.n, deadline)
    chosen = tuple(sorted(order[i] for i in picked))
    fp = FacePacking(chosen, len(chosen), all_faces=all_faces)
    fp.verify(g)
    return fp


# -- witness serialization -------------------------------------------------


def witness_to_dict(w: FeedbackSet | CyclePacking | FacePacking) -> dict:
    if isinstance(w, FeedbackSet):
        return {"kind": "fvs", "size": w.size, "vertices": list(w.vertices), "cycles": []}
    if isinstance(w, CyclePacking):
        return {
            "kind": "cp",
            "size": w.size,
            "vertices": [],
            "cycles": [list(c) for c in w.cycles],
        }
    return {
        "kind": "fp",
        "size": w.size,
        "vertices": [],
        "cycles": [sorted(e for e, _ in w.all_faces[i].walk) for i in w.faces],
    }
