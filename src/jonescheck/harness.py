"""Corpus generation and batch verification of the packing/feedback bounds.

Corpora are enumerated exhaustively up to isomorphism.  Simple classes grow
one vertex at a time by canonical deletion: a child P + x of a level-(n-1)
graph P is kept only if x has the largest invariant f(v) = (deg v, sorted
neighbour degrees) among the vertices whose deletion leaves the child
connected.  Every class C on n vertices is still reached: deleting a non-cut
vertex y of largest f leaves a connected subcubic planar graph, isomorphic
to some P of level n-1, and the child that joins a new vertex to the image
of y's neighbours passes the test.  Of the k-subsets of P's vertices that
x may join, only the first of each orbit under Aut(P) is tried (after
McKay, J. Algorithms 26, 1998; a level stores the generators that
`canonical_form` finds): the others give isomorphic children, which pass
both tests exactly when it does.  Children of different parents can still
be isomorphic, so they are deduped by canonical form; a level keeps the
first child of each class and streams in canonical-form order.

Multigraph classes decorate each simple planar backbone B with edge
multiplicities and loops under the degree-3 cap, one decoration per orbit
of Aut(B), and canonicalize none: two decorations are isomorphic exactly
when an automorphism of B maps one onto the other.  Within each n the
backbones come in canonical-form order, each with its decorations in
enumeration order.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

from .canonical import canonical_form
from .multigraph import Multigraph
from . import structure
from . import solvers
from . import reduction

CORPUS_CLASSES = (
    "cubic-planar-simple",
    "subcubic-planar-simple",
    "subcubic-planar-multi",
)

MAX_N_SIMPLE = 14
MAX_N_MULTI = 10


@dataclass(frozen=True)
class CorpusSpec:
    cls: str
    max_n: int

    def __post_init__(self) -> None:
        if self.cls not in CORPUS_CLASSES:
            raise ValueError(f"unknown corpus class {self.cls!r}")
        if self.max_n < 1:
            raise ValueError(f"max_n must be >= 1, got {self.max_n}")
        if self.cls == "subcubic-planar-multi":
            if self.max_n > MAX_N_MULTI:
                raise ValueError(f"max_n > {MAX_N_MULTI} for multigraph classes")
        elif self.max_n > MAX_N_SIMPLE:
            raise ValueError(f"max_n > {MAX_N_SIMPLE} for simple classes")


# level cache: n -> {canonical form: (graph, generators of its automorphism
# group)}, connected subcubic planar simple
_SIMPLE_LEVELS: dict[int, dict[bytes, tuple[Multigraph, list[tuple[int, ...]]]]] = {}


def _first_of_orbits(
    items: Iterable[tuple], images: Callable[[tuple], list[tuple]]
) -> Iterator[tuple]:
    """The items that come first in their orbit.  `images(x)` lists the
    images of x under generators of a group that permutes the items."""
    done: set[tuple] = set()
    for x in items:
        if x in done:
            continue
        yield x
        done.add(x)
        stack = [x]
        while stack:
            for y in images(stack.pop()):
                if y not in done:
                    done.add(y)
                    stack.append(y)


def _is_canonical_deletion(adj: list[list[int]], s: tuple[int, ...]) -> bool:
    """Whether the child P + x, with x joined to the vertices `s` of the
    parent P (adjacency lists `adj`), keeps x as a deletion of largest
    invariant: no vertex y whose deletion leaves the child connected has
    f(y) > f(x), where f(v) = (deg v, sorted degrees of v's neighbours)."""
    x = len(adj)
    nbrs = [a + [x] if v in s else a for v, a in enumerate(adj)]
    nbrs.append(list(s))
    deg = [len(a) for a in nbrs]
    fx = (deg[x], sorted(deg[u] for u in s))
    for y in range(x):
        if deg[y] < deg[x] or (deg[y], sorted(deg[u] for u in nbrs[y])) <= fx:
            continue
        seen = {x, y}
        stack = [x]
        while stack:
            for w in nbrs[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        if len(seen) == x + 1:  # y is not a cut vertex
            return False
    return True


def _simple_level(n: int) -> dict[bytes, tuple[Multigraph, list[tuple[int, ...]]]]:
    if n in _SIMPLE_LEVELS:
        return _SIMPLE_LEVELS[n]
    if n == 1:
        level = {canonical_form(Multigraph(1)): (Multigraph(1), [])}
        _SIMPLE_LEVELS[1] = level
        return level
    prev = _simple_level(n - 1)
    seen: set[bytes] = set()
    level = {}
    for g, gens in prev.values():
        adj: list[list[int]] = [[] for _ in range(g.n)]
        for u, v in g.edges:
            adj[u].append(v)
            adj[v].append(u)
        eligible = [v for v, a in enumerate(adj) if len(a) < 3]
        for k in (1, 2, 3):
            subsets = itertools.combinations(eligible, k)
            if gens:
                # an automorphism of g maps s to a subset s' with g + s'
                # isomorphic to g + s, so both pass the tests below or neither
                subsets = _first_of_orbits(
                    subsets, lambda s: [tuple(sorted(p[v] for v in s)) for p in gens]
                )
            for s in subsets:
                if not _is_canonical_deletion(adj, s):
                    continue
                new = Multigraph(n, g.edges + tuple((v, n - 1) for v in s))
                autos: list[tuple[int, ...]] = []
                cf = canonical_form(new, autos)
                if cf in seen:
                    continue
                seen.add(cf)
                # extensions of non-planar graphs stay non-planar, so only
                # planar graphs enter the level
                if structure.is_planar(new):
                    level[cf] = (new, autos)
    _SIMPLE_LEVELS[n] = level
    return level


def _multi_decorations(
    backbone: Multigraph, gens: Sequence[tuple[int, ...]] = ()
) -> Iterator[Multigraph]:
    """Subcubic multigraphs whose underlying simple graph is `backbone`, all
    of them or the first of each orbit of the group `gens` generate.  A
    decoration is the extra copies of each edge and the set of looped
    vertices; neither affects planarity or connectivity."""
    deg = backbone.degrees()
    edges = backbone.edges

    def decorations() -> Iterator[tuple[frozenset, frozenset]]:
        caps = [min(2, 3 - deg[u], 3 - deg[v]) for u, v in edges]
        for extra in itertools.product(*(range(c + 1) for c in caps)):
            used = list(deg)
            for (u, v), x in zip(edges, extra):
                used[u] += x
                used[v] += x
            if max(used, default=0) <= 3:
                added = frozenset((e, x) for e, x in zip(edges, extra) if x)
                loop_cands = [v for v, d in enumerate(used) if d <= 1]
                for r in range(len(loop_cands) + 1):
                    for ls in itertools.combinations(loop_cands, r):
                        yield added, frozenset(ls)

    def images(d: tuple) -> list[tuple]:
        added, ls = d
        return [
            (
                frozenset(((min(p[u], p[v]), max(p[u], p[v])), x) for (u, v), x in added),
                frozenset(p[v] for v in ls),
            )
            for p in gens
        ]

    for added, ls in _first_of_orbits(decorations(), images) if gens else decorations():
        extra = dict(added)
        multi = [e for e in edges for _ in range(1 + extra.get(e, 0))]
        yield Multigraph(backbone.n, tuple(multi) + tuple((v, v) for v in sorted(ls)))


def generate_corpus(spec: CorpusSpec) -> Iterator[Multigraph]:
    """Stream of pairwise non-isomorphic connected graphs, deterministic order.

    Within each n, simple graphs come in canonical-form order; multigraphs
    come backbone by backbone, in the backbones' canonical-form order, and
    each backbone's decorations in enumeration order."""
    for n in range(1, spec.max_n + 1):
        level = _simple_level(n)
        for cf in sorted(level):
            g, gens = level[cf]
            if spec.cls == "subcubic-planar-multi":
                yield from _multi_decorations(g, gens)
            elif spec.cls == "subcubic-planar-simple" or g.is_cubic():
                yield g


def graph_digest(g: Multigraph) -> str:
    return hashlib.sha256(canonical_form(g)).hexdigest()[:16]


# -- per-graph verification -------------------------------------------------


# checks whose failure would contradict a theorem (assertion-level) versus
# checks of open conjectures (reported, never asserted)
ASSERT_CHECKS = ("jones2", "triple", "munaro")
CONJECTURE_CHECKS = ("facepack2",)


@dataclass(frozen=True)
class VerificationRecord:
    graph_id: str
    n: int
    m: int
    flags: dict[str, bool]
    values: dict[str, int]
    checks: dict[str, bool]
    wall_time: dict[str, float]
    skipped: tuple[str, ...] = ()

    def assertion_failures(self) -> list[str]:
        return [k for k, ok in self.checks.items() if not ok and k in ASSERT_CHECKS]

    def conjecture_violations(self) -> list[str]:
        return [k for k, ok in self.checks.items() if not ok and k in CONJECTURE_CHECKS]

    def to_dict(self) -> dict:
        return {
            "graph_id": self.graph_id,
            "n": self.n,
            "m": self.m,
            "flags": self.flags,
            "values": self.values,
            "checks": self.checks,
            "wall_time": {k: round(v, 6) for k, v in self.wall_time.items()},
            "skipped": list(self.skipped),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def run_checks(g: Multigraph, time_limit_s: float | None = 60.0) -> VerificationRecord:
    ess4, cyc4 = structure.small_cut_flags(g)
    flags = {
        "planar": structure.is_planar(g),
        "subcubic": g.is_subcubic(),
        "cubic": g.is_cubic(),
        "simple": g.is_simple(),
        "cyclically_4ec": cyc4,
        "essentially_4ec": ess4,
    }
    values: dict[str, int] = {}
    wall: dict[str, float] = {}
    skipped: list[str] = []

    def timed(name, fn, *args, **kw):
        t0 = time.monotonic()
        try:
            res = fn(*args, **kw)
        except solvers.SolverLimit:
            skipped.append(name)
            return None
        finally:
            wall[name] = time.monotonic() - t0
        return res

    fvs = timed("fvs", solvers.fvs_exact, g, time_limit_s=time_limit_s)
    cp = timed("cp", solvers.cp_exact, g, time_limit_s=time_limit_s)
    if fvs is not None:
        values["fvs"] = fvs.size
    if cp is not None:
        values["cp"] = cp.size

    # A simple 3-connected planar graph has one embedding (Whitney), so only
    # there is the face packing a value of the graph.  Connectivity is at
    # most the minimum degree.
    fp = None
    if flags["planar"]:
        flags["fp_is_exact"] = (
            flags["simple"]
            and min(g.degrees(), default=0) >= 3
            and structure.vertex_connectivity(g) >= 3
        )
        if flags["fp_is_exact"]:
            rot = structure.planar_embedding(g)
            fp = timed(
                "fp", solvers.fp_fixed_embedding, g, rot, time_limit_s=time_limit_s
            )
            if fp is not None:
                values["fp_fixed"] = fp.size

    checks: dict[str, bool] = {}
    if flags["planar"] and fvs is not None and cp is not None:
        checks["triple"] = fvs.size <= 3 * cp.size
        if flags["subcubic"]:
            checks["jones2"] = fvs.size <= 2 * cp.size
            if flags["simple"] and flags["cyclically_4ec"]:
                checks["munaro"] = fvs.size <= 2 * cp.size
    if fp is not None and fvs is not None:
        checks["facepack2"] = fvs.size <= 2 * fp.size
    return VerificationRecord(
        graph_id=graph_digest(g),
        n=g.n,
        m=g.m,
        flags=flags,
        values=values,
        checks=checks,
        wall_time=wall,
        skipped=tuple(skipped),
    )


# -- reduction pipeline ------------------------------------------------------


@dataclass(frozen=True)
class PipelineLeaf:
    graph: Multigraph
    label: str  # acyclic | essentially_4ec | small


@dataclass(frozen=True)
class PipelineResult:
    decompositions: tuple[reduction.Decomposition, ...]
    leaves: tuple[PipelineLeaf, ...]
    certificates: tuple[reduction.Certificate, ...] = ()


def _strip_low_degree(g: Multigraph) -> tuple[Multigraph, bool]:
    """Exhaustive degree-<=1 deletion and degree-2 suppression.

    Suppressing v changes no other degree (u trades vu for uw; if u = w it
    trades two edge ends for a loop), so no degree-<=1 vertex reappears and
    no vertex becomes suppressible.  The vertices below v keep their labels,
    so the scan for the next one resumes at v.  The degrees and looped
    vertices are kept here, so no intermediate graph computes its own.
    """
    cur, _, _ = reduction.delete_degree_le1(g)
    changed = cur.n != g.n
    deg = [0] * cur.n
    looped = [False] * cur.n
    for u, v in cur.edges:
        deg[u] += 1
        deg[v] += 1
        if u == v:
            looped[u] = True
    x = 0
    while x < cur.n:
        if deg[x] == 2 and not looped[x]:
            s = reduction.suppress_degree2(cur, x)
            cur = s.graph
            del deg[x], looped[x]
            if s.u == s.w:
                looped[s.u - (s.u > x)] = True
            changed = True
        else:
            x += 1
    return cur, changed


def reduce_pipeline(
    g: Multigraph, with_certificates: bool = False, time_limit_s: float | None = None
) -> PipelineResult:
    """Recursively reduce along low-degree vertices, bridges, 2-cuts and
    nontrivial 3-cuts until every leaf is acyclic, essentially 4-edge-connected
    or has at most 4 vertices.  `time_limit_s` bounds each solver call of the
    certificates; one over it raises `solvers.SolverLimit`.  Part solves go
    through `reduction`'s solve cache, per process, bounded, keyed by the
    time limit, so a part graph already solved is not solved again."""
    decs: list[reduction.Decomposition] = []
    leaves: list[PipelineLeaf] = []
    certs: list[reduction.Certificate] = []
    # every graph pushed later is a stripped component or a side of a
    # minimal cut, so it is connected too
    if g.is_connected():
        stack = [g]
    else:
        stack = [reduction._induced_part(g, comp).graph for comp in g.components()]
    while stack:
        h = stack.pop()
        reduced, changed = _strip_low_degree(h)
        if changed:
            decs.append(
                reduction.Decomposition(
                    "low_degree",
                    h,
                    (),
                    {"reduced": reduction.Part(reduced, (), ())},
                )
            )
            h = reduced
        if h.is_forest():
            leaves.append(PipelineLeaf(h, "acyclic"))
            continue
        cut = structure.find_first_cut(h)
        if cut is None:  # no bridge, 2-cut or nontrivial 3-cut remains
            leaves.append(PipelineLeaf(h, "small" if h.n <= 4 else "essentially_4ec"))
            continue
        k = len(cut.edges)
        if k == 1:
            d = reduction.split_bridge(h, cut.edges[0])
        elif k == 2:
            d = reduction.split_2cut(h, cut)
        else:
            d = reduction.decompose_3cut(h, cut)
        decs.append(d)
        if with_certificates:
            certs.append(reduction.certify(d, time_limit_s))
        sides = ("G1p", "G2p") if k == 2 else ("G1", "G2")
        stack.extend(d.parts[side].graph for side in sides)
    return PipelineResult(tuple(decs), tuple(leaves), tuple(certs))
