"""Cut-based decompositions with witness lifting and machine-checked certificates.

Each decomposition derives smaller graphs from a parent along a low-degree
vertex, a bridge, a 2-edge-cut or a nontrivial 3-edge-cut, keeping explicit
vertex/edge maps back to the parent so feedback sets and cycle packings can
be lifted and re-verified.  Certificates evaluate only inequalities that are
valid for arbitrary graphs; conditional equalities that hold just for a
hypothetical minimal counterexample are recorded as observations.

Part solves go through one solve cache per process, bounded and keyed by the
time limit (`_solve`), so a part graph that comes back, in one certificate,
in one `harness.reduce_pipeline` call or graph after graph, is solved once.
A certificate takes the parent's values from the parts' witnesses, lifted
and verified on the parent, by exact formulas (f, c: fvs, cp; Gi: side i;
Gi': side i plus the 2-cut's virtual edge; Gi_XY: side i plus the virtual
edge for 3-cut edges X, Y):
- bridge, which lies on no cycle: fvs = f(G1) + f(G2), cp = c(G1) + c(G2);
- 2-cut, whose crossing cycles use both cut edges:
  fvs = min(f(G1') + f(G2), f(G1) + f(G2')),
  cp = max(c(G1) + c(G2), c(G1') + c(G2') - 1);
- 3-cut: cp = max(c(G1) + c(G2), c(G1_XY) + c(G2_XY) - 1 over the pairs XY),
  as a packing holds at most one crossing cycle.  No part pins the 3-cut's
  fvs down, so it alone is still solved on the parent, through the cache.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .multigraph import (
    Multigraph,
    add_edge,
    contract_side_to_vertex,
    delete_edges,
    delete_vertices,
)
from .structure import EdgeCut
from .solvers import CyclePacking, FeedbackSet, cp_exact, fvs_exact


@dataclass(frozen=True)
class Part:
    """A derived graph with maps back to the parent.

    vertex_map[i] is the parent vertex of part vertex i (-1 for a contraction
    vertex); edge_map[j] is the parent edge of part edge j (-1 for a virtual
    edge); virtual_edges maps a virtual edge id to the parent cut-edge pair
    it stands in for.
    """

    graph: Multigraph
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]
    virtual_edges: dict[int, tuple[int, ...]] = field(default_factory=dict)

    def map_edges(self, edge_ids) -> tuple[int, ...]:
        out = []
        for e in edge_ids:
            p = self.edge_map[e]
            if p < 0:
                raise ValueError(f"edge {e} is virtual and has no parent edge")
            out.append(p)
        return tuple(out)

    def map_vertices(self, verts) -> tuple[int, ...]:
        out = []
        for v in verts:
            p = self.vertex_map[v]
            if p < 0:
                raise ValueError(f"vertex {v} is a contraction vertex")
            out.append(p)
        return tuple(sorted(out))


@dataclass(frozen=True)
class Decomposition:
    kind: str  # low_degree | bridge | cut2 | cut3
    parent: Multigraph
    cut: tuple[int, ...]  # parent edge ids, () for low_degree
    parts: dict[str, Part]
    boundary: dict[str, tuple[int, int, int]] = field(default_factory=dict)
    # boundary (3-cuts only): cut label -> (parent edge, end on side 1, end on side 2)


@dataclass(frozen=True)
class CertEntry:
    name: str
    left: int
    right: int
    relation: str  # "<=", ">=", "==", "=>"
    holds: bool


@dataclass(frozen=True)
class Certificate:
    entries: tuple[CertEntry, ...]
    observations: dict[str, bool] = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return all(e.holds for e in self.entries)

    def to_dict(self) -> dict:
        out = {
            "holds": self.holds,
            "entries": [
                {
                    "name": e.name,
                    "left": e.left,
                    "right": e.right,
                    "relation": e.relation,
                    "holds": e.holds,
                }
                for e in self.entries
            ],
        }
        out.update(self.observations)
        return out


def _entry(name: str, left: int, rel: str, right: int) -> CertEntry:
    ok = {"<=": left <= right, ">=": left >= right, "==": left == right}[rel]
    return CertEntry(name, left, right, rel, ok)


def _induced_part(g: Multigraph, verts: tuple[int, ...]) -> Part:
    keep = set(verts)
    gone = [v for v in range(g.n) if v not in keep]
    res = delete_vertices(g, gone)
    return Part(res.graph, res.vertex_map, res.edge_map)


def _with_virtual_edge(part: Part, u: int, v: int, tag: tuple[int, ...]) -> Part:
    h = add_edge(part.graph, u, v)
    new_id = h.m - 1
    return Part(
        h,
        part.vertex_map,
        part.edge_map + (-1,),
        dict(part.virtual_edges) | {new_id: tag},
    )


# -- low-degree reductions -------------------------------------------------


@dataclass(frozen=True)
class SuppressedVertex:
    """Result of suppressing a degree-2 vertex v: G' = G - v + uw."""

    parent: Multigraph
    graph: Multigraph
    suppressed: int
    u: int
    w: int
    vertex_map: tuple[int, ...]  # child vertex -> parent vertex
    edge_map: tuple[int, ...]  # child edge -> parent edge, -1 for the new uw edge
    virtual_edge: int  # child edge id of uw
    removed_edges: tuple[int, int]  # the parent edges vu, vw


def suppress_degree2(g: Multigraph, v: int) -> SuppressedVertex:
    inc, edges, emap = [], [], []  # one pass builds G - v
    for eid, (a, b) in enumerate(g.edges):
        if v in (a, b):
            inc.append((eid, a if b == v else b))
        else:
            edges.append((a - (a > v), b - (b > v)))
            emap.append(eid)
    if len(inc) != 2 or v in (inc[0][1], inc[1][1]):  # a loop at v has v at both ends
        raise ValueError(f"vertex {v} does not have two non-loop incident edges")
    (e1, u), (e2, w) = inc
    a, b = u - (u > v), w - (w > v)
    edges.append((a, b) if a <= b else (b, a))  # u = w gives a loop
    child = Multigraph._trusted(g.n - 1, tuple(edges))
    return SuppressedVertex(
        parent=g,
        graph=child,
        suppressed=v,
        u=u,
        w=w,
        vertex_map=(*range(v), *range(v + 1, g.n)),
        edge_map=tuple(emap) + (-1,),
        virtual_edge=child.m - 1,
        removed_edges=(e1, e2),
    )


def delete_degree_le1(g: Multigraph):
    """Strip degree <= 1 vertices until none is left, peeling with a queue;
    fvs and cp are unchanged."""
    deg = list(g.degrees())
    queue = [v for v in range(g.n) if deg[v] <= 1]
    if not queue:
        return g, tuple(range(g.n)), tuple(range(g.m))
    gone = set(queue)
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edges:
        if u != v:
            nbrs[u].append(v)
            nbrs[v].append(u)
    while queue:
        for y in nbrs[queue.pop()]:
            deg[y] -= 1
            if deg[y] <= 1 and y not in gone:
                gone.add(y)
                queue.append(y)
    res = delete_vertices(g, gone)
    return res.graph, res.vertex_map, res.edge_map


def _solve_parts(
    d: Decomposition, time_limit_s: float | None
) -> tuple[dict[str, FeedbackSet], dict[str, CyclePacking]]:
    """Exact fvs and cp witnesses of the parts a certificate reads (no
    packing of a contracted part), through the solve cache of `_solve`: per
    process, bounded, keyed by the time limit."""
    f = {k: _solve(fvs_exact, p.graph, time_limit_s) for k, p in d.parts.items()}
    c = {
        k: _solve(cp_exact, p.graph, time_limit_s)
        for k, p in d.parts.items()
        if not k.endswith("_ABC")
    }
    return f, c


@lru_cache(maxsize=4096)
def _solve(solver, h: Multigraph, time_limit_s: float | None):
    """`solver(h)`'s witness, cached per process, bounded, keyed by the time
    limit: a part graph that comes back (the two sides of a symmetric cut,
    or the same tiny part graph after graph) is solved once.  A hit is the
    witness the same solver gave under the same limit on an equal graph
    (`Multigraph` compares by n and edges); a `SolverLimit` is not cached."""
    return solver(h, time_limit_s=time_limit_s)


def _sizes(witnesses: dict) -> dict[str, int]:
    return {k: w.size for k, w in witnesses.items()}


def _lift_fvs(d: Decomposition, sets: dict[str, FeedbackSet], k1: str, k2: str) -> FeedbackSet:
    """The union of the feedback sets of the parts k1 and k2, one per side,
    as a feedback set of the parent."""
    verts = [v for k in (k1, k2) for v in d.parts[k].map_vertices(sets[k].vertices)]
    out = FeedbackSet(tuple(sorted(verts)), len(verts))
    out.verify(d.parent)
    return out


def _lift_packing(
    d: Decomposition, packings: dict[str, CyclePacking], k1: str, k2: str
) -> CyclePacking:
    """The packings of the parts k1 and k2, one per side, as a packing of the
    parent.  A part may carry one virtual edge, standing for two cut edges;
    when both packings hold a cycle through their virtual edge, the two
    merge into one parent cycle through those cut edges (size p1 + p2 - 1),
    and otherwise only the cycles avoiding the virtual edges transfer."""
    cycles: list[tuple[int, ...]] = []
    halves: list[tuple[int, ...]] = []
    for key in (k1, k2):
        part = d.parts[key]
        for cyc in packings[key].cycles:
            virtual = [e for e in cyc if e in part.virtual_edges]
            if virtual:
                tag = part.virtual_edges[virtual[0]]
                halves.append(part.map_edges(e for e in cyc if e != virtual[0]))
            else:
                cycles.append(part.map_edges(cyc))
    if len(halves) == 2:
        cycles.append(tuple(sorted(halves[0] + halves[1] + tag)))
    out = CyclePacking(tuple(sorted(cycles)), len(cycles))
    out.verify(d.parent)
    return out


# -- bridges ---------------------------------------------------------------


def _require_connected(g: Multigraph) -> None:
    # other components would fall out of every part, and no lifted witness
    # would cover them
    if not g.is_connected():
        raise ValueError("a decomposition needs a connected parent")


def split_bridge(g: Multigraph, e: int) -> Decomposition:
    _require_connected(g)
    h = delete_edges(g, (e,)).graph
    if h.component_count() <= g.component_count():
        raise ValueError(f"edge {e} is not a bridge")
    u, v = g.edges[e]
    labels = h._component_labels
    side1 = tuple(x for x in range(g.n) if labels[x] == labels[u])
    side2 = tuple(x for x in range(g.n) if labels[x] == labels[v])
    if side2 < side1:
        side1, side2 = side2, side1
    parts = {"G1": _induced_part(g, side1), "G2": _induced_part(g, side2)}
    return Decomposition("bridge", g, (e,), parts)


def check_bridge_certificate(d: Decomposition, time_limit_s: float | None = None) -> Certificate:
    fw, cw = _solve_parts(d, time_limit_s)
    f, c = _sizes(fw), _sizes(cw)
    f["G"] = _lift_fvs(d, fw, "G1", "G2").size
    c["G"] = _lift_packing(d, cw, "G1", "G2").size
    return _bridge_certificate(f, c)


def _bridge_certificate(f: dict[str, int], c: dict[str, int]) -> Certificate:
    return Certificate(
        (
            _entry("fvs_union", f["G"], "<=", f["G1"] + f["G2"]),
            _entry("cp_union", c["G"], ">=", c["G1"] + c["G2"]),
        )
    )


# -- 2-edge-cuts -----------------------------------------------------------


def split_2cut(g: Multigraph, cut: EdgeCut) -> Decomposition:
    if len(cut.edges) != 2:
        raise ValueError("cut must have exactly 2 edges")
    _require_connected(g)
    e1, e2 = cut.edges
    side1, side2 = cut.side_a, cut.side_b
    in1 = set(side1)

    def ends(e: int) -> tuple[int, int]:
        a, b = g.edges[e]
        return (a, b) if a in in1 else (b, a)

    u1, u2 = ends(e1)
    v1, v2 = ends(e2)
    p1 = _induced_part(g, side1)
    p2 = _induced_part(g, side2)
    idx1 = {p: c for c, p in enumerate(p1.vertex_map)}
    idx2 = {p: c for c, p in enumerate(p2.vertex_map)}
    parts = {
        "G1": p1,
        "G2": p2,
        "G1p": _with_virtual_edge(p1, idx1[u1], idx1[v1], (e1, e2)),
        "G2p": _with_virtual_edge(p2, idx2[u2], idx2[v2], (e1, e2)),
    }
    return Decomposition("cut2", g, (e1, e2), parts)


def check_cut2_certificate(d: Decomposition, time_limit_s: float | None = None) -> Certificate:
    fw, cw = _solve_parts(d, time_limit_s)
    f, c = _sizes(fw), _sizes(cw)
    # the union that includes the virtual-edge side; the merge when both gain
    sides = ("G1p", "G2") if f["G1p"] + f["G2"] <= f["G1"] + f["G2p"] else ("G1", "G2p")
    f["G"] = _lift_fvs(d, fw, *sides).size
    sides = ("G1p", "G2p") if c["G1p"] + c["G2p"] - 1 > c["G1"] + c["G2"] else ("G1", "G2")
    c["G"] = _lift_packing(d, cw, *sides).size
    return _cut2_certificate(f, c)


def _cut2_certificate(f: dict[str, int], c: dict[str, int]) -> Certificate:
    fvs_g, cp_g = f["G"], c["G"]
    entries = [
        _entry("cp_sandwich_1_lo", c["G1"], "<=", c["G1p"]),
        _entry("cp_sandwich_1_hi", c["G1p"], "<=", c["G1"] + 1),
        _entry("cp_sandwich_2_lo", c["G2"], "<=", c["G2p"]),
        _entry("cp_sandwich_2_hi", c["G2p"], "<=", c["G2"] + 1),
        _entry("fvs_virtual_1", fvs_g, "<=", f["G1p"] + f["G2"]),
        _entry("fvs_virtual_2", fvs_g, "<=", f["G2p"] + f["G1"]),
        _entry("fvs_plus_one", fvs_g, "<=", f["G1"] + f["G2"] + 1),
        _entry("cp_union", cp_g, ">=", c["G1"] + c["G2"]),
    ]
    return Certificate(tuple(entries))


# -- nontrivial 3-edge-cuts ------------------------------------------------

_PAIRS = {"AB": ("A", "B"), "AC": ("A", "C"), "BC": ("B", "C")}


def decompose_3cut(g: Multigraph, cut: EdgeCut) -> Decomposition:
    if len(cut.edges) != 3 or cut.trivial:
        raise ValueError("cut must be a nontrivial 3-edge-cut")
    _require_connected(g)
    e_a, e_b, e_c = cut.edges
    side1, side2 = cut.side_a, cut.side_b
    in1 = set(side1)

    def ends(e: int) -> tuple[int, int]:
        a, b = g.edges[e]
        return (a, b) if a in in1 else (b, a)

    boundary = {lab: (e,) + ends(e) for lab, e in zip("ABC", (e_a, e_b, e_c))}
    p1 = _induced_part(g, side1)
    p2 = _induced_part(g, side2)
    parts = {"G1": p1, "G2": p2}
    for i, (part, side) in enumerate(((p1, 1), (p2, 2)), start=1):
        idx = {p: c for c, p in enumerate(part.vertex_map)}
        for pair, (la, lb) in _PAIRS.items():
            ea, ua1, ua2 = boundary[la]
            eb, ub1, ub2 = boundary[lb]
            ua = ua1 if i == 1 else ua2
            ub = ub1 if i == 1 else ub2
            parts[f"G{i}_{pair}"] = _with_virtual_edge(part, idx[ua], idx[ub], (ea, eb))
    # G_i^{ABC}: contract the other side into one vertex x
    for i, side in ((1, side1), (2, side2)):
        res = contract_side_to_vertex(g, side)
        parts[f"G{i}_ABC"] = Part(res.graph, res.vertex_map, res.edge_map)
    return Decomposition("cut3", g, (e_a, e_b, e_c), parts, boundary)


def tree_median(t: Multigraph, u: int, v: int, w: int) -> int:
    """The unique common vertex of the three pairwise paths in a forest."""
    if not t.is_forest():
        raise ValueError("carrier graph is not a forest")
    paths = [_forest_path(t, a, b) for a, b in ((u, v), (v, w), (w, u))]
    common = set(paths[0]) & set(paths[1]) & set(paths[2])
    if len(common) != 1:
        raise AssertionError(f"expected a single median vertex, got {sorted(common)}")
    return common.pop()


def _forest_path(t: Multigraph, a: int, b: int) -> tuple[int, ...]:
    if a == b:
        return (a,)
    prev = {a: -1}
    queue = [a]
    while queue:
        nxt = []
        for x in queue:
            for y, _ in t.adjacency[x]:
                if y not in prev:
                    prev[y] = x
                    nxt.append(y)
        queue = nxt
    if b not in prev:
        raise ValueError(f"vertices {a} and {b} are in different components")
    path = [b]
    while path[-1] != a:
        path.append(prev[path[-1]])
    return tuple(reversed(path))


def lift_fvs_3cut(
    d: Decomposition, s_abc: FeedbackSet, s_other: FeedbackSet, i: int = 1
) -> FeedbackSet:
    """Parent feedback set of size <= s_abc.size + s_other.size.

    s_abc is a feedback set of G_i^{ABC}, s_other one of G_{3-i}.  When the
    contraction vertex x is in s_abc, the forest left on the other side may
    still connect the boundary vertices; one extra vertex (a tree median for
    three boundary survivors, a path vertex for two) breaks every such
    connection.
    """
    if d.kind != "cut3":
        raise ValueError("decomposition is not a 3-cut")
    part_abc = d.parts[f"G{i}_ABC"]
    part_other = d.parts[f"G{3 - i}"]
    s_abc.verify(part_abc.graph)
    s_other.verify(part_other.graph)
    x = part_abc.vertex_map.index(-1)

    chosen: set[int] = set(part_other.map_vertices(s_other.vertices))
    if x not in s_abc.vertices:
        chosen |= set(part_abc.map_vertices(s_abc.vertices))
    else:
        chosen |= set(
            part_abc.map_vertices(v for v in s_abc.vertices if v != x)
        )
        # boundary survivors on the other side, in part-local indices
        inv = {p: c for c, p in enumerate(part_other.vertex_map)}
        forest = delete_vertices(part_other.graph, s_other.vertices)
        back = forest.vertex_map  # forest vertex -> part vertex
        fidx = {part: fv for fv, part in enumerate(back)}
        survivors = []
        for lab in "ABC":
            _, b1, b2 = d.boundary[lab]
            b = b1 if (3 - i) == 1 else b2
            local = inv[b]
            if local in fidx:
                survivors.append(fidx[local])
        t = forest.graph
        labels = t._component_labels
        by_comp: dict[int, list[int]] = {}
        for s in survivors:
            by_comp.setdefault(labels[s], []).append(s)
        for group in by_comp.values():
            if len(group) == 3:
                breaker = tree_median(t, *group)
            elif len(group) == 2:
                breaker = min(_forest_path(t, group[0], group[1]))
            else:
                continue
            chosen.add(part_other.vertex_map[back[breaker]])
    out = FeedbackSet(tuple(sorted(chosen)), len(chosen))
    out.verify(d.parent)
    if out.size > s_abc.size + s_other.size:
        raise AssertionError("lifted feedback set exceeds the size bound")
    return out


def check_cut3_certificate(d: Decomposition, time_limit_s: float | None = None) -> Certificate:
    """Evaluate the universally valid inequalities around a nontrivial 3-cut.

    The conditional equalities that hold only for a minimal counterexample
    are recorded as observations (eq1..eq4), never asserted.
    """
    if d.kind != "cut3":
        raise ValueError("decomposition is not a 3-cut")
    fw, cw = _solve_parts(d, time_limit_s)
    f, c = _sizes(fw), _sizes(cw)
    f["G"] = _solve(fvs_exact, d.parent, time_limit_s).size
    # the union, or the merge through the cut edges of a pair where both gain
    gain = [p for p in _PAIRS if c[f"G1_{p}"] + c[f"G2_{p}"] - 1 > c["G1"] + c["G2"]]
    sides = (f"G1_{gain[0]}", f"G2_{gain[0]}") if gain else ("G1", "G2")
    c["G"] = _lift_packing(d, cw, *sides).size
    return _cut3_certificate(f, c)


def _cut3_certificate(f: dict[str, int], c: dict[str, int]) -> Certificate:
    fvs_g, cp_g = f["G"], c["G"]

    complement = {"A": "BC", "B": "AC", "C": "AB"}
    entries = [_entry("a_cp_union", cp_g, ">=", c["G1"] + c["G2"])]
    for i in (1, 2):
        entries.append(
            _entry(f"b_fvs_abc_{i}", fvs_g, "<=", f[f"G{i}_ABC"] + f[f"G{3 - i}"])
        )
    entries.append(_entry("c_fvs_plus_one", fvs_g, "<=", f["G1"] + f["G2"] + 1))
    for i in (1, 2):
        for x in "ABC":
            rhs = f[f"G{i}_{complement[x]}"] + max(
                f[f"G{3 - i}_{complement[y]}"] for y in "ABC" if y != x
            )
            entries.append(_entry(f"d_item_i_{i}{x}", fvs_g, "<=", rhs))
    for pair in _PAIRS:
        premise = (
            c[f"G1_{pair}"] == c["G1"] + 1 and c[f"G2_{pair}"] == c["G2"] + 1
        )
        conclusion = cp_g >= c["G1"] + c["G2"] + 1
        entries.append(
            CertEntry(
                f"e_item_iii_{pair}",
                int(premise),
                int(conclusion),
                "=>",
                (not premise) or conclusion,
            )
        )
    for i in (1, 2):
        for pair in _PAIRS:
            entries.append(
                _entry(f"f_cp_sandwich_{i}{pair}_lo", c[f"G{i}"], "<=", c[f"G{i}_{pair}"])
            )
            entries.append(
                _entry(
                    f"f_cp_sandwich_{i}{pair}_hi", c[f"G{i}_{pair}"], "<=", c[f"G{i}"] + 1
                )
            )
    observations = {
        "eq1": all(f[f"G{i}_ABC"] == f[f"G{i}"] + 1 for i in (1, 2)),
        "eq2": all(f[f"G{i}"] == 2 * c[f"G{i}"] for i in (1, 2)),
        "eq3": fvs_g == f["G1"] + f["G2"] + 1,
        "eq4": cp_g == c["G1"] + c["G2"],
    }
    return Certificate(tuple(entries), observations)


def certify(d: Decomposition, time_limit_s: float | None = None) -> Certificate:
    """The certificate of a decomposition (empty for a low-degree one).  The
    parent's values come from lifted, verified part witnesses: bridge
    fvs = f1 + f2, cp = c1 + c2; 2-cut fvs = min(f(G1') + f2, f1 + f(G2')),
    cp = max(c1 + c2, c(G1') + c(G2') - 1); 3-cut cp = max(c1 + c2,
    c(G1_XY) + c(G2_XY) - 1).  The 3-cut fvs is still solved on the parent.
    `time_limit_s` bounds each solver call; one over it raises `SolverLimit`.
    Part solves go through the solve cache of `_solve`: per process,
    bounded, keyed by the time limit."""
    if d.kind == "bridge":
        return check_bridge_certificate(d, time_limit_s)
    if d.kind == "cut2":
        return check_cut2_certificate(d, time_limit_s)
    if d.kind == "cut3":
        return check_cut3_certificate(d, time_limit_s)
    return Certificate(())
