"""Immutable undirected multigraph with loops, parallel edges and stable edge ids.

Edges are stored as an ordered tuple of (u, v) endpoint pairs with u <= v;
the edge id of an edge is its index in that tuple, so ids are always dense
in [0, m).  Every editing operation returns a new graph together with maps
relating the new vertex/edge indices to the old ones, so witnesses computed
on a derived graph can be translated back to the parent.

The public constructor checks every endpoint and normalizes each pair.  The
editing operations below build results whose edges are already in range and
normalized, so they use the private `Multigraph._trusted` instead, which
stores its arguments as given.  Only code that constructs such edges itself
may call it (this module and `reduction`); the randomized test in
`tests/test_multigraph.py` checks each caller against the public constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, NamedTuple


class _cached_property:
    """`functools.cached_property` without its per-instance lock, which
    Python 3.10 and 3.11 take on every first access.  The first access
    stores the value in the instance's `__dict__`, where later accesses find
    it before this non-data descriptor is consulted."""

    def __init__(self, func) -> None:
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


def _index_set(indices: Iterable[int]) -> tuple[int, ...]:
    """Sorted duplicate-free tuple of vertex or edge indices."""
    return tuple(sorted(set(indices)))


@dataclass(frozen=True)
class Multigraph:
    """Loop- and parallel-edge-capable undirected multigraph.

    `n` is the number of vertices (indices 0..n-1); `edges[i]` is the pair of
    endpoints of the edge with id `i`, normalized so that u <= v.
    """

    n: int
    edges: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError("vertex count must be non-negative")
        norm = []
        for u, v in self.edges:
            if not (0 <= u < self.n and 0 <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            norm.append((u, v) if u <= v else (v, u))
        object.__setattr__(self, "edges", tuple(norm))

    @classmethod
    def _trusted(cls, n: int, edges: tuple[tuple[int, int], ...]) -> "Multigraph":
        """The graph on `n` vertices with `edges`, a tuple of pairs u <= v in
        range, stored without the checks of the public constructor."""
        g = object.__new__(cls)
        fields = g.__dict__
        fields["n"] = n
        fields["edges"] = edges
        return g

    # -- basic accessors ---------------------------------------------------

    @property
    def m(self) -> int:
        return len(self.edges)

    @_cached_property
    def _degrees(self) -> tuple[int, ...]:
        deg = [0] * self.n
        for u, v in self.edges:
            deg[u] += 1
            deg[v] += 1  # a loop contributes 2
        return tuple(deg)

    def degree(self, v: int) -> int:
        return self._degrees[v]

    def degrees(self) -> tuple[int, ...]:
        return self._degrees

    @_cached_property
    def adjacency(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """For each vertex, sorted tuple of (neighbor, edge_id), loops excluded."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            if u != v:
                adj[u].append((v, eid))
                adj[v].append((u, eid))
        return tuple(tuple(sorted(a)) for a in adj)

    @_cached_property
    def loops(self) -> tuple[tuple[int, ...], ...]:
        """For each vertex, sorted tuple of loop edge ids."""
        lp: list[list[int]] = [[] for _ in range(self.n)]
        for eid, (u, v) in enumerate(self.edges):
            if u == v:
                lp[u].append(eid)
        return tuple(tuple(l) for l in lp)

    def is_subcubic(self) -> bool:
        return all(d <= 3 for d in self._degrees)

    def is_cubic(self) -> bool:
        return self.n > 0 and all(d == 3 for d in self._degrees)

    def is_simple(self) -> bool:
        seen = set()
        for u, v in self.edges:
            if u == v or (u, v) in seen:
                return False
            seen.add((u, v))
        return True

    # -- connectivity-level structure -------------------------------------

    @_cached_property
    def _component_labels(self) -> tuple[int, ...]:
        """Component of each vertex, numbered by their smallest vertices,
        from one union-find pass over the edges."""
        parent = list(range(self.n))
        for u, v in self.edges:
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            parent[u] = v
        label: dict[int, int] = {}
        out = []
        for v in range(self.n):
            r = v
            while parent[r] != r:
                r = parent[r]
            out.append(label.setdefault(r, len(label)))
        return tuple(out)

    def components(self) -> tuple[tuple[int, ...], ...]:
        labels = self._component_labels
        ncomp = max(labels) + 1 if labels else 0
        out: list[list[int]] = [[] for _ in range(ncomp)]
        for v, c in enumerate(labels):
            out[c].append(v)
        return tuple(tuple(c) for c in out)

    def component_count(self) -> int:
        labels = self._component_labels
        return max(labels) + 1 if labels else 0

    def is_connected(self) -> bool:
        return self.n <= 1 or self.component_count() == 1

    def is_forest(self) -> bool:
        """One union-find pass; a loop or a repeated pair closes a cycle."""
        parent = list(range(self.n))
        for u, v in self.edges:
            while parent[u] != u:
                parent[u] = u = parent[parent[u]]
            while parent[v] != v:
                parent[v] = v = parent[parent[v]]
            if u == v:
                return False
            parent[u] = v
        return True

    def underlying_simple(self) -> "Multigraph":
        """Simple graph on the same vertices: loops dropped, parallels merged."""
        seen = set()
        for u, v in self.edges:
            if u != v:
                seen.add((u, v))
        return Multigraph(self.n, tuple(sorted(seen)))


class EditResult(NamedTuple):
    """Graph produced by an editing operation plus index maps to the parent.

    vertex_map[i] is the parent index of the result's vertex i (or -1 for a
    freshly created vertex); edge_map[j] is the parent edge id of the result's
    edge j (or -1 for a freshly created edge).
    """

    graph: Multigraph
    vertex_map: tuple[int, ...]
    edge_map: tuple[int, ...]


def _check_vertices(g: Multigraph, w: Iterable[int]) -> tuple[int, ...]:
    w = _index_set(w)
    for v in w:
        if not (0 <= v < g.n):
            raise IndexError(f"vertex {v} out of range for n={g.n}")
    return w


def delete_vertices(g: Multigraph, w: Iterable[int]) -> EditResult:
    """Induced subgraph on the complement of w, with relabeling maps."""
    gone = set(_check_vertices(g, w))
    vmap = [v for v in range(g.n) if v not in gone]
    new_index = [-1] * g.n
    for i, v in enumerate(vmap):
        new_index[v] = i
    new_edges = []
    emap = []
    for eid, (u, v) in enumerate(g.edges):
        a, b = new_index[u], new_index[v]
        if a >= 0 and b >= 0:
            new_edges.append((a, b))
            emap.append(eid)
    return EditResult(
        Multigraph._trusted(len(vmap), tuple(new_edges)), tuple(vmap), tuple(emap)
    )


def delete_edges(g: Multigraph, f: Iterable[int]) -> EditResult:
    f = _index_set(f)
    for e in f:
        if not (0 <= e < g.m):
            raise IndexError(f"edge {e} out of range for m={g.m}")
    gone = set(f)
    new_edges = []
    emap = []
    for eid, uv in enumerate(g.edges):
        if eid not in gone:
            new_edges.append(uv)
            emap.append(eid)
    return EditResult(
        Multigraph._trusted(g.n, tuple(new_edges)), tuple(range(g.n)), tuple(emap)
    )


def add_edge(g: Multigraph, u: int, v: int) -> Multigraph:
    """New graph with an extra edge (id = old m); parallels and loops allowed."""
    if not (0 <= u < g.n and 0 <= v < g.n):
        raise IndexError(f"endpoint out of range for n={g.n}")
    return Multigraph._trusted(g.n, g.edges + ((u, v) if u <= v else (v, u),))


def contract_side_to_vertex(g: Multigraph, keep: Iterable[int]) -> EditResult:
    """Contract the complement of `keep` into one new vertex x.

    x gets index len(keep) (vertex_map entry -1).  Edges inside `keep`
    survive with their ids mapped; edges crossing the cut become edges to x;
    edges entirely outside `keep` vanish (no loops at x are created).
    """
    keep = _check_vertices(g, keep)
    kept = set(keep)
    if not kept or len(kept) == g.n:
        raise ValueError("both sides of the contraction must be nonempty")
    if not any((u in kept) != (v in kept) for u, v in g.edges):
        raise ValueError("no edges between the two sides")
    new_index = {v: i for i, v in enumerate(keep)}
    x = len(keep)
    new_edges = []
    emap = []
    for eid, (u, v) in enumerate(g.edges):
        inside = (u in kept) + (v in kept)
        if inside == 2:
            new_edges.append((new_index[u], new_index[v]))
            emap.append(eid)
        elif inside == 1:
            kept_end = u if u in kept else v
            new_edges.append((new_index[kept_end], x))
            emap.append(eid)
    vmap = tuple(keep) + (-1,)
    return EditResult(Multigraph._trusted(x + 1, tuple(new_edges)), vmap, tuple(emap))
