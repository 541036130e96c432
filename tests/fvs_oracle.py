"""Reference feedback vertex set search on a dict-of-dicts work graph, used to
cross-check `jonescheck.solvers.fvs_exact`.

`_Work`, `_reduce`, `_degree_lower_bound`, `_greedy_fvs` and `fvs_exact` are
the solver's earlier kernel kept word for word: `degree()` sums a dict on
every call and `has_edges()` scans every vertex.  It has no multi-start, so
on a graph where `multi_start_runs` is false the solver must return the same
witness, and on every graph the same size.
"""

from __future__ import annotations

from jonescheck.multigraph import Multigraph
from jonescheck.solvers import FeedbackSet, _check_deadline, _deadline


class _Work:
    """Mutable multigraph on original vertex labels for the FVS search."""

    __slots__ = ("adj", "nloops")

    def __init__(self, g: Multigraph | None = None):
        self.adj: dict[int, dict[int, int]] = {}
        self.nloops: dict[int, int] = {}
        if g is not None:
            self.adj = {v: {} for v in range(g.n)}
            self.nloops = {v: 0 for v in range(g.n)}
            for u, v in g.edges:
                if u == v:
                    self.nloops[u] += 1
                else:
                    self.adj[u][v] = self.adj[u].get(v, 0) + 1
                    self.adj[v][u] = self.adj[v].get(u, 0) + 1

    def copy(self) -> "_Work":
        w = _Work()
        w.adj = {v: dict(d) for v, d in self.adj.items()}
        w.nloops = dict(self.nloops)
        return w

    def degree(self, v: int) -> int:
        return sum(self.adj[v].values()) + 2 * self.nloops[v]

    def remove(self, v: int) -> None:
        for u in self.adj[v]:
            del self.adj[u][v]
        del self.adj[v]
        del self.nloops[v]

    def has_edges(self) -> bool:
        return any(self.adj[v] or self.nloops[v] for v in self.adj)


def _reduce(work: _Work, kept: set[int], chosen: list[int]) -> bool:
    """Apply loop/degree-1/degree-2 reductions to a fixpoint.

    Returns False if some kept vertex is forced into the feedback set.
    """
    changed = True
    while changed:
        changed = False
        for v in list(work.adj):
            if v not in work.adj:
                continue
            if work.nloops[v] > 0:
                if v in kept:
                    return False
                chosen.append(v)
                work.remove(v)
                changed = True
                continue
            d = work.degree(v)
            if d <= 1:
                work.remove(v)
                changed = True
            elif d == 2 and len(work.adj[v]) == 2:
                # bypass: distinct neighbors only; a parallel pair is left
                # for branching so no loop is created
                u, w = work.adj[v]
                work.remove(v)
                work.adj[u][w] = work.adj[u].get(w, 0) + 1
                work.adj[w][u] = work.adj[w].get(u, 0) + 1
                changed = True
    return True


def _degree_lower_bound(work: _Work, kept: frozenset[int]) -> int | None:
    """Least number of free vertices whose deletion can leave a forest.

    Deleting a vertex of degree d lowers the cyclomatic number m - n + c by
    at most d - 1, and degrees only fall as vertices go (Bafna, Berman and
    Fujito 1999).  So a feedback set avoiding `kept` has at least as many
    vertices as it takes of the largest d - 1 values to reach the cyclomatic
    number.  A loop counts twice in a degree, so half the degree sum is m
    with each loop once.  Returns None when all free vertices together fall
    short.
    """
    degree = {v: work.degree(v) for v in work.adj}
    comps = 0
    seen: set[int] = set()
    for s in work.adj:
        if s in seen:
            continue
        comps += 1
        seen.add(s)
        stack = [s]
        while stack:
            for y in work.adj[stack.pop()]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
    need = sum(degree.values()) // 2 - len(degree) + comps  # m - n + c
    if need <= 0:
        return 0
    drops = sorted((d - 1 for v, d in degree.items() if v not in kept), reverse=True)
    for k, d in enumerate(drops, 1):
        need -= d
        if need <= 0:
            return k
    return None


def _greedy_fvs(g: Multigraph) -> list[int]:
    work = _Work(g)
    chosen: list[int] = []
    while True:
        _reduce(work, set(), chosen)
        if not work.has_edges():
            return chosen
        v = max(work.adj, key=lambda x: (work.degree(x), -x))
        chosen.append(v)
        work.remove(v)


def fvs_exact(g: Multigraph, time_limit_s: float | None = None) -> FeedbackSet:
    """Minimum feedback vertex set by branch and bound with reductions."""
    deadline = _deadline(time_limit_s)
    best = sorted(_greedy_fvs(g))
    best_size = len(best)

    def search(work: _Work, chosen: list[int], kept: frozenset[int]) -> None:
        nonlocal best, best_size
        _check_deadline(deadline)
        if not _reduce(work, kept, chosen):
            return
        if len(chosen) >= best_size:
            return
        if not work.has_edges():
            best = sorted(chosen)
            best_size = len(chosen)
            return
        bound = _degree_lower_bound(work, kept)
        if bound is None or len(chosen) + bound >= best_size:
            return  # the free vertices cannot break every cycle, or beat best
        cands = [v for v in work.adj if v not in kept]
        v = max(cands, key=lambda x: (work.degree(x), -x))
        in_branch = work.copy()
        in_branch.remove(v)
        search(in_branch, chosen + [v], kept)
        search(work, list(chosen), kept | {v})

    search(_Work(g), [], frozenset())
    fs = FeedbackSet(tuple(best), best_size)
    fs.verify(g)
    return fs


def multi_start_runs(g: Multigraph) -> bool:
    """Whether `solvers.fvs_exact` runs its multi-start on g: the reduced
    root has every vertex of degree 3 and the greedy incumbent lies above
    the root's degree bound."""
    work = _Work(g)
    forced: list[int] = []
    _reduce(work, set(), forced)
    if not work.has_edges() or any(work.degree(v) != 3 for v in work.adj):
        return False
    bound = _degree_lower_bound(work, frozenset())
    return len(_greedy_fvs(g)) > len(forced) + bound
