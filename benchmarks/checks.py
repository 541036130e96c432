"""Output checks of the benchmark, written without the code under test.

Witnesses are re-checked here from plain edge lists, because the solvers'
own `verify()` methods are part of what is being measured.  Fingerprints
leave out canonical graph ids, which may change without changing an answer.
"""

from __future__ import annotations

import hashlib
import json
import operator
from collections import Counter

LEAF_LABELS = frozenset({"acyclic", "essentially_4ec", "small"})

_RELATIONS = {"<=": operator.le, ">=": operator.ge, "==": operator.eq}


def _digest(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:12]


def shape_fingerprint(n: int, edges) -> str:
    """Fingerprint of (n, m, sorted degree sequence), independent of labels."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return _digest([n, len(edges), sorted(deg)])


def record_fingerprint(rec: dict) -> str:
    """Fingerprint of a `verify` record: (n, m, values, checks).

    The face-packing value of a graph that is not 3-connected depends on
    which planar embedding was chosen, so it is kept only where the record
    marks it exact.
    """
    values = dict(rec["values"])
    if not rec["flags"].get("fp_is_exact"):
        values.pop("fp_fixed", None)
    return _digest([rec["n"], rec["m"], values, rec["checks"]])


def unmatched(expected, got) -> int:
    """Size of the larger one-sided difference of two multisets."""
    e, g = Counter(expected), Counter(got)
    return max(sum((e - g).values()), sum((g - e).values()))


def is_forest_after_removal(n: int, edges, removed) -> bool:
    """Whether deleting the vertices `removed` leaves no cycle (loops and
    parallel pairs count as cycles)."""
    gone = set(removed)
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        if u in gone or v in gone:
            continue
        ru, rv = find(u), find(v)
        if ru == rv:
            return False
        parent[ru] = rv
    return True


def is_cycle(edges, edge_ids) -> bool:
    """Whether the edge ids form one cycle: a loop, or a connected edge set
    on which every vertex has degree exactly two."""
    ids = list(edge_ids)
    if not ids or len(set(ids)) != len(ids):
        return False
    if any(not (0 <= e < len(edges)) for e in ids):
        return False
    if len(ids) == 1:
        u, v = edges[ids[0]]
        return u == v
    adj: dict[int, list[int]] = {}
    for e in ids:
        u, v = edges[e]
        if u == v:
            return False
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    if any(len(nb) != 2 for nb in adj.values()):
        return False
    start = next(iter(adj))
    seen, stack = {start}, [start]
    while stack:
        for y in adj[stack.pop()]:
            if y not in seen:
                seen.add(y)
                stack.append(y)
    return len(seen) == len(adj)


def packing_ok(edges, cycles) -> bool:
    """Whether `cycles` (edge id lists) are cycles with no vertex in common."""
    used: set[int] = set()
    for ids in cycles:
        if not is_cycle(edges, ids):
            return False
        verts = {w for e in ids for w in edges[e]}
        if used & verts:
            return False
        used |= verts
    return True


def certificate_ok(cert: dict) -> bool:
    """Whether every entry of a certificate holds, re-evaluated from its
    numbers; `=>` entries read left as the premise and right as the
    conclusion."""
    for e in cert["entries"]:
        if e["relation"] == "=>":
            ok = (not e["left"]) or bool(e["right"])
        else:
            ok = _RELATIONS[e["relation"]](e["left"], e["right"])
        if not (ok and e["holds"]):
            return False
    return bool(cert["holds"])
