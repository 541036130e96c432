"""Reference generators for the corpus classes, used to cross-check the
pruned loops in `jonescheck.harness`.

`simple_levels` is the earlier unpruned level loop: every child P + x of
every graph P of level n-1, with x joined to 1-3 vertices of degree < 3, is
canonicalized, and the first child of each new class is kept if it is
planar.  Levels are built afresh on each call, so nothing is shared with
the harness's cache.

`multi_level` is the earlier multigraph route: every decoration of every
backbone is canonicalized and deduped by canonical form.
"""

from __future__ import annotations

import itertools

from jonescheck import harness, structure
from jonescheck.canonical import canonical_form
from jonescheck.multigraph import Multigraph


def simple_levels(max_n: int) -> tuple[list[dict[bytes, Multigraph]], int]:
    """Levels 1..max_n, each a dict from canonical form to a representative,
    and the number of children canonicalized on the way."""
    levels = [{canonical_form(Multigraph(1)): Multigraph(1)}]
    children = 0
    for n in range(2, max_n + 1):
        seen: set[bytes] = set()
        level: dict[bytes, Multigraph] = {}
        for g in levels[-1].values():
            deg = g.degrees()
            eligible = [v for v in range(g.n) if deg[v] < 3]
            for k in (1, 2, 3):
                for s in itertools.combinations(eligible, k):
                    new = Multigraph(n, g.edges + tuple((v, n - 1) for v in s))
                    cf = canonical_form(new)
                    children += 1
                    if cf in seen:
                        continue
                    seen.add(cf)
                    if structure.is_planar(new):
                        level[cf] = new
        levels.append(level)
    return levels, children


def multi_level(backbones: dict[bytes, Multigraph]) -> dict[bytes, Multigraph]:
    """Every decoration of the backbones (a level of `simple_levels`), as a
    dict from canonical form to the first decoration of that class."""
    decorated: dict[bytes, Multigraph] = {}
    for _, backbone in sorted(backbones.items()):
        for g in harness._multi_decorations(backbone):
            decorated.setdefault(canonical_form(g), g)
    return decorated
