"""Exact-parent reference for the cut certificates of `jonescheck.reduction`.

`reduction.certify` takes the parent's fvs and cp from its parts' lifted
witnesses.  This oracle solves the parent and every part with the exact
solvers instead, and builds the entries from those sizes with the same
entry builders, so two certificates compare entry for entry.
"""

from __future__ import annotations

from jonescheck import reduction
from jonescheck.solvers import cp_exact, fvs_exact

_ENTRIES = {
    "bridge": reduction._bridge_certificate,
    "cut2": reduction._cut2_certificate,
    "cut3": reduction._cut3_certificate,
}


def solved_sizes(
    d: reduction.Decomposition, time_limit_s: float | None = None
) -> tuple[dict[str, int], dict[str, int]]:
    """fvs and cp sizes of the parent, under key "G", and of every part."""
    graphs = {"G": d.parent, **{k: p.graph for k, p in d.parts.items()}}
    f = {k: fvs_exact(h, time_limit_s=time_limit_s).size for k, h in graphs.items()}
    c = {k: cp_exact(h, time_limit_s=time_limit_s).size for k, h in graphs.items()}
    return f, c


def certify(d: reduction.Decomposition) -> reduction.Certificate:
    return _ENTRIES[d.kind](*solved_sizes(d))
