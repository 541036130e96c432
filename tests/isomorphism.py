"""Isomorphism test for the test suite: equal canonical forms."""

from __future__ import annotations

from jonescheck.canonical import canonical_form
from jonescheck.multigraph import Multigraph


def are_isomorphic(g: Multigraph, h: Multigraph) -> bool:
    if g.n != h.n or g.m != h.m:
        return False
    return canonical_form(g) == canonical_form(h)
