"""Percentiles by the nearest-rank rule, and the choice of tail percentile."""

from __future__ import annotations

import math

# candidate tail percentiles, highest first
TAIL_LADDER = (99.99, 99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def _rank(p: float, n: int) -> int:
    # the tolerance keeps float error in p * n from raising an exact rank
    return max(1, math.ceil(p * n / 100 - 1e-9))


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile of an ascending, non-empty sequence."""
    return sorted_values[_rank(p, len(sorted_values)) - 1]


def tail_percentile(n: int) -> float:
    """Highest ladder percentile that leaves at least MIN_BEYOND of n samples
    above its nearest rank."""
    for p in TAIL_LADDER:
        if n - _rank(p, n) >= MIN_BEYOND:
            return p
    raise ValueError(f"{n} samples are too few for a tail percentile")
