"""Order statistics for the benchmark report."""

from __future__ import annotations

import math
from typing import Sequence

# Percentiles the report may quote for a tail, highest first.
TAIL_LADDER = (99.0, 95.0, 90.0, 75.0, 50.0)


def percentile(sorted_values: Sequence[float], p: float) -> float:
    """Kernel estimate of the ``p``-th percentile of an ascending, nonempty
    sequence: the mean of the order statistics, weighted by a Gaussian in
    rank around ``p/100 * n + 1/2`` whose width is the standard deviation
    of that rank, ``sqrt(n p/100 (1 - p/100))``.  This is the normal
    approximation of the Harrell-Davis estimator.  Unlike the nearest
    rank, it does not jump from one sample to the next when a few ops
    change places, which matters on ``verify-desk``: its 66 checks range
    from microseconds to seconds."""
    n = len(sorted_values)
    if not n:
        raise ValueError("percentile of no samples")
    q = p / 100.0
    centre = q * n + 0.5
    width = max(math.sqrt(n * q * (1.0 - q)), 0.5)
    lo = max(1, math.floor(centre - 6 * width))
    hi = min(n, math.ceil(centre + 6 * width))
    total = weighted = 0.0
    for rank in range(lo, hi + 1):
        w = math.exp(-0.5 * ((rank - centre) / width) ** 2)
        total += w
        weighted += w * sorted_values[rank - 1]
    return weighted / total


def samples_beyond(n: int, p: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank ``p``-th one."""
    return n - max(1, math.ceil(p / 100.0 * n))


def tail_percentile(n: int) -> float | None:
    """The highest percentile of ``TAIL_LADDER`` with at least ten samples
    beyond it, or None when even the lowest has fewer."""
    for p in TAIL_LADDER:
        if samples_beyond(n, p) >= 10:
            return p
    return None
