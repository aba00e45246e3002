"""Small statistics helpers shared by the benchmark and its self-tests."""

from __future__ import annotations

import statistics
from typing import Sequence

#: Percentiles the benchmark may report as a tail, lowest first.
TAIL_CANDIDATES = (50.0, 90.0, 99.0, 99.9)
#: A percentile is reported only with at least this many samples above it.
MIN_BEYOND = 10


def tail_percentile(count: int) -> float | None:
    """The highest candidate percentile with >= 10 of ``count`` samples beyond it."""
    best = None
    for p in TAIL_CANDIDATES:
        if count * (1.0 - p / 100.0) >= MIN_BEYOND - 1e-9:
            best = p
    return best


def percentile(values: Sequence[float], p: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of an empty sample")
    rank = (len(data) - 1) * p / 100.0
    low = int(rank)
    high = min(low + 1, len(data) - 1)
    return data[low] + (data[high] - data[low]) * (rank - low)


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def median_or_zero(values: Sequence[float]) -> float:
    return median(values) if values else 0.0
