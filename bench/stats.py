"""Order statistics for job latencies."""

from __future__ import annotations

import math

#: percentiles the tail may be reported at, highest first
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)

#: samples that must lie beyond a reported tail percentile
MIN_BEYOND = 10


def nearest_rank(sorted_values, pct: float):
    """Value at percentile ``pct`` by the nearest rank rule."""
    n = len(sorted_values)
    rank = max(1, math.ceil(pct * n / 100.0 - 1e-9))
    return sorted_values[rank - 1]


def beyond(n: int, pct: float) -> int:
    """How many of n samples rank strictly above the nearest rank at pct."""
    return n - max(1, math.ceil(pct * n / 100.0 - 1e-9))


def tail(values):
    """(percentile, value, n, rule_met) for the highest ladder percentile
    with at least MIN_BEYOND samples beyond it.

    With fewer than 2 * MIN_BEYOND samples no ladder percentile qualifies;
    the median is returned with ``rule_met`` false rather than an extreme
    that a handful of samples cannot support.
    """
    xs = sorted(values)
    n = len(xs)
    if not n:
        raise ValueError("no samples")
    for pct in TAIL_LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            return pct, nearest_rank(xs, pct), n, True
    return 50.0, median(xs), n, False


def median(values):
    xs = sorted(values)
    n = len(xs)
    if not n:
        raise ValueError("no samples")
    mid = n // 2
    return xs[mid] if n % 2 else 0.5 * (xs[mid - 1] + xs[mid])
