"""Order statistics shared by the end-to-end and traced passes.

Every figure the benchmark prints comes from one of these functions, so
the rules live in one place:

* a median is taken over the samples a metric names, never over values
  derived from another metric;
* a tail is the highest percentile that still has at least
  :data:`TAIL_BEYOND` samples beyond it, taken from the *same* samples
  as the median; with fewer than ``2 * TAIL_BEYOND + 1`` samples it
  would fall at or below the median, so it is refused.
"""

from __future__ import annotations

import statistics

#: Samples that must lie strictly beyond a reported tail.
TAIL_BEYOND = 10


def median(samples) -> float:
    """Median of a non-empty sample list."""
    if not samples:
        raise ValueError("median of no samples")
    return float(statistics.median(samples))


def tail(samples) -> tuple:
    """``(value, percentile)`` of the highest tail with 10 samples beyond.

    Raises:
        ValueError: Too few samples for the tail to lie above the median.
    """
    n = len(samples)
    if n < 2 * TAIL_BEYOND + 1:
        raise ValueError(f"a tail needs at least {2 * TAIL_BEYOND + 1} samples, got {n}")
    ordered = sorted(samples)
    index = n - TAIL_BEYOND - 1
    return float(ordered[index]), 100.0 * (index + 1) / n


def quartiles(samples) -> list:
    """First quartile, median and third quartile (needs two samples)."""
    return [float(q) for q in statistics.quantiles(samples, n=4)]
