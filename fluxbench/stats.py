"""Order statistics the benchmark reports."""

from __future__ import annotations

import math
from typing import Sequence


def nearest_rank(values: Sequence[float], p: float) -> float:
    """The nearest-rank ``p``-th percentile (0 < p <= 100).

    The smallest sample such that at least ``p`` percent of the samples
    are less than or equal to it; always one of the samples, never an
    interpolation.
    """
    if not values:
        raise ValueError("percentile of no samples")
    if not 0 < p <= 100:
        raise ValueError(f"percentile {p!r} outside (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(len(ordered) * p / 100)
    return ordered[rank - 1]


def beyond(values: Sequence[float], p: float) -> int:
    """How many samples lie strictly above the ``p``-th percentile."""
    cut = nearest_rank(values, p)
    return sum(1 for value in values if value > cut)


def median(values: Sequence[float]) -> float:
    """The middle sample, or the mean of the two middle ones."""
    if not values:
        raise ValueError("median of no samples")
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2
