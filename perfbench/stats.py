"""Order statistics the benchmark reports, kept free of any repro import."""

from __future__ import annotations

import math
from statistics import median
from typing import Mapping, Sequence

TAIL_MIN_BEYOND = 10
"""A tail percentile must leave at least this many samples above it."""


def tail(values: Sequence[float]) -> tuple[int, float] | None:
    """The highest whole percentile with at least ten samples beyond it.

    Uses the nearest-rank definition: percentile *p* of *n* sorted samples
    is the sample of rank ``ceil(p * n / 100)``, and the samples beyond it
    are the ``n - rank`` of higher rank.  Returns ``(p, value)``, or
    ``None`` when there are too few samples for any percentile to qualify
    (fewer than eleven).
    """
    n = len(values)
    s = sorted(values)
    for p in range(99, 0, -1):
        rank = max(1, math.ceil(p * n / 100))
        if n - rank >= TAIL_MIN_BEYOND:
            return p, s[rank - 1]
    return None


def balanced_median(groups: Mapping[object, Sequence[float]]) -> float:
    """The mean over groups of each group's median.

    A run visits the inputs of a pool round-robin, so when it ends some
    inputs have been visited once more than others.  Inputs differ in cost,
    so a median over all samples would jump between inputs as the visit
    counts change; weighting every input equally keeps it in place.
    """
    medians = [median(values) for values in groups.values() if values]
    if not medians:
        raise ValueError("no samples")
    return sum(medians) / len(medians)


def union_length(intervals: Sequence[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
