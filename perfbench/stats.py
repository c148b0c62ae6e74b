"""Order statistics and failure accounting for the benchmark's report."""

from __future__ import annotations

import math
from typing import Optional, Sequence

#: Percentiles the tail rule chooses from.
PERCENTILE_LADDER = (50.0, 55.0, 60.0, 65.0, 70.0, 75.0, 80.0, 85.0, 90.0,
                     95.0, 99.0, 99.9)
#: Samples that must lie beyond a percentile for it to count as a tail.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolation percentile (``pct`` in [0, 100])."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def samples_beyond(count: int, pct: float) -> int:
    """How many of ``count`` samples lie above the ``pct`` percentile."""
    return count - math.ceil(count * pct / 100.0)


def tail_percentile(count: int,
                    ladder: Sequence[float] = PERCENTILE_LADDER
                    ) -> Optional[float]:
    """The highest ladder percentile with at least ``TAIL_MIN_BEYOND``
    samples beyond it, or None when even the lowest has fewer."""
    best = None
    for pct in ladder:
        if samples_beyond(count, pct) >= TAIL_MIN_BEYOND:
            best = pct
    return best


def samples_needed(pct: float) -> int:
    """The fewest samples that put ``TAIL_MIN_BEYOND`` beyond ``pct``."""
    count = TAIL_MIN_BEYOND
    while samples_beyond(count, pct) < TAIL_MIN_BEYOND:
        count += 1
    return count


def failed_frac(failed: int, attempted: int) -> float:
    """Failed sessions over sessions attempted."""
    if attempted < 1:
        raise ValueError("no sessions attempted")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..{attempted}")
    return failed / attempted
