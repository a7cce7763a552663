"""The benchmark's own arithmetic: tail choice, span algebra, quiet windows,
spread.

Kept free of any ``repro`` import so the unit tests in
``test_simbench_stats.py`` pin it without building a graph.
"""

from __future__ import annotations

import statistics
from typing import Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]

#: Candidate tail percentiles, in per mille so ``n * (1000 - q) // 1000``
#: counts samples beyond a percentile without floating-point rounding.
TAIL_LADDER_PERMILLE = (500, 750, 900, 950, 990, 995, 999)

#: A tail percentile is reported only with at least this many samples
#: beyond it.
MIN_BEYOND = 10


def samples_beyond(count: int, permille: int) -> int:
    """How many of ``count`` samples lie above the ``permille`` percentile."""
    return count * (1000 - permille) // 1000


def tail_permille(count: int) -> Optional[int]:
    """The highest ladder percentile with >= MIN_BEYOND samples beyond it.

    A workload fixes its tail percentile as ``tail_permille(min_requests)``
    and never stops before ``min_requests``, so the reported percentile is
    the same on every run however many requests a run completes.
    """
    chosen = None
    for permille in TAIL_LADDER_PERMILLE:
        if samples_beyond(count, permille) >= MIN_BEYOND:
            chosen = permille
    return chosen


def union_length(intervals: Iterable[Interval],
                 clip: Optional[Interval] = None) -> float:
    """Total length covered by ``intervals`` (overlaps counted once)."""
    pieces: List[Interval] = []
    for start, end in intervals:
        if clip is not None:
            start, end = max(start, clip[0]), min(end, clip[1])
        if end > start:
            pieces.append((start, end))
    pieces.sort()
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in pieces:
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def self_time(parent: Interval, children: Iterable[Interval]) -> float:
    """A span's duration minus the part of it its children cover."""
    return (parent[1] - parent[0]) - union_length(children, clip=parent)


def unattributed_share(roots: Sequence[Tuple[Interval, Sequence[Interval]]]
                       ) -> float:
    """Share of the roots' wall time that none of their child spans covers."""
    wall = sum(end - start for (start, end), _ in roots)
    if wall <= 0.0:
        return 0.0
    uncovered = sum(self_time(root, children) for root, children in roots)
    return uncovered / wall


def quiet_enough(walls: Sequence[float], steals: Sequence[float],
                 seconds: float, min_windows: int, limit: float) -> bool:
    """True once the windows with steal share <= ``limit`` cover ``seconds``
    of wall time and number at least ``min_windows``."""
    quiet = [wall for wall, steal in zip(walls, steals) if steal <= limit]
    return len(quiet) >= min_windows and sum(quiet) >= seconds


def quietest_windows(walls: Sequence[float], steals: Sequence[float],
                     seconds: float, min_windows: int) -> List[int]:
    """Indices (ascending) of the least-stolen windows that together cover
    ``seconds`` of wall time and number at least ``min_windows``.

    Windows are taken in order of their host steal share, earlier first
    among equals; the choice never looks at what a window measured.
    """
    order = sorted(range(len(walls)), key=lambda index: (steals[index], index))
    chosen: List[int] = []
    covered = 0.0
    for index in order:
        if covered >= seconds and len(chosen) >= min_windows:
            break
        chosen.append(index)
        covered += walls[index]
    return sorted(chosen)


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median.

    Uses ``statistics.quantiles(values, n=4)``, the same quartiles the
    steadiness check compares against each metric's bound.
    """
    if len(values) < 2:
        return 0.0
    first, median, third = statistics.quantiles(values, n=4)
    if median == 0.0:
        return 0.0 if third == first else float("inf")
    return (third - first) / abs(median)


__all__ = [
    "MIN_BEYOND",
    "TAIL_LADDER_PERMILLE",
    "quiet_enough",
    "quietest_windows",
    "samples_beyond",
    "self_time",
    "spread",
    "tail_permille",
    "union_length",
    "unattributed_share",
]
