"""Pure accounting used by every workload: percentiles, due-time
latency, generator lateness, failure counting and time-to-service.

Kept free of I/O and of the program under test so the unit tests in
``perfbench/tests`` can pin the arithmetic exactly.
"""

from __future__ import annotations

import bisect
import math
from typing import Hashable, Iterable, List, Mapping, Sequence, Set, Tuple

#: The reported tail is the highest percentile that still has this many
#: samples beyond it.
MIN_BEYOND = 10


def nearest_rank(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0 < q <= 100) by the nearest-rank method:
    the smallest sample with at least ``q`` percent of samples at or
    below it. No interpolation, so the result is always a sample."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 < q <= 100.0:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def tail_rank(n: int) -> int:
    """1-based rank of the tail of ``n`` samples: the highest rank with
    ``MIN_BEYOND`` samples beyond it (the 99th percentile at 1,000
    samples, the 99.75th at 4,000). Raises when ``n`` is too small."""
    if n <= MIN_BEYOND:
        raise ValueError(
            f"{n} samples cannot support a tail with {MIN_BEYOND} samples beyond it"
        )
    return n - MIN_BEYOND


def tail_percentile(values: Sequence[float]) -> float:
    """The highest percentile with ``MIN_BEYOND`` samples beyond it."""
    ordered = sorted(values)
    return ordered[tail_rank(len(ordered)) - 1]


def latencies_from_due(
    due: Mapping[Hashable, float],
    delivered: Mapping[Hashable, float],
    window: Tuple[float, float],
) -> List[float]:
    """Submit→deliver latency of every message due inside ``window``,
    timed from its due time, so the wait a stall imposes on messages
    queued behind it is counted. A message never delivered has infinite
    latency: it misses every latency limit."""
    lo, hi = window
    return [
        delivered.get(mid, math.inf) - t
        for mid, t in due.items()
        if lo <= t < hi
    ]


def lateness(due: Mapping[Hashable, float], sent: Mapping[Hashable, float]) -> List[float]:
    """How late the generator handed each message to the program:
    actual submission time minus due time (never negative)."""
    return [max(sent[mid] - t, 0.0) for mid, t in due.items() if mid in sent]


def count_failed(
    mids: Iterable[Hashable],
    dest_pids: Mapping[Hashable, Iterable[int]],
    delivered_by: Mapping[int, Set[Hashable]],
    correct: Set[int],
) -> int:
    """Messages not a-delivered at every correct destination process.

    A message that no process ever delivered counts as failed, exactly
    like one that only some destinations delivered.
    """
    failed = 0
    for mid in mids:
        for pid in dest_pids[mid]:
            if pid in correct and mid not in delivered_by.get(pid, ()):
                failed += 1
                break
    return failed


def time_to_service(
    refs: Sequence[float],
    due: Mapping[Hashable, float],
    first_delivery: Mapping[Hashable, float],
) -> List[float]:
    """For each reference instant ``t``, the wait until the first
    a-delivery (``first_delivery``, at the processes watched) of any
    message due at or after ``t``. References with no such delivery are
    infinite."""
    served = sorted((due[mid], t) for mid, t in first_delivery.items() if mid in due)
    dues = [d for d, _ in served]
    suffix_min: List[float] = [math.inf] * (len(served) + 1)
    for i in range(len(served) - 1, -1, -1):
        suffix_min[i] = min(served[i][1], suffix_min[i + 1])
    return [suffix_min[bisect.bisect_left(dues, t)] - t for t in refs]
