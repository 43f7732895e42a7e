"""The benchmark's own arithmetic: percentiles, span self time, queue wait.

Everything here is a pure function of recorded numbers, so the tests in
``perfbench/tests`` pin it without running any workload.

Conventions
-----------
* A failed operation has latency ``+inf``: it misses every latency limit,
  so it can only push a percentile up, never hide in a mean.
* A span is ``(start, end, thread, parent)`` where ``parent`` is the index of
  the enclosing span *on the same thread* (or ``None``).  Spans of one query
  share an identifier, but only same-thread nesting makes a parent.
"""

from __future__ import annotations

import bisect
import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

INF = float("inf")

#: Samples that must lie beyond a reported percentile for it to count as
#: measured rather than as the largest few samples.
TAIL_SAMPLES = 10


def percentile(samples: Iterable[float], q: float, failed: int = 0) -> float:
    """The *q*-th percentile (0..100) of *samples* plus *failed* samples at +inf.

    Linear interpolation between closest ranks (numpy's default), except
    that an interpolation touching a +inf sample is +inf.  Raises
    ``ValueError`` when there is no sample at all.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    data = sorted(float(s) for s in samples) + [INF] * int(failed)
    if not data:
        raise ValueError("percentile of an empty sample")
    pos = (len(data) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = math.ceil(pos)
    frac = pos - lo
    if data[lo] == INF or (frac > 0.0 and data[hi] == INF):
        return INF
    return data[lo] + (data[hi] - data[lo]) * frac


def supports_percentile(q: float, samples: int, beyond: int = TAIL_SAMPLES) -> bool:
    """Whether *samples* independent samples support the *q*-th percentile.

    A percentile is supported when at least *beyond* samples lie above it,
    i.e. ``samples * (100 - q) / 100 >= beyond``.  Queries of one
    micro-batch share their fate, so for served latency the samples that
    count are batches: p90 needs at least 100 batches.
    """
    return samples * (100.0 - q) >= beyond * 100.0 - 1e-9


def _union_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Tuple[float, float, object, Optional[int]]]) -> List[float]:
    """Self time of every span: its duration minus the time its children cover.

    Children are the spans whose ``parent`` names this span *and* that ran
    on the same thread.  The covered time is the union of the children's
    intervals clipped to the parent, so overlapping children (coroutines
    interleaved on one event loop) are not subtracted twice, and a span on
    another thread never eats into a parent's self time.
    """
    children: Dict[int, List[Tuple[float, float]]] = {}
    for start, end, thread, parent in spans:
        if parent is None:
            continue
        p_start, p_end, p_thread, _ = spans[parent]
        if p_thread != thread:
            continue
        lo, hi = max(start, p_start), min(end, p_end)
        if hi > lo:
            children.setdefault(parent, []).append((lo, hi))
    return [
        (end - start) - _union_length(children.get(i, []))
        for i, (start, end, _, _) in enumerate(spans)
    ]


def covered_time(
    intervals: Iterable[Tuple[float, float]], window: Tuple[float, float]
) -> float:
    """Time inside *window* covered by at least one of *intervals*."""
    lo, hi = window
    clipped = [(max(s, lo), min(e, hi)) for s, e in intervals if min(e, hi) > max(s, lo)]
    return _union_length(clipped)


def queue_waits(
    submits: Iterable[Tuple[object, float]],
    batches: Iterable[Tuple[float, Iterable[object]]],
) -> List[float]:
    """Queue wait of each submitted query, in submit order.

    *submits* holds ``(query_id, submit_start)``; *batches* holds
    ``(route_start, query_ids)`` for each batched ``route_queries`` call.
    A query's wait is the start of the first batch carrying its id that
    started at or after its submit, minus the submit time.  Queries no
    batch carried (the run ended first) are left out.
    """
    starts_by_id: Dict[object, List[float]] = {}
    for start, ids in batches:
        for qid in ids:
            starts_by_id.setdefault(qid, []).append(start)
    for starts in starts_by_id.values():
        starts.sort()
    waits: List[float] = []
    for qid, submitted in submits:
        starts = starts_by_id.get(qid)
        if not starts:
            continue
        i = bisect.bisect_left(starts, submitted)
        if i < len(starts):
            waits.append(starts[i] - submitted)
    return waits
