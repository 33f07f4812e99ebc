"""Per-device transfer metrics.

Every storage device records the intervals during which it transferred data.
The :class:`repro.tools.dstat.DstatMonitor` samples these counters once per
simulated second — exactly the role `dstat` plays in the paper's validation
experiments (Fig. 3, 4 and 12) — and the benchmarks use them to compute
ground-truth bandwidth independently of what tf-Darshan reports.

:meth:`DeviceMetrics.throughput_timeline` sweeps the interval log once.
Each interval is bucketed into a superset of the bins it can touch (a
``bisect`` on the bin edges, widened by one bin each side), then every bin
runs the same per-interval arithmetic as :meth:`DeviceMetrics.bytes_between`
over its bucket only, in recording order.  An interval outside a bin is
rejected by that arithmetic anyway, and floating-point sums see the same
terms in the same order, so the result is bit-identical to querying
``bytes_between`` once per bin while costing O(intervals + bins + bins
spanned) instead of O(intervals x bins).  A prefix-sum over cumulative
bytes would be cheaper still but reorders the additions and drifts in the
last bits, so it is not used.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field
from typing import Iterable, List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class TransferInterval:
    """One device transfer: ``nbytes`` moved between ``start`` and ``end``."""

    start: float
    end: float
    nbytes: int
    is_write: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class DeviceMetrics:
    """Accumulates transfer intervals and operation counters for one device."""

    def __init__(self, name: str):
        self.name = name
        self.intervals: List[TransferInterval] = []
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_ops = 0
        self.write_ops = 0
        self.metadata_ops = 0
        self.busy_time = 0.0

    # -- recording -------------------------------------------------------
    def record_transfer(self, start: float, end: float, nbytes: int,
                        is_write: bool = False) -> None:
        """Record a transfer of ``nbytes`` over the interval [start, end]."""
        if end < start:
            raise ValueError("transfer interval must not end before it starts")
        nbytes = int(nbytes)
        self.intervals.append(TransferInterval(start, end, nbytes, is_write))
        if is_write:
            self.bytes_written += nbytes
            self.write_ops += 1
        else:
            self.bytes_read += nbytes
            self.read_ops += 1
        self.busy_time += end - start

    def record_metadata_op(self) -> None:
        """Record a metadata-only operation (open/stat/...)."""
        self.metadata_ops += 1

    # -- queries -----------------------------------------------------------
    @property
    def total_bytes(self) -> int:
        return self.bytes_read + self.bytes_written

    def bytes_between(self, t0: float, t1: float,
                      writes: Optional[bool] = None) -> float:
        """Bytes transferred during [t0, t1).

        A transfer is assumed to progress uniformly over its interval, so a
        partially overlapping transfer contributes proportionally.  ``writes``
        selects only writes (``True``), only reads (``False``) or both
        (``None``).
        """
        return _window_bytes(self.intervals, t0, t1, writes)

    def throughput_timeline(self, bin_seconds: float = 1.0,
                            until: Optional[float] = None,
                            writes: Optional[bool] = None
                            ) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(bin_start_times, bytes_per_second)`` arrays.

        This is the series a dstat-style monitor would plot (Fig. 3/4/12).
        """
        if not self.intervals:
            return np.array([]), np.array([])
        t_end = until if until is not None else max(iv.end for iv in self.intervals)
        n_bins = max(1, int(np.ceil(t_end / bin_seconds)))
        edges = np.arange(n_bins + 1) * bin_seconds
        bounds = edges.tolist()
        last = n_bins - 1
        buckets: List[List[TransferInterval]] = [[] for _ in range(n_bins)]
        for iv in self.intervals:
            if writes is not None and iv.is_write is not writes:
                continue
            first = max(0, bisect.bisect_right(bounds, iv.start) - 2)
            stop = min(last, bisect.bisect_left(bounds, iv.end) + 1)
            for i in range(first, stop + 1):
                buckets[i].append(iv)
        values = np.zeros(n_bins)
        for i, bucket in enumerate(buckets):
            if bucket:
                values[i] = _window_bytes(bucket, bounds[i], bounds[i + 1])
        return edges[:-1], values / bin_seconds

    def reset(self) -> None:
        """Clear all recorded activity (used between benchmark repetitions)."""
        self.intervals.clear()
        self.bytes_read = 0
        self.bytes_written = 0
        self.read_ops = 0
        self.write_ops = 0
        self.metadata_ops = 0
        self.busy_time = 0.0


def _window_bytes(intervals: Iterable[TransferInterval], t0: float,
                  t1: float, writes: Optional[bool] = None) -> float:
    """Bytes the ``intervals`` moved during [t0, t1), in iteration order."""
    if t1 <= t0:
        return 0.0
    total = 0.0
    for iv in intervals:
        if writes is not None and iv.is_write is not writes:
            continue
        lo = max(t0, iv.start)
        hi = min(t1, iv.end)
        if hi <= lo:
            # instantaneous transfer exactly at a bin edge
            if iv.duration == 0.0 and t0 <= iv.start < t1:
                total += iv.nbytes
            continue
        if iv.duration == 0.0:
            total += iv.nbytes
        else:
            total += iv.nbytes * (hi - lo) / iv.duration
    return total


def merge_timelines(timelines: Iterable[Tuple[np.ndarray, np.ndarray]]
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Sum several ``(times, rates)`` timelines onto a common time axis."""
    timelines = [t for t in timelines if len(t[0])]
    if not timelines:
        return np.array([]), np.array([])
    # All timelines produced with the same bin width start at 0; pad to the
    # longest one.
    longest = max(len(t[0]) for t in timelines)
    times = None
    total = np.zeros(longest)
    for t, v in timelines:
        if times is None or len(t) == longest:
            times = t if len(t) == longest else times
        total[: len(v)] += v
    if times is None:  # pragma: no cover - defensive
        times = np.arange(longest, dtype=float)
    return times, total
