"""Frozen snapshots of the physics hot paths (reference implementations).

Two production fast paths have a straightforward predecessor kept here as
a *behavioural reference*, the way :mod:`repro.sim.seedref` keeps the seed
scheduler:

* :func:`throughput_timeline` queries every dstat bin against the whole
  interval log (O(bins x intervals)), which is what
  :meth:`repro.storage.metrics.DeviceMetrics.throughput_timeline` replaced
  with a single bucketed sweep;
* :class:`ReferenceSharedBandwidth` recomputes one rate per flow on every
  event and drops finished flows with a list-membership scan, which is what
  :class:`repro.sim.bandwidth.SharedBandwidth` replaced with one shared rate
  per event and a single partition pass.

The differential tests (``tests/storage/test_timeline_differential.py``,
``tests/sim/test_bandwidth_differential.py``) require *exactly* equal output
from both sides, and ``benchmarks/test_physics_throughput.py`` measures the
fast paths against these baselines.  Do **not** optimize or otherwise modify
this module: its whole value is that it does not change when the production
code does.
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Tuple

import numpy as np

from repro.sim.bandwidth import _EPS, SharedBandwidth, TransferRecord
from repro.storage.metrics import DeviceMetrics, TransferInterval


# -- storage: per-bin dstat timeline ----------------------------------------
def bytes_between(intervals: Iterable[TransferInterval], t0: float, t1: float,
                  writes: Optional[bool] = None) -> float:
    """Bytes transferred during [t0, t1), scanning every interval."""
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


def throughput_timeline(metrics: DeviceMetrics, bin_seconds: float = 1.0,
                        until: Optional[float] = None,
                        writes: Optional[bool] = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """``(bin_start_times, bytes_per_second)`` with one full scan per bin."""
    if not metrics.intervals:
        return np.array([]), np.array([])
    t_end = until if until is not None else max(iv.end for iv in metrics.intervals)
    n_bins = max(1, int(np.ceil(t_end / bin_seconds)))
    edges = np.arange(n_bins + 1) * bin_seconds
    values = np.zeros(n_bins)
    for i in range(n_bins):
        values[i] = bytes_between(metrics.intervals, edges[i], edges[i + 1],
                                  writes=writes)
    return edges[:-1], values / bin_seconds


# -- sim: per-flow fluid sharing --------------------------------------------
class ReferenceSharedBandwidth(SharedBandwidth):
    """:class:`SharedBandwidth` with per-flow rate evaluation on every event."""

    def _share(self, n_flows: int) -> float:
        if n_flows <= 0:
            return 0.0
        aggregate = self.rate
        if self.efficiency is not None:
            factor = self.efficiency(n_flows)
            if factor <= 0:
                raise ValueError("efficiency() must return a positive factor")
            aggregate *= factor
        share = aggregate * (1.0 / float(n_flows))
        if self.per_flow_rate is not None:
            share = min(share, self.per_flow_rate)
        return share

    def _flow_rates(self):
        n = len(self._flows)
        return [self._share(n) for _ in self._flows]

    def _advance(self) -> None:
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._flows:
            return
        rates = self._flow_rates()
        for flow, rate in zip(self._flows, rates):
            flow.remaining = max(0.0, flow.remaining - rate * elapsed)

    def _complete_finished(self) -> None:
        threshold = self.rate * self._time_quantum()
        finished = [
            f for f in self._flows
            if f.remaining <= max(threshold, _EPS * max(1.0, f.amount))
        ]
        if not finished:
            return
        self._flows = [f for f in self._flows if f not in finished]
        now = self.env.now
        for flow in finished:
            self.total_transferred += flow.amount
            flow.event.succeed(
                TransferRecord(flow.amount, flow.start, now, flow.tag))

    def _reschedule(self) -> None:
        self._wake_generation += 1
        generation = self._wake_generation
        if not self._flows:
            return
        rates = self._flow_rates()
        time_to_next = min(
            flow.remaining / rate if rate > 0 else math.inf
            for flow, rate in zip(self._flows, rates)
        )
        if math.isinf(time_to_next):
            return
        time_to_next = max(time_to_next, self._time_quantum())
        wake = self.env.timeout(time_to_next)
        wake.callbacks.append(lambda _ev, gen=generation: self._on_wake(gen))
