"""Differential tests: the swept dstat timeline vs the frozen per-bin scan.

:meth:`DeviceMetrics.throughput_timeline` buckets intervals into the bins
they can touch and sums each bucket in recording order;
:func:`repro.physicsref.throughput_timeline` scans the whole log for every
bin.  Both must produce the same bytes, not merely close floats.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import physicsref
from repro.storage.metrics import DeviceMetrics

BIN_SECONDS = (0.1, 0.3, 0.25, 1.0, 2.5)


@st.composite
def interval_logs(draw):
    """A bin width plus an interval log with edge-aligned and long cases."""
    bin_seconds = draw(st.sampled_from(BIN_SECONDS))
    edge = st.integers(min_value=0, max_value=40).map(lambda k: k * bin_seconds)
    anywhere = st.floats(min_value=0.0, max_value=12.0, allow_nan=False)
    intervals = []
    for _ in range(draw(st.integers(min_value=1, max_value=30))):
        start = draw(st.one_of(edge, anywhere))
        kind = draw(st.sampled_from(("instant", "short", "long", "to_edge")))
        if kind == "instant":
            end = start
        elif kind == "short":
            end = start + draw(st.floats(min_value=0.0, max_value=0.5))
        elif kind == "long":
            end = start + draw(st.floats(min_value=1.0, max_value=30.0))
        else:
            end = max(start, draw(edge))
        nbytes = draw(st.integers(min_value=0, max_value=1 << 30))
        intervals.append((start, end, nbytes, draw(st.booleans())))
    until = draw(st.one_of(st.none(),
                           st.floats(min_value=0.05, max_value=20.0),
                           edge.filter(lambda t: t > 0)))
    return bin_seconds, intervals, until


def _metrics(intervals):
    m = DeviceMetrics("d")
    for start, end, nbytes, is_write in intervals:
        m.record_transfer(start, end, nbytes, is_write=is_write)
    return m


def _assert_bit_identical(m, bin_seconds, until, writes):
    times, rates = m.throughput_timeline(bin_seconds, until=until,
                                         writes=writes)
    ref_times, ref_rates = physicsref.throughput_timeline(
        m, bin_seconds, until=until, writes=writes)
    assert times.dtype == ref_times.dtype and rates.dtype == ref_rates.dtype
    assert times.tobytes() == ref_times.tobytes()
    assert rates.tobytes() == ref_rates.tobytes()


@given(interval_logs(), st.sampled_from((None, True, False)))
@settings(max_examples=300, deadline=None)
def test_sweep_matches_per_bin_scan_bit_for_bit(log, writes):
    bin_seconds, intervals, until = log
    _assert_bit_identical(_metrics(intervals), bin_seconds, until, writes)


def test_edge_cases_match_bit_for_bit():
    """The corner cases the sweep's bucket margins exist for, pinned."""
    bin_seconds = 0.1
    m = _metrics([
        (0.3, 0.3, 100, False),            # instant, exactly on an edge
        (3 * 0.1, 3 * 0.1, 7, True),       # instant on the computed edge
        (0.0, 5.0, 12345, False),          # spans fifty bins
        (0.15, 0.7, 999, True),
        (0.7, 0.7000000000000001, 5, False),
        (4.95, 9.0, 4096, False),          # runs past ``until``
        (7.0, 8.0, 1, True),               # starts after ``until``
    ])
    for until in (None, 5.0, 0.35, 1e-3):
        for writes in (None, True, False):
            _assert_bit_identical(m, bin_seconds, until, writes)


def test_bytes_between_is_the_reference_window_query():
    m = _metrics([(0.0, 1.0, 100, False), (0.5, 0.5, 10, True),
                  (0.2, 3.7, 333, False)])
    for t0, t1 in ((0.0, 1.0), (0.5, 0.6), (0.25, 3.1), (2.0, 1.0)):
        for writes in (None, True, False):
            assert (np.float64(m.bytes_between(t0, t1, writes)).tobytes()
                    == np.float64(physicsref.bytes_between(
                        m.intervals, t0, t1, writes)).tobytes())
