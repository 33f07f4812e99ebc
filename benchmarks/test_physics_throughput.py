"""Micro-benchmark: the physics fast paths vs their frozen references.

Two hot paths of the simulated physics, each timed against the frozen
implementation it replaced (:mod:`repro.physicsref`), back-to-back in the
same process so host noise hits both sides alike:

* *dstat timeline* — :meth:`DeviceMetrics.throughput_timeline` on a fixed
  synthetic log of 6,196 transfer intervals binned at 1 s over 70 s, the
  shape of the Fig. 4 malware stream.  The sweep buckets each interval
  once; the reference rescans the whole log for every bin.
* *bandwidth churn* — 28 flows (the paper's 28 map threads) issuing
  back-to-back transfers of mixed sizes through one capped
  :class:`SharedBandwidth`.  The fast path evaluates one fair share per
  event; the reference evaluates one per flow.

Both sides must produce identical results before a ratio counts.  Only
same-host ratios are floor-gated; the absolute rates and the host's cores
and Python version are persisted to ``BENCH_physics.json``.
"""

import gc
import random
import time

import pytest

from repro import physicsref
from repro.sim import Environment, SharedBandwidth
from repro.storage.metrics import DeviceMetrics

#: Fig. 4 shape: intervals in the log and 1 s dstat bins over the run.
TIMELINE_INTERVALS = 6196
TIMELINE_SECONDS = 70.0

CHURN_FLOWS = 28
CHURN_TRANSFERS = 120

#: Floors on same-host speedups.  Measured ~12x and ~2.4x on a 2-core
#: host; the floors leave room for a loaded CI runner.
TIMELINE_FLOOR = 5.0
CHURN_FLOOR = 1.5


def _synthetic_log(n_intervals=TIMELINE_INTERVALS, seconds=TIMELINE_SECONDS):
    """A fixed device log: mostly short reads, some writes and instants."""
    rng = random.Random(4)
    metrics = DeviceMetrics("fig4")
    for _ in range(n_intervals):
        start = rng.uniform(0.0, seconds)
        roll = rng.random()
        if roll < 0.05:
            end = start
        elif roll < 0.08:
            end = min(seconds, start + rng.uniform(1.0, 8.0))
        else:
            end = min(seconds, start + rng.expovariate(40.0))
        metrics.record_transfer(start, end, rng.randint(1, 8 << 20),
                                is_write=rng.random() < 0.1)
    return metrics


def _timeline(fast):
    metrics = _synthetic_log()
    timeline = (metrics.throughput_timeline if fast else
                lambda: physicsref.throughput_timeline(metrics))
    start = time.perf_counter()
    times, rates = timeline()
    return len(times), time.perf_counter() - start, rates.tobytes()


def _churn(fast, flows=CHURN_FLOWS, transfers=CHURN_TRANSFERS):
    cls = SharedBandwidth if fast else physicsref.ReferenceSharedBandwidth
    env = Environment()
    link = cls(env, rate=1.2e9, per_flow_rate=2.5e8, name="ost")
    ends = []

    def flow(index):
        rng = random.Random(index)
        for _ in range(transfers):
            record = yield link.transfer(rng.choice((4096.0, 65536.0, 1 << 20))
                                         * rng.uniform(0.5, 2.0))
            ends.append(record.end)

    for index in range(flows):
        env.process(flow(index))
    start = time.perf_counter()
    env.run()
    return flows * transfers, time.perf_counter() - start, tuple(ends)


def _measure(workload, rounds=5):
    """Best ops/second for each side, alternating round by round."""
    best = {"reference": float("inf"), "fast": float("inf")}
    ops = {}
    outputs = {}
    for _ in range(rounds):
        for name in best:
            gc.collect()
            gc.disable()
            try:
                n, elapsed, output = workload(name == "fast")
            finally:
                gc.enable()
            ops[name] = n
            outputs[name] = output
            best[name] = min(best[name], elapsed)
    assert outputs["fast"] == outputs["reference"], (
        "fast path and reference disagree; the ratio would be meaningless")
    return {name: ops[name] / best[name] for name in best}


@pytest.mark.tier1
def test_both_sides_agree_on_the_benchmark_workloads():
    """The benchmark is only meaningful if both sides do the same work."""
    assert _churn(True, flows=8, transfers=10)[2] == \
        _churn(False, flows=8, transfers=10)[2]
    metrics = _synthetic_log(n_intervals=400, seconds=10.0)
    for writes in (None, True, False):
        fast = metrics.throughput_timeline(writes=writes)
        ref = physicsref.throughput_timeline(metrics, writes=writes)
        assert fast[1].tobytes() == ref[1].tobytes()


def test_physics_speedup_floors_and_artifact(bench_artifact):
    """Floor-gate both fast paths and persist BENCH_physics.json."""
    results = {}
    speedups = {}
    for name, workload, floor in (("timeline", _timeline, TIMELINE_FLOOR),
                                  ("churn", _churn, CHURN_FLOOR)):
        rates = _measure(workload)
        speedup = rates["fast"] / rates["reference"]
        if speedup < floor:
            # One longer, calmer remeasure before declaring a regression.
            rates = _measure(workload, rounds=9)
            speedup = rates["fast"] / rates["reference"]
        unit = "bins" if name == "timeline" else "transfers"
        print(f"\n{name}: reference {rates['reference']:,.0f} {unit}/s, "
              f"fast {rates['fast']:,.0f} {unit}/s -> {speedup:.2f}x")
        results[f"{name}_reference_{unit}_per_s"] = rates["reference"]
        results[f"{name}_fast_{unit}_per_s"] = rates["fast"]
        results[f"{name}_speedup_x"] = speedup
        speedups[name] = speedup
    bench_artifact("physics", results)

    assert speedups["timeline"] >= TIMELINE_FLOOR, (
        f"expected >={TIMELINE_FLOOR}x on the dstat timeline, "
        f"got {speedups['timeline']:.2f}x")
    assert speedups["churn"] >= CHURN_FLOOR, (
        f"expected >={CHURN_FLOOR}x on 28-flow bandwidth churn, "
        f"got {speedups['churn']:.2f}x")
