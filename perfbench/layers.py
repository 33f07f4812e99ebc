"""Per-layer attribution for the traced run.

Two sources, both kept out of the untraced end-to-end passes:

* a ``cProfile`` pass whose self time is bucketed by ``repro.<package>``;
* spans recorded from this benchmark's files around public layer calls
  (the dstat timeline, staging, dataset layout, platform build), kept in
  memory and written out as a Chrome trace when the run ends.

On the fleet the executor's own ``trace_path`` trace supplies the
queue-wait / run / store spans of every job.
"""

from __future__ import annotations

import json
import math
import os
import pstats
import statistics
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, List, Optional, Tuple

#: ``repro`` packages reported as layers; everything else is ``other``.
PACKAGES = ("sim", "storage", "posix", "darshan", "core", "tfmini", "tools",
            "workloads", "campaign")
LAYERS = PACKAGES + ("other",)


class Spans:
    """In-memory spans and counters; spans of one job share its key."""

    def __init__(self):
        self.records: List[Tuple[str, float, float, Optional[str]]] = []
        self.counts: Counter = Counter()
        self.job: Optional[str] = None

    @contextmanager
    def span(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, start, time.perf_counter())

    def add(self, name: str, start: float, end: float) -> None:
        self.records.append((name, start, end, self.job))

    def total(self, name: str) -> float:
        return sum(end - start for span, start, end, _ in self.records
                   if span == name)

    def write_chrome_trace(self, path) -> None:
        events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
                   "ts": start * 1e6, "dur": (end - start) * 1e6,
                   "args": {"job": job}}
                  for name, start, end, job in self.records]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events}, handle)


@contextmanager
def instrumented(spans: Spans):
    """Record spans around public layer calls made inside the case runners."""
    import repro.workloads.runner as runner
    from repro.storage import StagingManager
    from repro.storage.metrics import DeviceMetrics

    timeline = DeviceMetrics.throughput_timeline
    stage = StagingManager.stage
    layouts = {name: getattr(runner, name)
               for name in ("build_imagenet_dataset", "build_malware_dataset")}

    def traced_timeline(self, *args, **kwargs):
        with spans.span("storage.timeline"):
            times, rates = timeline(self, *args, **kwargs)
        spans.counts["storage.intervals"] += len(self.intervals)
        spans.counts["storage.timeline_bins"] += len(times)
        return times, rates

    def traced_stage(self, *args, **kwargs):
        # A simulation process: the span runs from its first step to its
        # return, which covers the kernel events the copy schedules.
        start = time.perf_counter()
        try:
            return (yield from stage(self, *args, **kwargs))
        finally:
            spans.add("storage.staging", start, time.perf_counter())

    def traced_layout(build):
        def layout(*args, **kwargs):
            with spans.span("workloads.dataset_layout"):
                return build(*args, **kwargs)
        return layout

    DeviceMetrics.throughput_timeline = traced_timeline
    StagingManager.stage = traced_stage
    for name, build in layouts.items():
        setattr(runner, name, traced_layout(build))
    try:
        yield
    finally:
        DeviceMetrics.throughput_timeline = timeline
        StagingManager.stage = stage
        for name, build in layouts.items():
            setattr(runner, name, build)


def bucket_profile(profile, repro_dir: str) -> Tuple[Dict[str, float], float]:
    """Self time per layer and the profiled total.

    A function under ``repro/<package>/`` is charged to that package.  Time
    in any other function (builtins, numpy, the standard library) is
    charged to the package of its direct caller, split by the caller's
    share; what no ``repro`` caller claims is ``other``.  The buckets
    therefore sum to the profiled total.
    """
    prefix = os.path.join(repro_dir, "")

    def package(filename: str) -> Optional[str]:
        if not filename.startswith(prefix):
            return None
        head = filename[len(prefix):].split(os.sep, 1)[0]
        return head if head in PACKAGES else "other"

    buckets = dict.fromkeys(LAYERS, 0.0)
    total = 0.0
    for (filename, _, _), (_, _, tottime, _, callers) in \
            pstats.Stats(profile).stats.items():
        total += tottime
        owner = package(filename)
        if owner is not None:
            buckets[owner] += tottime
            continue
        unclaimed = tottime
        for (caller_file, _, _), edge in callers.items():
            caller = package(caller_file)
            if caller is not None:
                buckets[caller] += edge[2]
                unclaimed -= edge[2]
        buckets["other"] += unclaimed
    return buckets, total


def check_buckets(buckets: Dict[str, float], total: float) -> Optional[str]:
    """The attribution check: buckets plus ``other`` sum to the total."""
    summed = sum(buckets.values())
    if math.isclose(summed, total, rel_tol=1e-9, abs_tol=1e-9):
        return None
    return f"layer buckets sum to {summed!r}, profiled total is {total!r}"


def campaign_metrics(trace_events: List[dict], wall_s: float,
                     workers: int) -> Dict[str, float]:
    """Fleet metrics from the executor's per-job queue-wait/run/store spans."""
    phases: Dict[str, List[float]] = {"queue-wait": [], "run": [], "store": []}
    attempts: Dict[str, int] = {}
    for event in trace_events:
        if event.get("ph") != "X" or event["name"] not in phases:
            continue
        phases[event["name"]].append(event["dur"] / 1e6)
        attempts[event["args"]["job"]] = int(event["args"]["attempts"] or 1)
    run_total = sum(phases["run"])
    return {
        "campaign.queue_wait_s.p50": statistics.median(phases["queue-wait"]),
        "campaign.run_s.p50": statistics.median(phases["run"]),
        "campaign.store_s.p50": statistics.median(phases["store"]),
        "campaign.utilization": run_total / (workers * wall_s),
        "campaign.attempts_per_job": sum(attempts.values()) / len(attempts),
    }
