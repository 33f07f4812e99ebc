"""The benchmark's workloads: fixed job sets run through the public APIs.

Each workload is a closed loop with one caller: a *pass* runs the
workload's fixed job set once, job after job (or, on the fleet, one
campaign after the previous one drained), and returns what the caller
waited for plus the simulated statistics the output check compares.

Job seeds are derived from the benchmark seed only: seed 0 reproduces the
paper harnesses' seeds (1 for the case studies, 7 for the platform grid),
for which ``reference.json`` holds every job's expected statistics.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

MIB = 1 << 20

#: Tolerance for simulated floats, the golden-trace tolerance.
REL_TOL = 1e-6

FLEET_WORKERS = 2
GRID_OSTS = (1, 2, 4, 8, 16)
GRID_CACHES_GIB = (0.03125, 0.25, 8.0)
GRID_BANDWIDTHS = (0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)
#: "More OSTs never lower cold bandwidth", as the platform-grid harness
#: checks it: on the mid slice, within 5 %.  On the 32 MiB-cache slices
#: placing 4-stripe files over more OSTs can cost a few percent more
#: (down to x0.947 over 80 seeds), so those slices are not checked.
OST_SLICE = {"page_cache_gib": 0.25, "bandwidth_scale": 1.0}
OST_TOLERANCE = 0.05


class NullSpans:
    """Stand-in for :class:`layers.Spans` in untraced passes."""

    job: Optional[str] = None

    def span(self, name: str):
        return nullcontext()


@dataclass
class JobRun:
    key: str
    latency_s: float
    outputs: Dict[str, object]
    error: Optional[str] = None
    #: In-process jobs: ``time.perf_counter()`` when the job started.
    started: Optional[float] = None


@dataclass
class PassRun:
    wall_s: float
    jobs: List[JobRun]
    #: Invariant or hygiene failures; each fails every job of the pass.
    problems: List[str] = field(default_factory=list)
    #: Fleet only: submit to the first claim (worker spawn and import).
    spawn_s: Optional[float] = None
    #: Fleet only, traced passes: the executor's Chrome trace.
    trace_events: Optional[list] = None
    #: ``time.perf_counter()`` around the whole pass, set by the caller.
    span: Optional[Tuple[float, float]] = None


# ---------------------------------------------------------------------------
# In-process case studies
# ---------------------------------------------------------------------------

def _job_outputs(result, platform) -> Dict[str, object]:
    """A training run's statistics plus its platform's exact counters."""
    from repro.workloads.runner import training_metrics

    outputs = training_metrics(result)
    devices = [device.metrics for device in platform.devices()]
    cache = platform.os.vfs.page_cache
    profile = result.io_profile
    outputs.update({
        "device_read_ops": sum(m.read_ops for m in devices),
        "device_write_ops": sum(m.write_ops for m in devices),
        "device_metadata_ops": sum(m.metadata_ops for m in devices),
        "device_bytes_read": sum(m.bytes_read for m in devices),
        "device_bytes_written": sum(m.bytes_written for m in devices),
        "mds_requests": sum(getattr(b, "mds_requests", 0)
                            for b in platform.backends.values()),
        "pagecache_hits": int(cache.hits),
        "pagecache_misses": int(cache.misses),
        "posix_ops": int(profile.posix_opens + profile.posix_reads
                         + profile.posix_writes + profile.posix_seeks
                         + profile.posix_stats),
    })
    return outputs


def _training_pass(spans, jobs, build_platform: Callable,
                   run_case: Callable) -> PassRun:
    runs = []
    start = time.perf_counter()
    for key, kwargs in jobs:
        spans.job = key
        job_start = time.perf_counter()
        with spans.span("job"):
            with spans.span("workloads.platform_build"):
                platform = build_platform()
            result = run_case(platform=platform, **kwargs)
            outputs = _job_outputs(result, platform)
        runs.append(JobRun(key, time.perf_counter() - job_start, outputs,
                           started=job_start))
    spans.job = None
    return PassRun(time.perf_counter() - start, runs)


def imagenet_pass(seed: int, spans, work_dir: Path, traced: bool) -> PassRun:
    """Fig. 7: ImageNet on Kebnekaise/Lustre with 1 and 28 map threads."""
    from repro.workloads import kebnekaise, run_imagenet_case

    jobs = [(f"threads={threads}",
             dict(scale=0.05, batch_size=256, threads=threads,
                  profile="epoch", seed=1 + seed))
            for threads in (1, 28)]
    run = _training_pass(spans, jobs, kebnekaise, run_imagenet_case)
    one, many = (job.outputs for job in run.jobs)
    speedup = many["posix_bandwidth"] / one["posix_bandwidth"]
    if not 5.0 <= speedup <= 11.0:
        run.problems.append(f"Fig. 7 threading speedup {speedup:.2f}x "
                            f"outside 5-11x")
    return run


def malware_pass(seed: int, spans, work_dir: Path, traced: bool) -> PassRun:
    """Fig. 11: malware on the Greendog HDD, threaded and staged."""
    from repro.workloads import greendog, run_malware_case

    base = dict(scale=0.08, batch_size=32, profile="epoch", seed=1 + seed)
    jobs = [("threads=1", dict(base, threads=1)),
            ("threads=16", dict(base, threads=16)),
            ("staged-2MiB", dict(base, threads=1, staging_threshold=2 * MIB))]
    run = _training_pass(spans, jobs, greendog, run_malware_case)
    naive, threaded, staged = (job.outputs["posix_bandwidth"]
                               for job in run.jobs)
    if not threaded < naive:
        run.problems.append("Fig. 11a: 16 threads did not lower bandwidth")
    gain = staged / naive - 1.0
    if not 0.10 <= gain <= 0.30:
        run.problems.append(f"Fig. 11b: staging gain {100 * gain:.1f} % "
                            f"outside 10-30 %")
    return run


# ---------------------------------------------------------------------------
# The distributed fleet
# ---------------------------------------------------------------------------

def _child_running() -> bool:
    """True while a child of this process runs; reaps exited children."""
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return False  # no children left at all
        if pid == 0:
            return True


def _grid_key(params) -> str:
    return (f"osts={params['n_osts']},cache={params['page_cache_gib']},"
            f"bw={params['bandwidth_scale']}")


def _ost_problems(outputs: Dict[str, Dict[str, object]]) -> List[str]:
    series = [outputs[_grid_key(dict(OST_SLICE, n_osts=osts))]
              ["cold_bandwidth"] for osts in GRID_OSTS]
    return [f"{osts} OSTs lowered cold bandwidth by "
            f"{100 * (1 - more / fewer):.1f} %"
            for osts, fewer, more in zip(GRID_OSTS[1:], series, series[1:])
            if more < fewer * (1.0 - OST_TOLERANCE)]


def fleet_pass(seed: int, spans, work_dir: Path, traced: bool) -> PassRun:
    """The 105-job platform grid drained by a 2-worker fs-queue fleet."""
    from repro.campaign import DistributedExecutor, run_campaign
    from repro.workloads import platform_grid_spec

    spec = platform_grid_spec(osts=GRID_OSTS, page_cache_gib=GRID_CACHES_GIB,
                              bandwidth_scales=GRID_BANDWIDTHS, seed=7 + seed)
    pass_dir = work_dir / f"fleet-{os.getpid()}-{time.monotonic_ns()}"
    trace_path = pass_dir / "trace.json" if traced else None
    executor = DistributedExecutor(queue_dir=pass_dir / "queue",
                                   workers=FLEET_WORKERS,
                                   cache_dir=pass_dir / "cache",
                                   timeout=150.0, trace_path=trace_path)
    try:
        submitted = time.time()
        with spans.span("campaign.run_campaign"):
            result = run_campaign(spec, executor=executor,
                                  cache_dir=pass_dir / "cache")
        records = executor.last_queue.result_records()
        trace_events = None
        if trace_path is not None:
            with open(trace_path, encoding="utf-8") as handle:
                trace_events = json.load(handle)["traceEvents"]
    finally:
        shutil.rmtree(pass_dir, ignore_errors=True)

    timings = {name: record["timing"] for name, record in records.items()}
    runs = []
    for job_result in result.results:
        timing = timings.get(job_result.job_id)
        latency = (timing["stored_at"] - timing["enqueued_at"]
                   if timing else float("nan"))
        runs.append(JobRun(_grid_key(job_result.params), latency,
                           dict(job_result.metrics), job_result.error))
    problems = []
    if len(runs) != spec.job_count or len(timings) != spec.job_count:
        problems.append(f"{len(runs)} results, {len(timings)} timed, "
                        f"of {spec.job_count} jobs")
    if result.cache_hits != 0:
        problems.append(f"fresh cache served {result.cache_hits} hits")
    if _child_running():
        problems.append("a worker process outlived the campaign")
    if not problems and all(run.error is None for run in runs):
        problems += _ost_problems({run.key: run.outputs for run in runs})
    wall = (max(t["stored_at"] for t in timings.values()) - submitted
            if timings else float("nan"))
    spawn = (min(t["claimed_at"] for t in timings.values()) - submitted
             if timings else float("nan"))
    return PassRun(wall, runs, problems, spawn_s=spawn,
                   trace_events=trace_events)


@dataclass(frozen=True)
class Workload:
    name: str
    run_pass: Callable[..., PassRun]
    in_process: bool
    why: str


WORKLOADS = {w.name: w for w in (
    Workload("imagenet-epoch", imagenet_pass, True,
             "Fig. 7 pair: 12.8K small Lustre reads, 28 shared flows, "
             "full Darshan/tf-Darshan/dstat analysis"),
    Workload("malware-staging", malware_pass, True,
             "Fig. 11 trio: few large HDD reads plus Optane staging writes; "
             "little Darshan or dstat work per byte"),
    Workload("platform-grid-fleet", fleet_pass, False,
             "105 tiny jobs on a 2-worker fs-queue fleet: spawn, claim and "
             "settle dominate, physics nearly idle"),
)}


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def mismatches(expected, actual, where: str = "") -> List[str]:
    """Differences between reference and simulated statistics.

    Integers, strings and key sets must match exactly; floats within
    ``REL_TOL``.
    """
    if isinstance(expected, dict) and isinstance(actual, dict):
        if set(expected) != set(actual):
            return [f"{where}: keys {sorted(set(expected) ^ set(actual))} "
                    f"differ"]
        found = []
        for key in sorted(expected):
            found += mismatches(expected[key], actual[key], f"{where}.{key}")
        return found
    if isinstance(expected, float) or isinstance(actual, float):
        if (isinstance(expected, (int, float)) and isinstance(actual, (int, float))
                and type(expected) is type(actual)
                and math.isclose(expected, actual, rel_tol=REL_TOL)):
            return []
        return [f"{where}: expected {expected!r}, got {actual!r}"]
    if type(expected) is not type(actual) or expected != actual:
        return [f"{where}: expected {expected!r}, got {actual!r}"]
    return []
