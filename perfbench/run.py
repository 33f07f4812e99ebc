"""The repository benchmark: paper-figure jobs and the platform-grid fleet.

Run from the repository root::

    python3 perfbench/run.py --workload imagenet-epoch --seed 0 \
        --seconds 35 --trace 0

``--trace 0`` measures the end-to-end metrics untraced; ``--trace 1`` is
the separate traced run that reports the per-layer metrics.  End-to-end
times are in seconds at a fixed reference host speed (``hostspeed.py``), so
that a shared host's changing speed does not read as a change in the
program; the raw times are printed beside them.  Human-readable
lines go to stdout first; the last line is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every job's simulated outputs passed the checks.

``--write-spec`` rewrites ``BENCHMARK.json`` from the definitions below and
``--write-reference`` regenerates ``reference.json`` (seed 0 outputs) after
an intended physics change.  ``README.md`` beside this file says why each
workload exists and which end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import hostspeed
import layers
from workloads import FLEET_WORKERS, WORKLOADS, NullSpans, mismatches

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REPRO_DIR = ROOT / "src" / "repro"
WORK_DIR = ROOT / ".perfbench"
REFERENCE = HERE / "reference.json"

RUN_SECONDS = 35
#: Fresh interpreters timed per run for ``setup_s``; the median is reported.
SETUP_SAMPLES = 7
#: Share of a traced run spent on untraced passes, the overhead baseline.
UNTRACED_SHARE = 1.0 / 3.0

#: (name, unit, better, bound): what a user of the system waits for.
#: The time bounds allow for the host: on a shared 2-core VM the spread of
#: ten runs' medians was 1-3 % while it was quiet and 4-12 % while its
#: neighbours slowed it 2-2.5x (see README.md).
END_TO_END = (
    ("wall_s", "s", "lower", 0.20),
    ("job_latency_s.p50", "s", "lower", 0.20),
    ("job_latency_s.p90", "s", "lower", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
)

#: Fleet-only metrics, 0 on the in-process workloads.
CAMPAIGN = (
    ("campaign.queue_wait_s.p50", "s", "lower"),
    ("campaign.run_s.p50", "s", "lower"),
    ("campaign.store_s.p50", "s", "lower"),
    ("campaign.utilization", "ratio", "higher"),
    ("campaign.attempts_per_job", "count", "lower"),
    ("campaign.worker_peak_rss_mb", "MB", "lower"),
)

PER_LAYER = (
    tuple((f"{layer}.self_s", "s", "lower") for layer in layers.LAYERS)
    + tuple((f"{layer}.self_share", "ratio", "lower")
            for layer in layers.LAYERS)
    + (
        ("profile.total_s", "s", "lower"),
        ("storage.timeline_s", "s", "lower"),
        ("storage.intervals", "count", "lower"),
        ("storage.timeline_bins", "count", "lower"),
        ("storage.staging_s", "s", "lower"),
        ("storage.read_ops", "count", "lower"),
        ("storage.write_ops", "count", "lower"),
        ("storage.metadata_ops", "count", "lower"),
        ("storage.bytes_read", "bytes", "lower"),
        ("storage.bytes_written", "bytes", "lower"),
        ("storage.mds_requests", "count", "lower"),
        ("storage.pagecache_hit_ratio", "ratio", "higher"),
        ("posix.ops", "count", "lower"),
        ("posix.zero_byte_reads", "count", "lower"),
        ("tfmini.steps", "count", "higher"),
        ("workloads.platform_build_s", "s", "lower"),
        ("workloads.dataset_layout_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    )
    + CAMPAIGN
)

#: Storage counters summed over one pass's jobs: metric -> job output.
STORAGE_COUNTS = {
    "storage.read_ops": "device_read_ops",
    "storage.write_ops": "device_write_ops",
    "storage.metadata_ops": "device_metadata_ops",
    "storage.bytes_read": "device_bytes_read",
    "storage.bytes_written": "device_bytes_written",
    "storage.mds_requests": "mds_requests",
    "posix.ops": "posix_ops",
    "posix.zero_byte_reads": "zero_byte_reads",
    "tfmini.steps": "steps",
}

IMPORT_PROBE = ("import time\n"
                "import repro.campaign, repro.workloads\n"
                "repro.campaign.available_cases()\n"
                "print(repr(time.time()))\n")


def benchmark_spec() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": name, "unit": unit, "better": better,
                        "bound": bound}
                       for name, unit, better, bound in END_TO_END],
        "per_layer": [{"name": name, "unit": unit, "better": better}
                      for name, unit, better in PER_LAYER],
    }


# ---------------------------------------------------------------------------
# Host facts and set-up
# ---------------------------------------------------------------------------

def _git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "unknown"
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def calibration_s() -> float:
    """Median time of a fixed pure-Python loop: how fast the host runs now.

    Shared hosts change speed over minutes; this tells such drift apart
    from a change in the program when two runs disagree.
    """
    def loop() -> float:
        start = time.perf_counter()
        total = 0
        for i in range(500_000):
            total += i
        return time.perf_counter() - start

    return statistics.median(loop() for _ in range(5))


def host_facts() -> dict:
    import numpy

    return {"cores": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": _git_sha(),
            "calibration_s": calibration_s()}


def import_samples(count: int, probe) -> list:
    """Seconds from launching a fresh interpreter until ``repro`` is
    imported and its cases registered, one sample per interpreter.

    The probe runs in this process, on the other core, while it waits:
    samples taken inside the interpreter itself were too few, because
    signals wait while an import runs C code.
    """
    samples = []
    for _ in range(count):
        began, start = time.perf_counter(), time.time()
        done = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                              capture_output=True, text=True, timeout=60,
                              check=True)
        raw = float(done.stdout.split()[-1]) - start
        samples.append(probe.normalise(began, time.perf_counter(), raw))
    return samples


def _peak_rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Measurement
# ---------------------------------------------------------------------------

def measure(workload, seed: int, budget: float, spans=None, profile=None):
    """Closed loop: run passes until another would overrun ``budget``."""
    runs = []
    start = time.perf_counter()
    while True:
        if profile is not None:
            profile.enable()
        began = time.perf_counter()
        try:
            run = workload.run_pass(seed, spans or NullSpans(), WORK_DIR,
                                    profile is not None)
        finally:
            if profile is not None:
                profile.disable()
        run.span = (began, time.perf_counter())
        runs.append(run)
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(runs) > budget:
            return runs


def check_outputs(workload, seed: int, runs, reference):
    """Count attempted and failed jobs; return them with the reasons."""
    expected = reference.get(workload.name, {}) if seed == 0 else {}
    first = {job.key: job.outputs for job in runs[0].jobs}
    attempted = failed = 0
    reasons = []
    for run in runs:
        reasons += run.problems
        for job in run.jobs:
            attempted += 1
            wrong = [job.error] if job.error else []
            if job.outputs != first[job.key]:
                wrong.append("outputs differ between passes of one seed")
            if expected:
                wrong += mismatches(expected.get(job.key), job.outputs,
                                    job.key)
            reasons += wrong
            failed += bool(wrong or run.problems)
    return attempted, failed, reasons


def percentile(values, share: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def job_latency(probe, run, job) -> float:
    """A job's latency at reference speed, probed over the job itself
    where its start is known, else over its pass."""
    if job.started is None:
        return probe.normalise(*run.span, job.latency_s)
    return probe.normalise(job.started, job.started + job.latency_s)


def end_to_end_metrics(workload, runs, probe) -> tuple:
    walls = [probe.normalise(*run.span, run.wall_s) for run in runs]
    by_job = {}
    for run in runs:
        for job in run.jobs:
            by_job.setdefault(job.key, []).append(job_latency(probe, run, job))
    # Each job's median over the passes, then percentiles over the job set:
    # a pool of 2 or 3 jobs per pass would put p50 between two jobs.
    latencies = [statistics.median(values) for values in by_job.values()]
    worker_rss = _peak_rss_mb(resource.RUSAGE_CHILDREN)
    setup = statistics.median(import_samples(SETUP_SAMPLES, probe))
    if not workload.in_process:
        setup += statistics.median(probe.normalise(*run.span, run.spawn_s)
                                   for run in runs)
    return {
        "wall_s": statistics.median(walls),
        "job_latency_s.p50": statistics.median(latencies),
        "job_latency_s.p90": percentile(latencies, 0.9),
        "setup_s": setup,
        "peak_rss_mb": _peak_rss_mb(resource.RUSAGE_SELF),
    }, {"job_latency_s.samples": sum(map(len, by_job.values())),
        "raw_wall_s": statistics.median(run.wall_s for run in runs),
        "host_slowdown": statistics.median(run.wall_s / wall
                                        for run, wall in zip(runs, walls)),
        "worker_peak_rss_mb": 0.0 if workload.in_process else worker_rss}


def layer_metrics(workload, untraced, traced, spans, profile) -> tuple:
    passes = len(traced)
    buckets, total = layers.bucket_profile(profile, str(REPRO_DIR))
    metrics = {f"{layer}.self_s": buckets[layer] / passes
               for layer in layers.LAYERS}
    metrics.update({f"{layer}.self_share": buckets[layer] / total
                    for layer in layers.LAYERS})
    metrics["profile.total_s"] = total / passes
    for metric, span in (("storage.timeline_s", "storage.timeline"),
                         ("storage.staging_s", "storage.staging"),
                         ("workloads.platform_build_s",
                          "workloads.platform_build"),
                         ("workloads.dataset_layout_s",
                          "workloads.dataset_layout")):
        metrics[metric] = spans.total(span) / passes
    for counter in ("storage.intervals", "storage.timeline_bins"):
        metrics[counter] = spans.counts[counter] / passes

    outputs = [job.outputs for job in traced[-1].jobs]
    for metric, key in STORAGE_COUNTS.items():
        metrics[metric] = sum(int(out.get(key, 0)) for out in outputs)
    hits = sum(out.get("pagecache_hits", 0) for out in outputs)
    probes = hits + sum(out.get("pagecache_misses", 0) for out in outputs)
    metrics["storage.pagecache_hit_ratio"] = hits / probes if probes else 0.0

    campaign = {name: 0.0 for name, _, _ in CAMPAIGN}
    if not workload.in_process:
        per_pass = [layers.campaign_metrics(run.trace_events, run.wall_s,
                                            FLEET_WORKERS) for run in traced]
        campaign.update({name: statistics.median(p[name] for p in per_pass)
                         for name in per_pass[0]})
        campaign["campaign.worker_peak_rss_mb"] = _peak_rss_mb(
            resource.RUSAGE_CHILDREN)
    metrics.update(campaign)
    metrics["trace.overhead_ratio"] = (
        statistics.median(run.wall_s for run in traced)
        / statistics.median(run.wall_s for run in untraced))
    return metrics, layers.check_buckets(buckets, total)


def run_benchmark(args) -> int:
    workload = WORKLOADS[args.workload]
    with open(REFERENCE, encoding="utf-8") as handle:
        reference = json.load(handle)
    units = {name: unit for name, unit, *_ in END_TO_END + PER_LAYER}
    problems = []
    # Set-up is timed separately, in fresh interpreters: keep the import
    # (and a new checkout's bytecode compile) out of the first pass.
    import repro.campaign
    import repro.workloads  # noqa: F401 - registers the cases

    repro.campaign.available_cases()
    if args.trace:
        untraced = measure(workload, args.seed, args.seconds * UNTRACED_SHARE)
        spans, profile = layers.Spans(), cProfile.Profile()
        with layers.instrumented(spans):
            traced = measure(workload, args.seed,
                             args.seconds * (1.0 - UNTRACED_SHARE),
                             spans, profile)
        runs = untraced + traced
        metrics, attribution = layer_metrics(workload, untraced, traced,
                                             spans, profile)
        problems += [attribution] if attribution else []
        extra = {}
        spans.write_chrome_trace(
            WORK_DIR / f"spans-{workload.name}-seed{args.seed}.json")
    else:
        with hostspeed.SpeedProbe() as probe:
            runs = measure(workload, args.seed, args.seconds)
            metrics, extra = end_to_end_metrics(workload, runs, probe)

    attempted, failed, reasons = check_outputs(workload, args.seed, runs,
                                               reference)
    facts = host_facts()
    print(f"workload {workload.name} seed {args.seed} trace {args.trace}: "
          f"{len(runs)} passes, {attempted} jobs")
    print("  pass walls: " + " ".join(f"{run.wall_s:.3f}" for run in runs))
    print("host " + json.dumps(facts, sort_keys=True))
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"  {name} = {value:.6g}")
    print(f"  error_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} jobs)")
    if args.trace:
        print(f"  shares are of profile.total_s = "
              f"{metrics['profile.total_s']:.6g} s per traced pass")
    for reason in (problems + reasons)[:20]:
        print(f"perfbench: {reason}", file=sys.stderr)

    record = {"workload": workload.name, "seed": args.seed,
              "trace": args.trace, "host": facts, "passes": len(runs),
              "attempted": attempted, "failed": failed,
              "metrics": metrics, "extra": extra}
    results = WORK_DIR / "results"
    results.mkdir(exist_ok=True)
    with open(results / f"{workload.name}-seed{args.seed}-trace{args.trace}"
              f".json", "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)

    correct = failed == 0 and not problems
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0 if correct else 1


def write_reference() -> int:
    """Record every job's seed-0 outputs after checking the invariants."""
    reference = {}
    for workload in WORKLOADS.values():
        run = workload.run_pass(0, NullSpans(), WORK_DIR, False)
        errors = run.problems + [job.error for job in run.jobs if job.error]
        if errors:
            print(f"perfbench: {workload.name}: {errors}", file=sys.stderr)
            return 1
        reference[workload.name] = {job.key: job.outputs for job in run.jobs}
    with open(REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(reference, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-spec", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)

    if args.write_spec:
        with open(ROOT / "BENCHMARK.json", "w", encoding="utf-8") as handle:
            json.dump(benchmark_spec(), handle, indent=2)
            handle.write("\n")
        return 0
    if not (REPRO_DIR / "__init__.py").is_file():
        print(f"perfbench: no repro sources at {REPRO_DIR}", file=sys.stderr)
        return 2
    if not args.write_reference and (args.workload is None
                                     or args.seconds < 1 or args.seed < 0):
        parser.error("--workload is required; --seconds must be >= 1 and "
                     "--seed >= 0")

    # Everything the run writes, worker logs and temporary files included,
    # stays under the checkout.
    (WORK_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = tempfile.tempdir = str(WORK_DIR / "tmp")
    src = str(REPRO_DIR.parent)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))
    if args.write_reference:
        return write_reference()
    return run_benchmark(args)


if __name__ == "__main__":
    sys.exit(main())
