"""Shared helpers for the benchmark harnesses.

Every benchmark regenerates one table or figure of the paper at a reduced
(documented) scale: it runs the corresponding experiment once under
``pytest-benchmark`` (so the harness also reports how long the simulation
takes to run), prints the paper-vs-measured comparison, and asserts the
qualitative shape the paper reports.  EXPERIMENTS.md records the measured
values.

The throughput micro-benchmarks additionally persist machine-readable
artifacts (:func:`write_bench_artifact` → ``BENCH_<name>.json`` with
ops/s, git sha, timestamp and host facts) so the perf trajectory is
tracked across PRs instead of living only in terminal scrollback; CI
uploads them.
"""

import json
import os
import platform
import subprocess
import sys
import time

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)


_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def pytest_collection_modifyitems(items):
    """Benchmarks are opt-in (``-m bench``) unless they claim tier1.

    The figure/table harnesses each run whole (scaled) training campaigns;
    keeping them out of the default selection keeps `pytest -x -q` fast.
    The kernel-throughput micro-benchmark marks itself ``tier1`` so the
    >=2x scheduler-speedup gate runs on every commit.
    """
    for item in items:
        if (str(item.fspath).startswith(_BENCH_DIR)
                and "tier1" not in item.keywords):
            item.add_marker(pytest.mark.bench)


def _git_sha() -> str:
    """Current commit sha, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], capture_output=True, text=True,
            cwd=os.path.dirname(_BENCH_DIR), timeout=10.0, check=False)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def write_bench_artifact(name, results):
    """Persist one benchmark's numbers as ``BENCH_<name>.json``.

    ``results`` is a flat mapping of metric name → ops/s (floats); the
    artifact adds the git sha, a UTC timestamp and the host's cores and
    Python version so a sequence of artifacts *is* the perf trajectory,
    and rates from different hosts are not mistaken for a regression.
    The destination defaults to the benchmarks directory (committed, so
    the trajectory rides the repo) and is overridable via
    ``REPRO_BENCH_DIR`` for CI artifact staging.
    Returns the path written.
    """
    record = {
        "benchmark": name,
        "git_sha": _git_sha(),
        "host": {"cores": os.cpu_count(),
                 "python": platform.python_version()},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "results": {key: round(float(value), 2)
                    for key, value in sorted(results.items())},
    }
    out_dir = os.environ.get("REPRO_BENCH_DIR", _BENCH_DIR)
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"BENCH_{name}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


@pytest.fixture(scope="session")
def bench_artifact():
    """The :func:`write_bench_artifact` writer, as a fixture (resolved
    from this conftest regardless of how pytest maps module names)."""
    return write_bench_artifact


def run_once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under pytest-benchmark and return its result."""
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1,
                              iterations=1, warmup_rounds=0)


def report(title, comparisons):
    """Print a paper-vs-measured table (shown with ``pytest -s``)."""
    from repro.tools import comparison_table

    print()
    print(f"== {title} ==")
    print(comparison_table(comparisons))
