"""Cost-driven scheduling: learned runtime estimates for LPT ordering.

Fanning a grid out over a worker pool suffers stragglers when a long job is
claimed last; ordering the queue by *descending estimated runtime* keeps the
tail short (classic LPT scheduling).  The estimates are learned, not
declared: every executed :class:`~repro.campaign.jobs.JobResult` carries its
wall time, and :func:`~repro.campaign.runner.run_campaign` — the model's one
learner — feeds fresh results into the model persisted alongside the result
cache, so the second campaign over a similar grid is scheduled from the
first one's measurements.

Two granularities back a :class:`CostModel` estimate:

* an exact per-job EWMA keyed by ``job_id`` (re-runs of the very same
  configuration, e.g. after a physics bump or a widened grid);
* a per-case running mean as the fallback for unseen configurations.

Unknown cases fall back to a neutral constant, which degrades to FIFO
ordering — correct, just not optimized.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Optional

from repro.campaign.jobs import JobResult
from repro.campaign.jsonio import json_dumps_bytes, json_loads_or_none
from repro.campaign.spec import JobSpec

#: Estimate used when nothing at all is known about a job's case.
DEFAULT_COST = 1.0

#: Smoothing factor of the exact per-job EWMA (recent runs dominate).
EWMA_ALPHA = 0.5

#: Filename used when persisting the model alongside a result cache.
COSTMODEL_FILENAME = "costmodel.json"


class CostModel:
    """Learned wall-time estimates, optionally persisted through a transport.

    The model is stored as one JSON document under ``key`` in any
    :class:`~repro.campaign.dist.transport.QueueTransport` — so when the
    result cache lives behind the HTTP broker, its scheduling priors follow
    it there instead of demanding a shared filesystem.  Without a
    transport the model is in-memory only.

    >>> from repro.campaign.dist.transport import MemoryTransport
    >>> job = JobSpec(campaign="demo", case="synthetic", index=0,
    ...               params={}, seed=1)
    >>> CostModel().estimate(job) == DEFAULT_COST  # nothing learned yet
    True
    >>> store = MemoryTransport()
    >>> model = CostModel(store)
    >>> model.observe(JobResult(job_id=job.job_id, case=job.case,
    ...                         params={}, seed=1, wall_time=2.5))
    >>> model.save()
    'costmodel.json'
    >>> CostModel(store).estimate(job)
    2.5
    """

    def __init__(self, transport: Optional[Any] = None,
                 key: str = COSTMODEL_FILENAME):
        self.transport = transport
        self.key = key
        self._exact: Dict[str, float] = {}
        self._cases: Dict[str, Dict[str, float]] = {}
        if transport is not None:
            self.load()

    @classmethod
    def alongside(cls, cache: Any) -> "CostModel":
        """The model persisted next to a result cache's entries — through
        the cache's own transport (``<root>/costmodel.json`` for a
        directory cache), so broker-hosted caches carry their scheduling
        priors too."""
        return cls(transport=cache.transport)

    # -- learning ----------------------------------------------------------
    def observe(self, result: JobResult) -> None:
        """Fold one executed result's wall time into the model.

        Cache-served results are ignored (their wall time measures disk
        reads, not the simulation); failed jobs still count — a diverging
        configuration occupies a worker for exactly as long as it ran.
        """
        wall = float(result.wall_time)
        # NB: json round-trips NaN, and `NaN <= 0` is False — mirror the
        # load()-path finiteness filter or one bad record poisons the
        # case mean (and order()'s sort) for the life of the process.
        if result.cached or not math.isfinite(wall) or wall <= 0:
            return
        previous = self._exact.get(result.job_id)
        self._exact[result.job_id] = (wall if previous is None else
                                      EWMA_ALPHA * wall
                                      + (1.0 - EWMA_ALPHA) * previous)
        stats = self._cases.setdefault(result.case, {"count": 0.0, "mean": 0.0})
        stats["count"] += 1.0
        stats["mean"] += (wall - stats["mean"]) / stats["count"]

    def observe_many(self, results: Iterable[JobResult]) -> None:
        """Fold a batch of executed results into the model (see :meth:`observe`)."""
        for result in results:
            self.observe(result)

    # -- estimation / scheduling ------------------------------------------
    def estimate(self, job: JobSpec) -> float:
        """Expected wall time of ``job`` in seconds."""
        exact = self._exact.get(job.job_id)
        if exact is not None:
            return exact
        stats = self._cases.get(job.case)
        if stats and stats["count"] > 0:
            return float(stats["mean"])
        return DEFAULT_COST

    def order(self, jobs: Iterable[JobSpec]) -> List[JobSpec]:
        """Longest-estimated-first, ties broken by grid position.

        The tiebreak keeps ordering deterministic, so two orchestrators
        replaying the same grid enqueue identically.
        """
        return sorted(jobs, key=lambda job: (-self.estimate(job), job.index))

    # -- persistence -------------------------------------------------------
    def load(self) -> None:
        """Load persisted estimates; a missing or corrupt document is empty.

        Crash consistency mirrors the result cache: the model is a pure
        optimization, so garbage in the store degrades scheduling, never
        correctness.
        """
        if self.transport is None:
            return
        got = self.transport.get(self.key)
        payload = json_loads_or_none(got[0]) if got is not None else None
        if payload is None:
            return
        exact = payload.get("exact", {})
        cases = payload.get("cases", {})
        def usable(value: Any) -> bool:
            # NB: json round-trips Infinity/NaN, and bool is an int subclass
            # — both would poison estimates/sorting downstream.
            return (isinstance(value, (int, float))
                    and not isinstance(value, bool)
                    and math.isfinite(value))

        if isinstance(exact, dict):
            self._exact = {str(k): float(v) for k, v in exact.items()
                           if usable(v)}
        if isinstance(cases, dict):
            # Field-level corruption (nulls, strings, non-finite) drops the
            # entry, never raises: the model is a hint, not a dependency.
            self._cases = {
                str(case): {"count": float(stats["count"]),
                            "mean": float(stats["mean"])}
                for case, stats in cases.items()
                if isinstance(stats, dict)
                and usable(stats.get("count")) and usable(stats.get("mean"))
            }

    def save(self) -> Optional[str]:
        """Persist the model; returns its storage key, or ``None`` (a
        no-op) when the model is in-memory only."""
        if self.transport is None:
            return None
        payload = {"exact": self._exact, "cases": self._cases}
        self.transport.put(self.key, json_dumps_bytes(payload))
        return self.key

    def __len__(self) -> int:
        return len(self._exact)

    def __repr__(self) -> str:
        return (f"CostModel(jobs={len(self._exact)}, "
                f"cases={sorted(self._cases)})")
