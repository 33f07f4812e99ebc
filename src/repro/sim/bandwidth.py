"""Fluid fair-sharing bandwidth resource.

Storage devices and CPU pools are modelled as *fluid* resources: every
active flow receives an equal share of the aggregate rate, optionally capped
per flow and degraded as a function of the number of concurrent flows (an
``efficiency`` curve — this is how HDD seek-thrashing under concurrent
streams is expressed).  Whenever the set of active flows changes, the
remaining work of every flow is re-evaluated and the next completion is
rescheduled.  Because all flows share one rate, each event evaluates that
rate once: progress is one ``rate * elapsed`` step subtracted from every
flow, and the next completion is the smallest remainder divided by the
rate (division by a positive constant is monotone, so this is the same
float as the smallest per-flow ``remaining / rate``).  The model is the
standard progress-based flow model used by network/storage simulators and
gives deterministic, closed-form sharing without simulating individual
requests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, List, Optional

from repro.sim.environment import Environment
from repro.sim.events import Event

#: Relative tolerance used to decide that a flow has completed.
_EPS = 1e-9


@dataclass
class TransferRecord:
    """Completed transfer returned as the value of a transfer event."""

    amount: float
    start: float
    end: float
    tag: Any = None

    @property
    def duration(self) -> float:
        """Elapsed time of the transfer in simulated seconds."""
        return self.end - self.start

    @property
    def rate(self) -> float:
        """Average achieved rate (amount / duration); ``inf`` for instant."""
        if self.duration <= 0:
            return math.inf
        return self.amount / self.duration


@dataclass
class _Flow:
    event: Event
    remaining: float
    amount: float
    start: float
    tag: Any = None


class SharedBandwidth:
    """A rate-limited resource shared fairly among concurrent flows.

    Every active flow gets one equal share of the aggregate rate; flows
    carry no weights, so :meth:`transfer` takes none.

    Parameters
    ----------
    env:
        The simulation environment.
    rate:
        Aggregate rate in units/second (bytes/s for devices, core-seconds/s
        for CPU pools).
    per_flow_rate:
        Optional cap on the rate a single flow may receive (e.g. the
        single-stream bandwidth of one Lustre OST, or 1.0 core for a CPU).
    efficiency:
        Optional callable ``n_flows -> factor`` in ``(0, 1]`` scaling the
        aggregate rate when ``n_flows`` flows are active.  Used to express
        devices whose total throughput *drops* under concurrency (HDDs).
    name:
        Label used in repr/debugging output.
    """

    def __init__(
        self,
        env: Environment,
        rate: float,
        per_flow_rate: Optional[float] = None,
        efficiency: Optional[Callable[[int], float]] = None,
        name: str = "",
    ):
        if rate <= 0:
            raise ValueError("rate must be positive")
        if per_flow_rate is not None and per_flow_rate <= 0:
            raise ValueError("per_flow_rate must be positive")
        self.env = env
        self.rate = float(rate)
        self.per_flow_rate = per_flow_rate
        self.efficiency = efficiency
        self.name = name
        self._flows: List[_Flow] = []
        self._last_update = env.now
        self._wake_generation = 0
        #: total units completed through this resource (monotonic)
        self.total_transferred = 0.0

    # -- public API ------------------------------------------------------
    @property
    def active_flows(self) -> int:
        """Number of flows currently in progress."""
        return len(self._flows)

    def current_per_flow_rate(self) -> float:
        """Rate each active flow currently receives (0 if no flows)."""
        return self._share(len(self._flows))

    def transfer(self, amount: float, tag: Any = None) -> Event:
        """Start a transfer of ``amount`` units.

        Returns an event whose value is a :class:`TransferRecord` once the
        transfer completes.  A zero/negative ``amount`` completes
        immediately.
        """
        event = Event(self.env)
        if amount <= 0:
            event.succeed(TransferRecord(0.0, self.env.now, self.env.now, tag))
            return event
        self._advance()
        self._flows.append(_Flow(event, float(amount), float(amount),
                                 self.env.now, tag))
        self._reschedule()
        return event

    # -- sharing model -----------------------------------------------------
    def _share(self, n_flows: int) -> float:
        if n_flows <= 0:
            return 0.0
        aggregate = self.rate
        if self.efficiency is not None:
            factor = self.efficiency(n_flows)
            if factor <= 0:
                raise ValueError("efficiency() must return a positive factor")
            aggregate *= factor
        share = aggregate * (1.0 / n_flows)
        if self.per_flow_rate is not None:
            share = min(share, self.per_flow_rate)
        return share

    # -- internal bookkeeping ---------------------------------------------
    def _time_quantum(self) -> float:
        """Smallest meaningful time step at the current simulation time.

        Completion checks and wake-ups are quantised to this value so that
        floating-point residue (a few ulps of ``now`` times a very high
        rate) can never leave a flow with an un-transferable remainder that
        would stall progress.
        """
        return max(1e-12, abs(self.env.now) * 1e-12)

    def _advance(self) -> None:
        """Account for progress made since the last update."""
        now = self.env.now
        elapsed = now - self._last_update
        self._last_update = now
        if elapsed <= 0 or not self._flows:
            return
        step = self._share(len(self._flows)) * elapsed
        for flow in self._flows:
            flow.remaining = max(0.0, flow.remaining - step)

    def _complete_finished(self) -> None:
        # A flow counts as finished when its remainder could be moved within
        # one time quantum at the aggregate rate (sub-nanosecond error) or is
        # a pure floating-point residue of its own size.
        threshold = self.rate * self._time_quantum()
        active: List[_Flow] = []
        finished: List[_Flow] = []
        for f in self._flows:
            if f.remaining <= max(threshold, _EPS * max(1.0, f.amount)):
                finished.append(f)
            else:
                active.append(f)
        if not finished:
            return
        self._flows = active
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
        rate = self._share(len(self._flows))
        if rate <= 0:  # pragma: no cover - defensive
            return
        time_to_next = min(flow.remaining for flow in self._flows) / rate
        if math.isinf(time_to_next):  # pragma: no cover - defensive
            return
        time_to_next = max(time_to_next, self._time_quantum())
        wake = self.env.timeout(time_to_next)
        wake.callbacks.append(lambda _ev, gen=generation: self._on_wake(gen))

    def _on_wake(self, generation: int) -> None:
        if generation != self._wake_generation:
            return  # superseded by a newer flow-set change
        self._advance()
        self._complete_finished()
        self._reschedule()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<SharedBandwidth {self.name or id(self):#x} rate={self.rate} "
                f"flows={len(self._flows)}>")


class CPUPool(SharedBandwidth):
    """A pool of CPU cores modelled as a shared-rate resource.

    A "transfer" of ``w`` units corresponds to ``w`` seconds of
    single-threaded CPU work; with ``cores`` cores, up to ``cores`` such
    tasks can proceed at full speed concurrently, and more than that degrade
    gracefully by sharing.
    """

    def __init__(self, env: Environment, cores: int, name: str = "cpu"):
        if cores <= 0:
            raise ValueError("cores must be positive")
        super().__init__(env, rate=float(cores), per_flow_rate=1.0, name=name)
        self.cores = int(cores)

    def compute(self, seconds: float, tag: Any = None) -> Event:
        """Perform ``seconds`` of single-threaded CPU work."""
        return self.transfer(seconds, tag=tag)
