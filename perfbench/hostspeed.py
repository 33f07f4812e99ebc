"""Host-speed probe: how fast the host runs Python while a span is timed.

On a shared host the same pass can take 1.7 s or 3.2 s a minute apart,
with no CPU steal counted, because neighbours slow the physical cores;
process CPU time slows with it.  A calibration loop timed before and after
a pass does not track such bursts, but one timed *during* it does: on a
shared 2-core VM, normalising each malware pass by the probe samples taken
inside it cut the pass-to-pass spread from 16 % to 5 %.

:class:`SpeedProbe` runs a small fixed pure-Python kernel from a
``SIGALRM`` timer every :data:`INTERVAL_S` seconds, on the thread being
measured, and records when it ran, how long it took and how much CPU time
it used.  :meth:`SpeedProbe.normalise` turns a span's measured seconds into
seconds at the reference speed, the speed at which the kernel uses
:data:`REFERENCE_KERNEL_S` of CPU: it removes the probe's own time from the
span and scales the rest by ``REFERENCE_KERNEL_S`` over the kernel's
typical CPU time in the span.  That is the mean of the fastest 90 % of the
samples.  CPU time, because on the fleet the measuring process shares the
cores with the workers, and a preempted kernel would read as a slow host.
The slowest tenth is dropped for interrupts and garbage collections.  A
mean, not a median, because on a shared core the kernel's time is bimodal
(about 0.11 or 0.22 ms) and a median jumps between the modes.  The kernel
is independent of the program, so a change to the program moves
normalised times as it moves raw ones.  It tracks the host only in part:
imagenet passes slowed about 0.6-0.7 times as much as the kernel did, so
there a faster host reads slightly slower; malware and fleet passes
slowed as much as the kernel.

Timers are not inherited by child processes, so fleet workers and the
set-up interpreters never run the kernel; only the measuring process does.
"""

from __future__ import annotations

import signal
import time

INTERVAL_S = 0.02
#: Fixes the scale of normalised times: on a shared 2-core VM with
#: Python 3.11.7 the kernel's CPU time inside passes was 0.13-0.46 ms
#: (1st to 90th percentile).
REFERENCE_KERNEL_S = 2.5e-4
#: A span with fewer samples inside borrows the nearest ones outside it.
MIN_SAMPLES = 5


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key, value, nxt):
        self.key = key
        self.value = value
        self.next = nxt


def kernel() -> float:
    """Fixed interpreter work: allocation, attribute and dict traffic."""
    table = {}
    head = None
    total = 0.0
    for i in range(300):
        head = _Node(i, i * 0.5, head)
        table[i & 63] = head
        probe = table.get((i * 7) & 63)
        if probe is not None:
            total += probe.value
    return total


def typical(cpu_times) -> float:
    """Mean of the fastest 90 % of the kernel's CPU times."""
    kept = sorted(cpu_times)
    kept = kept[:max(1, len(kept) * 9 // 10)]
    return sum(kept) / len(kept)


class SpeedProbe:
    """Samples the kernel while active (a context manager)."""

    def __init__(self):
        #: (perf_counter at start, seconds it took, CPU seconds it used)
        self.samples = []

    def _sample(self, signum, frame) -> None:
        start, cpu = time.perf_counter(), time.thread_time()
        kernel()
        self.samples.append((start, time.perf_counter() - start,
                             time.thread_time() - cpu))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _inside(self, start: float, end: float):
        inside = [s for s in self.samples if start <= s[0] < end]
        if len(inside) < MIN_SAMPLES:
            middle = (start + end) / 2.0
            inside = sorted(self.samples,
                            key=lambda s: abs(s[0] - middle))[:MIN_SAMPLES]
        if not inside:
            raise RuntimeError("the host-speed probe took no samples")
        return inside

    def normalise(self, start: float, end: float, seconds=None) -> float:
        """``seconds`` measured within ``[start, end)`` (default: the whole
        span) at reference speed.  The probe's own time in the span is
        removed in proportion to the share of the span ``seconds`` covers.
        """
        span = end - start
        if seconds is None:
            seconds = span
        inside = self._inside(start, end)
        busy = sum(took for at, took, _ in inside if start <= at < end)
        if span > 0:
            seconds *= 1.0 - busy / span
        return (seconds * REFERENCE_KERNEL_S
                / typical(cpu for _, _, cpu in inside))
