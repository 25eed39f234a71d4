"""Host speed, measured by a fixed reference kernel timed around and during
each task.

On a shared host the same code runs up to about twice as slowly for seconds
to minutes at a time: other tenants contend for the cores.  Steal time does
not account for it, and CPU time slows as much as wall time.  A slowdown of
that kind hits the reference kernel much as it hits the program, so a task's
wall time is divided by the mean reference time sampled before, during and
after it, and multiplied by ``NOMINAL_REFERENCE_S``: the result reads as
seconds on a host where the reference kernel takes that long.

During a task an interval timer interrupts the program every ``interval_s``
seconds to time the kernel once more (Python runs the handler between
bytecodes, so a long numpy call delays the sample, never corrupts it).  The
time spent in the kernel is taken off the task's wall time.

The kernel mixes the kinds of work the workloads do: an interpreted loop,
vectorised complex arithmetic on a large array, and a run of numpy calls on
3x3 complex matrices (the solvers' per-step pattern).
"""

from __future__ import annotations

import contextlib
import signal
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

# About the reference kernel's time on a 2 GHz Intel Xeon vCPU when nothing
# else contends for it; it only sets the scale of the normalised times.
NOMINAL_REFERENCE_S = 0.008

_RNG = np.random.default_rng(0)
_VECTOR = _RNG.random(50_000)
_MATRIX = _RNG.random((3, 3)) + 1j * _RNG.random((3, 3))


def reference_seconds() -> float:
    """Wall time of one run of the reference kernel."""
    started = time.perf_counter()
    total = 0
    for i in range(10_000):
        total += i * i
    for _ in range(3):
        np.exp(1j * _VECTOR)
    x = np.eye(3, dtype=complex)
    for _ in range(700):
        x = _MATRIX @ x
        x = x / np.abs(x).max()
    return time.perf_counter() - started


@dataclass
class Timing:
    wall: float = 0.0  # task wall time, kernel samples taken off
    norm: float = 0.0  # the same at nominal host speed
    samples: list[float] = field(default_factory=list)  # reference times


class Pace:
    """Times tasks and converts their wall time to nominal host speed."""

    def __init__(self, interval_s: float = 0.25) -> None:
        self.interval_s = interval_s
        self.references: list[float] = [reference_seconds()]

    @contextlib.contextmanager
    def measure(self):
        """Time the block; the ``Timing`` it yields is filled in on exit."""
        timing = Timing(samples=[self.references[-1]])
        paused = 0.0
        active = True  # a signal still pending once the block ends is ignored

        def sample(signum, frame):
            nonlocal paused
            if active:
                began = time.perf_counter()
                timing.samples.append(reference_seconds())
                paused += time.perf_counter() - began

        started = time.perf_counter()
        previous = signal.signal(signal.SIGALRM, sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        try:
            yield timing
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            active = False
            ended = time.perf_counter()
            signal.signal(signal.SIGALRM, previous)
            timing.wall = ended - started - paused
        self.references.extend(timing.samples[1:])
        self.references.append(reference_seconds())
        timing.samples.append(self.references[-1])
        timing.norm = (timing.wall * NOMINAL_REFERENCE_S
                       / statistics.fmean(timing.samples))
