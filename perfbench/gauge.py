"""Wall time converted to time on a reference CPU.

On a shared host the same single-threaded Python code runs at speeds that
drift by a third within seconds, and the drift on one vCPU does not follow
the other's, while the process's CPU time tracks its wall time.  A gauge on
another core therefore cannot see it and CPU time does not remove it.

So the gauge samples the speed of the CPU the measured code runs on: an
interval timer interrupts the process every `PERIOD_S` and times a fixed
integer loop there, and once more at each end of a timed section.  A
section's reference time is its wall time (minus the time spent in the
gauge) times the mean of `REFERENCE_LOOP_S / reading` over the readings taken
during it.  A program change that makes modix slower raises the reference
time just as it raises wall time.  A slow spell of the host mostly does
not, but some spells slow modix's allocation-heavy code more than the loop,
and those remain in the figures.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import Callable, TypeVar

T = TypeVar("T")

PERIOD_S = 0.01
LOOP_ITERATIONS = 1000
# The loop's time on the reference CPU: a 2-vCPU x86-64 VM running CPython
# 3.11.7, where readings taken from the timer ranged from 0.177 ms (fastest)
# to 0.190 ms (median) over a quiet 4 s.
REFERENCE_LOOP_S = 0.00018


def _loop() -> float:
    start = time.perf_counter()
    h = 0xCBF29CE484222325
    for b in range(LOOP_ITERATIONS):
        h = ((h ^ (b & 255)) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return time.perf_counter() - start


class Gauge:
    """Samples CPU speed on a timer while it is open; use as a context manager."""

    def __init__(self) -> None:
        self.readings: list[float] = []
        self.spent_s = 0.0  # wall time inside the gauge itself
        self._previous = None

    def __enter__(self) -> "Gauge":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        self.readings.append(_loop())
        self.spent_s += time.perf_counter() - start

    def time(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """Call `fn`; return its result, its wall seconds and its reference
        seconds, both without the gauge's own time.

        Garbage is collected first, untimed, so that a collection owed to
        earlier work in the process never lands in the section; the section
        still pays for every collection its own allocations trigger.
        """
        gc.collect()
        self._sample()
        first = len(self.readings) - 1
        spent = self.spent_s
        start = time.perf_counter()
        result = fn()
        wall_s = time.perf_counter() - start - (self.spent_s - spent)
        self._sample()
        speed = statistics.fmean(REFERENCE_LOOP_S / r for r in self.readings[first:])
        return result, wall_s, wall_s * speed
