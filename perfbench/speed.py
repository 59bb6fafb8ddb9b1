"""The speed of the machine, measured alongside the workload.

The benchmark runs on shared machines whose speed drifts: neighbours
that contend for caches, memory or the processor itself slow every
workload by a fifth, or by half, for minutes at a time.  Raw wall times
then measure the neighbours as much as the program.  So while a workload
runs, a timer interrupts it every ``INTERVAL_S`` seconds and times one
call of ``reference()``, a fixed piece of pure-Python work (tuple-keyed
dict lookups and small dict copies, as the library's linear combinations
do), after a short untimed call that brings its table back into cache.
The table is small (4096 entries), so that how much of the cache the
workload takes between timings hardly moves them.  The time the
interrupts take is kept off the workload's clock.

Every timing the benchmark reports is then scaled to the machine's
speed at that moment: a span of workload time is multiplied by
``REFERENCE_S`` over the mean of the ``WINDOW`` reference timings
nearest to it.  The mean, not the median, because a timing that the
scheduler cut into is as real a slowdown as a slow one, and the mean
weighs it as the workload feels it.  ``REFERENCE_S`` is what
``reference()`` took on the machine the benchmark was defined on (2-vCPU
x86-64 virtual machine shared with other tenants, Python 3.11), so
there a scaled second is about a wall second; elsewhere it is a second
of that machine.  The reference code is part of the benchmark, not of
the library, so a change to the library moves the scaled times and not
the yardstick.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
from bisect import bisect_right
from time import perf_counter

REFERENCE_S = 0.0040
INTERVAL_S = 0.1
WINDOW = 9

_TABLE = {(i, i ^ 0x5A5A): i * 7919 for i in range(1 << 12)}
_KEYS = list(_TABLE)
random.Random(0).shuffle(_KEYS)


def reference(n: int = 4000) -> int:
    """A fixed amount of pure-Python work, about 4 ms on the machine above."""
    table, keys, acc = _TABLE, _KEYS, 0
    for i in range(n):
        k = keys[i % 4096]
        d = {k: table[k], (i, 0): i}
        e = dict(d)
        e[k] = e[k] * 3 + 1
        acc += sum(e.values())
    return acc


def time_reference() -> float:
    """Seconds one call of ``reference()`` takes, after a short warm-up
    call, with the collector off so that the size of the workload's heap
    does not enter into it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        reference(400)
        start = perf_counter()
        reference()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def rolling_means(values: list[float], window: int = WINDOW) -> list[float]:
    """The mean of the ``window`` values centred on each value, the window
    shifted inwards at the ends (all of them when there are fewer)."""
    n, half = len(values), window // 2
    out = []
    for k in range(n):
        lo = min(max(0, k - half), max(0, n - window))
        out.append(statistics.fmean(values[lo:lo + window]))
    return out


class Speedometer:
    """Reference timings taken while a workload runs, and the workload clock
    that leaves them out.

    Use as a context manager around the workload; time the workload with
    ``clock()``, then call ``scaled(t0, t1)`` on any interval of that clock.
    """

    def __init__(self, interval: float = INTERVAL_S, window: int = WINDOW):
        self.interval = interval
        self.window = window
        self.paused = 0.0            # seconds spent on reference timings
        self.stamps: list[float] = []    # workload-clock time of each timing
        self.timings: list[float] = []   # seconds each timing took
        self._busy = False
        self._previous = None
        self._factors: list[float] | None = None

    def clock(self) -> float:
        """Seconds on the workload clock: wall time less the timings."""
        return perf_counter() - self.paused

    def sample(self) -> None:
        """Take one reference timing now."""
        if self._busy:
            return
        self._busy = True
        start = perf_counter()
        try:
            took = time_reference()
            self.stamps.append(start - self.paused)
            self.timings.append(took)
            self._factors = None
        finally:
            self.paused += perf_counter() - start
            self._busy = False

    def _tick(self, signum, frame) -> None:
        self.sample()

    def __enter__(self) -> "Speedometer":
        self.sample()
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()

    def factors(self) -> list[float]:
        """For each timing, ``REFERENCE_S`` over the rolling mean around it."""
        if self._factors is None:
            self._factors = [REFERENCE_S / m for m in rolling_means(self.timings, self.window)]
        return self._factors

    def scaled(self, t0: float, t1: float) -> float:
        """The workload-clock interval ``[t0, t1]`` in reference seconds.

        Each timing stands for the stretch of clock from it to the next
        one; the stretch before the first timing takes the first one's
        factor."""
        f, stamps = self.factors(), self.stamps
        if not f:
            raise ValueError("no reference timings taken")
        k = max(bisect_right(stamps, t0) - 1, 0)
        total, t = 0.0, t0
        while k + 1 < len(stamps) and stamps[k + 1] < t1:
            total += (stamps[k + 1] - t) * f[k]
            t = stamps[k + 1]
            k += 1
        return total + (t1 - t) * f[k]

    def mean_factor(self) -> float:
        """``REFERENCE_S`` over the mean of all the timings."""
        return REFERENCE_S / statistics.fmean(self.timings)
