"""How fast the shared machine runs, measured next to the program.

On a shared VM the same command can take 40% longer for tens of seconds at
a time, because other tenants slow the CPU down; process CPU time rises
with wall time, so neither clock can tell it apart from a slower program.
`SpeedProbe` times a fixed slice of reference work, which uses nothing
from the program, four times a second from a timer signal, also while a
command runs.  A command's latency is rescaled by the mean slice time
around it (`REF_S / mean`), so it reads as seconds at one fixed machine
speed.  The mean, not the median, because a command's time integrates the
slow stretches as well as the fast ones.  The slices' own time is
subtracted from the command's latency.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

#: seconds between reference slices
PERIOD_S = 0.25

#: mean slice time on an unloaded 2-core x86-64 VM (Python 3.11, numpy
#: 2.4, OpenBLAS, one BLAS thread); rescaled latencies read as seconds at
#: that speed
REF_S = 0.0045

#: slices this far before and after a command also describe its speed
WINDOW_S = 1.0


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(12345)
        self._A = rng.normal(size=(12, 12))
        self._b = rng.normal(size=12)
        self._E = rng.integers(0, 4, size=(40, 12))
        self._x = rng.normal(size=12) + 0.5j
        self.times = []    # start of each slice
        self.slices = []   # seconds each slice took
        self.stolen = 0.0  # seconds spent in the signal handler
        self._previous = None

    def reference_slice(self) -> float:
        """Interpreter-bound dict and tuple arithmetic plus small numpy and
        LAPACK calls: the mix the package spends its time in."""
        A, b, E, x = self._A, self._b, self._E, self._x
        acc = {}
        t0 = perf_counter()
        for k in range(120):
            np.linalg.solve(A, b)
            np.prod(x[None, :] ** E, axis=1)
            for e in range(40):
                key = (k % 7, e, e * k % 5)
                acc[key] = acc.get(key, 0) + e * k
        return perf_counter() - t0

    def _tick(self, signum, frame):
        t0 = perf_counter()
        self.slices.append(self.reference_slice())
        self.times.append(t0)
        self.stolen += perf_counter() - t0

    def sample(self, count: int):
        """Take `count` slices now, without the timer: for timing work in
        other processes, which slices running alongside would slow down."""
        for _ in range(count):
            self._tick(None, None)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        # one more slice, so the last command has a slice after it
        self._tick(None, None)
        return False

    def rescale(self, start: float, end: float, seconds: float) -> float:
        """`seconds` measured over [start, end], at the reference speed."""
        lo = bisect.bisect_left(self.times, start - WINDOW_S)
        hi = bisect.bisect_right(self.times, end + WINDOW_S)
        near = self.slices[lo:hi]
        if not near:  # nothing within the window: take the nearest slice
            k = min(bisect.bisect_left(self.times, start), len(self.times) - 1)
            near = self.slices[k:k + 1]
        return seconds * REF_S / statistics.fmean(near)

    def summary(self) -> dict:
        q1, med, q3 = statistics.quantiles(self.slices, n=4) \
            if len(self.slices) >= 2 else (self.slices * 3)
        return {"median": med, "q1": q1, "q3": q3, "n": len(self.slices)}
