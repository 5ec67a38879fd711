"""A clock that runs at the host's current speed.

The speed of pure-Python work on a shared host drifts: on the 2-vCPU VM
this benchmark was defined on, the same operation took up to twice as long
from one minute to the next, in CPU time as much as in wall time, so it is
not scheduling delay.  While the operations run, ``HostClock`` times a
fixed reference task (small ``Fraction`` products and a dict store, about
0.35 ms there) every 20 ms from a SIGALRM handler in the main thread.  An
operation's cost in "ref" units is its wall time divided by the median
duration of the reference task during that operation, which cancels the
drift that both share.  The sampling costs about 2% of each operation.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from fractions import Fraction
from time import perf_counter

PERIOD_S = 0.02
MIN_SAMPLES = 5


def _reference_task() -> int:
    seen = {}
    for i in range(1, 60):
        f = Fraction(i % 7 - 3, i % 5 + 1)
        seen[i % 31] = [(f * f - f).numerator, i]
    return len(seen)


class HostClock:
    """Samples the reference task's duration while the context is open."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t = perf_counter()
        _reference_task()
        self.starts.append(t)
        self.durations.append(perf_counter() - t)

    def __enter__(self) -> HostClock:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def ref_s(self, t0: float, t1: float) -> float:
        """Median reference-task duration between t0 and t1.

        Uses the nearest MIN_SAMPLES samples when fewer fell inside.
        """
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        if hi - lo < MIN_SAMPLES:
            lo = max(0, min((lo + hi) // 2 - MIN_SAMPLES // 2,
                            len(self.durations) - MIN_SAMPLES))
            hi = lo + MIN_SAMPLES
        return statistics.median(self.durations[lo:hi])
