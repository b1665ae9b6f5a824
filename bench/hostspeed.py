"""Host speed probe: wall-clock intervals in reference-speed seconds.

On a shared virtual machine the speed a thread gets can change by 2x within
a second, as other tenants load the host, and the two vCPUs of a 2-vCPU
guest drift independently.  A median of wall times then moves more between
runs than the regressions the benchmark must catch.

`HostSpeed` runs a fixed pure-Python loop in a SIGALRM handler 50 times a
second, on the thread being measured, so each run of the loop samples the
speed that thread gets at that moment.  `seconds(a, b)` takes the time spent
in [a, b] outside the probe and scales it by the mean of reference / sampled
loop time: the time the interval would have taken at the reference speed.
The probe costs about 0.7 % of the thread's time, the same on every commit.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

PERIOD_S = 0.02
LOOP = 1000
OBJECTS = 400
# the probe's time on an unloaded host: 2.1 GHz x86_64, CPython 3.11
REF_S = 130e-6


class _Pair:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b


def _loop() -> int:
    """Integer arithmetic, then small-object allocation and attribute reads.

    Arithmetic alone under-corrects the compiler workloads, whose speed
    falls further than an arithmetic loop's when the host is loaded; the
    object half (about 60 % of the probe's time) tracks them, the
    arithmetic half tracks the big-integer kernels.
    """
    s = 0
    for i in range(LOOP):
        s += i * i
    for p in [_Pair(i, s) for i in range(OBJECTS)]:
        s += p.a ^ p.b
    return s


class HostSpeed:
    def __init__(self):
        self.at: list[float] = []     # probe start times, perf_counter
        self.took: list[float] = []   # probe durations

    def _sample(self, signum, frame):
        a = time.perf_counter()
        _loop()
        self.took.append(time.perf_counter() - a)
        self.at.append(a)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def seconds(self, a: float, b: float) -> float:
        """Reference-speed seconds spent in [a, b], probe runs excluded.

        An interval shorter than the sampling period uses the samples just
        before and after it.
        """
        n = min(len(self.at), len(self.took))
        lo = bisect.bisect_left(self.at, a, 0, n)
        hi = bisect.bisect_right(self.at, b, 0, n)
        near = self.took[max(lo - 1, 0):min(hi + 1, n)]
        if not near:
            raise RuntimeError("host speed probe has no samples")
        busy = (b - a) - sum(self.took[lo:hi])
        return busy * statistics.fmean(REF_S / x for x in near)

    def factor(self) -> float:
        """Median sampled speed over the run, relative to the reference."""
        return statistics.median(REF_S / x for x in self.took)
