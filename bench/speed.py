"""Machine-speed probes, to take the host's slow and fast spells out of the
timings.

On a shared virtual machine the same interpreter work takes up to twice as
long in one spell as in another, and a spell lasts from a second to a
minute, so raw wall times of one workload differ by a quarter between runs.
While `Speedometer` runs, a SIGALRM interval timer (not a thread) interrupts
the process every INTERVAL_S and times `probe_work`, a fixed piece of
arithmetic like precint's own.  `scaled(t0, t1)` turns the wall time of a
span into reference seconds: the span's wall time less the probes inside it,
times the mean of REF_S / probe time over the probes within WINDOW_S of the
span.  A reference second is the time in which `probe_work` runs 1 / REF_S
times; on the machine the reference figures come from, it is about one wall
second in a fast spell.  In the slowest spells precint slows a little less
than the probe, so its operations read up to a tenth fast there.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time
from fractions import Fraction
from typing import List

INTERVAL_S = 0.02
WINDOW_S = 0.1
REF_S = 1.5e-4


def probe_work() -> list:
    """The product of two polynomials with Fraction coefficients, the kind
    of arithmetic precint spends its time in; it uses no precint code, so a
    change to precint cannot change the probe."""
    a = [Fraction(i + 1, 2 * i + 3) for i in range(6)]
    b = [Fraction(3 * i - 1, i + 2) for i in range(6)]
    c = [Fraction(0)] * 11
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    return c


class Speedometer:
    def __init__(self):
        self.starts: List[float] = []
        self.durations: List[float] = []

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        probe_work()
        self.durations.append(time.perf_counter() - t0)
        self.starts.append(t0)

    def start(self) -> "Speedometer":
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, t0: float = float("-inf"), t1: float = float("inf")) -> float:
        """Mean REF_S / probe time over the probes within WINDOW_S of t0..t1
        (the nearest probes if none is)."""
        lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
        hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
        if lo == hi:
            lo, hi = max(lo - 1, 0), lo + 1
        window = self.durations[lo:hi]
        if not window:
            raise RuntimeError("no speed probe ran")
        return statistics.fmean(REF_S / d for d in window)

    def probe_seconds(self, t0: float, t1: float) -> float:
        """Time spent in probes that started inside t0..t1."""
        lo = bisect.bisect_left(self.starts, t0)
        hi = bisect.bisect_right(self.starts, t1)
        return sum(self.durations[lo:hi])

    def scaled(self, t0: float, t1: float) -> float:
        """Reference seconds of the span t0..t1."""
        return (t1 - t0 - self.probe_seconds(t0, t1)) * self.factor(t0, t1)
