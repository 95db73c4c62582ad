"""Machine-speed sampling, to take a shared host's drift out of the timings.

On a shared virtual machine the speed of a core drifts by tens of percent
over seconds and minutes, with no steal time to show for it, so raw times
of identical work spread too far between runs to bound a regression.  A
``SpeedProbe`` times a small fixed piece of interpreter and numpy work
(``probe_work``) every ``INTERVAL`` seconds from a SIGALRM handler, on the
benchmark's own thread, also while an op runs.  ``normalize`` turns a raw
interval into reference seconds: the raw time, minus the probes that ran
inside it, scaled by ``REFERENCE_PROBE_S`` over the mean probe time around
it.  Probe samples are taken on the same CPU as the ops, since the two CPUs
of a small box drift independently (the run pins itself to one CPU).
"""

from __future__ import annotations

import math
import signal
from bisect import bisect_left, bisect_right
from time import perf_counter

import numpy as np

INTERVAL = 0.025
#: probes within this many seconds of an interval's ends count for it
WINDOW = 0.25
#: probe_work time that normalized times are expressed against (seconds);
#: the typical value on the 2-CPU Xeon box the bounds were measured on
REFERENCE_PROBE_S = 5.0e-4

_PROBE_MATRIX = np.arange(16.0).reshape(4, 4)


def probe_work() -> float:
    """Fixed mix of Python arithmetic and small numpy slicing (~0.5 ms)."""
    a = _PROBE_MATRIX.copy()
    acc = 0.0
    for i in range(48):
        p, q = i % 4, (i + 1) % 4
        col = a[:, p].copy()
        a[:, p] = 0.6 * col - 0.8 * a[:, q]
        a[:, q] = 0.8 * col + 0.6 * a[:, q]
        acc += math.sqrt(abs(float(a[p, q])) + 1.0)
    return acc


class SpeedProbe:
    """Periodic probe samples (start time, seconds) while active."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        probe_work()
        self.starts.append(start)
        self.durations.append(perf_counter() - start)

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factor(self, start: float, end: float) -> float:
        """Reference seconds per raw second around [start, end]: from the
        probes within WINDOW of it, or the four nearest if fewer."""
        lo = bisect_left(self.starts, start - WINDOW)
        hi = bisect_right(self.starts, end + WINDOW)
        if hi - lo < 4:
            lo = max(0, min(bisect_left(self.starts, (start + end) / 2) - 2, len(self.starts) - 4))
            hi = lo + 4
        around = self.durations[lo:hi]
        return REFERENCE_PROBE_S * len(around) / sum(around)

    def normalize(self, start: float, end: float) -> float:
        """Reference seconds for the raw interval [start, end], less the
        probes that ran inside it."""
        inside = sum(self.durations[bisect_left(self.starts, start) : bisect_right(self.starts, end)])
        return (end - start - inside) * self.factor(start, end)
