"""Host-speed sampling, so that timings can be expressed in reference seconds.

On a shared 2-vCPU VM the speed of the core this process runs on moves by
tens of percent within seconds and between minutes: the same exact-recursion
batch took 4.9 s of wall time in one pass and 8.3 s in another a minute
later.  To take that out of the timings, a fixed reference kernel --
pure-Python big-integer and Fraction arithmetic, the operations mpmath's
pure-Python backend and the package's exact routes spend their time in --
is timed every ``PERIOD_S`` seconds of wall time, from a SIGALRM handler in
the measured process itself, so it sees the same core at the same moment,
also in the middle of a long item.  A second process timing the kernel on
the other vCPU does not track this process's speed, and a kernel that walks
a few megabytes of objects tracks it worse than this one.

A wall-clock interval is then converted to reference seconds:

    ref_s = (wall_s - kernel time spent inside the interval) * speed

where ``speed`` is the mean of ``NOMINAL_S / kernel_s`` over the samples
taken within ``WINDOW_S`` of the interval: over a long interval, the
time-average of the speed; over a short one, the speed of the nearest
samples.  The window is short because the speed moves within a fraction of
a second: on items of about 80 ms and of a few ms, a 0.1 s window leaves
half the spread a 1 s window leaves.  One reference second is
the time the interval would have taken on a host that runs the kernel in
``NOMINAL_S``.  The kernel is part of the benchmark, so no change to the
package moves it; it takes about 2% of each pass, and that time is
subtracted from every interval it falls in.
"""
from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

PERIOD_S = 0.1
WINDOW_S = 0.1
# About the median time of one kernel run on a shared 2-vCPU x86-64 VM with
# CPython 3.11; it only sets the scale of a reference second.
NOMINAL_S = 0.0024


def kernel() -> int:
    """Fixed reference work: big-integer multiply/shift/divide as in mpmath's
    mpf arithmetic at ~40 digits, and a short Fraction sum."""
    x, acc = (1 << 140) // 3, 0
    for i in range(1, 2500):
        acc = (acc + (x * (x + i) >> 140)) % (1 << 150)
        acc = acc // (i | 1) + i
    f = Fraction(0)
    for i in range(1, 200):
        f += Fraction(i, i * i + 1)
    return acc + f.numerator


class HostSpeed:
    """Samples the kernel's time periodically while started."""

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._old = None

    def _tick(self, signum, frame) -> None:
        t = time.perf_counter()
        kernel()
        self.starts.append(t)
        self.durations.append(time.perf_counter() - t)

    def start(self) -> None:
        self._old = signal.signal(signal.SIGALRM, self._tick)
        self._tick(None, None)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old or signal.SIG_DFL)

    def ref_seconds(self, a: float, b: float) -> float:
        """Reference seconds of the perf_counter interval [a, b]."""
        lo = bisect.bisect_left(self.starts, a)
        hi = bisect.bisect_left(self.starts, b)
        inside = sum(self.durations[lo:hi])
        lo = bisect.bisect_left(self.starts, a - WINDOW_S)
        hi = bisect.bisect_right(self.starts, b + WINDOW_S)
        if lo == hi:  # a late tick: take the next sample, or the last one
            lo = min(lo, len(self.starts) - 1)
            hi = lo + 1
        speed = sum(NOMINAL_S / d for d in self.durations[lo:hi]) / (hi - lo)
        return (b - a - inside) * speed
