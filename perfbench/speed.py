"""The machine's current speed, from a fixed probe timed during the run.

The shared VM this benchmark was tuned on switches between a fast and a
slow speed for a fraction of a second to minutes at a time: a fixed task
takes up to 1.6 times as long in the slow phase, and CPU time tracks
wall time, so the time is not stolen but the processor itself runs
slower.  Medians over a run cannot remove a phase that outlasts the run.

So a ``Speedometer`` times a fixed probe, which calls nothing of
orbitgcd, every ``PROBE_INTERVAL_S``: from a timer signal, also in the
middle of an op, or only between ops.  The runner scales each op's wall
time, less the probes inside it, by ``REFERENCE_PROBE_S`` over the mean
probe time around the op, raised to a per-workload exponent: the time
the op would have taken at the speed at which the probe takes
``REFERENCE_PROBE_S``.  The probe mixes the kinds of work the workloads
do (big-integer products and gcds, ``Fraction`` arithmetic, interpreted
loops), which slow down alike (exponent 1), except the huge-integer
products, gcds and decimal conversions of ``deep-series``: they slow down
by about the 0.7th power of the probe's slowdown (see
``workloads.SPEED_EXPONENT``).  A probe that falls due inside a long C
call (a big gcd) runs when the call returns.

The raw wall times are kept in the results file next to the scaled ones.
"""

from __future__ import annotations

import bisect
import math
import signal
import statistics
import time
from fractions import Fraction

# The probe's time in the fast phase of a 2-core Intel Xeon VM at
# 2.0 GHz, Python 3.  Scaled times are times at that speed.
REFERENCE_PROBE_S = 0.002
PROBE_REPEATS = 2          # the probe reports its fastest of this many runs
PROBE_INTERVAL_S = 0.1

_A = 3 ** 9000 + 7
_B = 5 ** 7000 + 11


def _work() -> int:
    product = _A * _B
    g = math.gcd(_A * _A + 1, _B * _B + 3)
    f, c = Fraction(1, 3), Fraction(-2, 5)
    for _ in range(7):
        f = f * f + c
    s = 0
    for i in range(4000):
        s += i * i % 7
    return product.bit_length() + g + f.denominator.bit_length() + s


def probe() -> float:
    """Seconds the probe takes now: the fastest of ``PROBE_REPEATS`` runs,
    so an interrupt during one run does not read as a slow machine."""
    best = math.inf
    for _ in range(PROBE_REPEATS):
        start = time.perf_counter()
        _work()
        best = min(best, time.perf_counter() - start)
    return best


def scale(wall_s: float, probe_s: float, exponent: float = 1.0) -> float:
    """``wall_s`` at the reference speed, given the probe time around it.
    ``exponent`` is how strongly the work slows down with the probe: work
    that slows down by ``(probe_s / REFERENCE_PROBE_S) ** exponent``."""
    return wall_s * (REFERENCE_PROBE_S / probe_s) ** exponent


class Speedometer:
    """Times the probe every ``interval_s`` of wall time while started:
    from a timer signal, or only when ``tick_if_due`` is called.

    ``spent`` is the time taken by the probes so far, so that a caller can
    take it out of a span that they interrupted."""

    def __init__(self, interval_s: float = PROBE_INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[tuple[float, float]] = []    # (end time, probe time)
        self.spent = 0.0
        self._previous = None

    def tick(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        probe_s = probe()
        end = time.perf_counter()
        self.samples.append((end, probe_s))
        self.spent += end - start

    def tick_if_due(self) -> None:
        if time.perf_counter() - self.samples[-1][0] >= self.interval_s:
            self.tick()

    def start(self, timer: bool = True) -> None:
        self.tick()
        if timer:
            self._previous = signal.signal(signal.SIGALRM, self.tick)
            signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)

    def stop(self) -> None:
        if self._previous is not None:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, self._previous)
            self._previous = None
        self.tick()

    def probe_around(self, start: float, end: float) -> float:
        """Mean probe time over the probes that ended in [start, end],
        the last one before it and the first one after it."""
        ends = [t for t, _ in self.samples]
        first = max(bisect.bisect_left(ends, start) - 1, 0)
        last = bisect.bisect_right(ends, end)
        return statistics.fmean(p for _, p in self.samples[first:last + 1])
