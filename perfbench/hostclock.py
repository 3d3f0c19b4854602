"""Timings corrected for the speed of a shared host.

On a shared host the speed of a core can drop by a factor of 1.6 or more
while other tenants load it, for spells from a tenth of a second to tens
of seconds.  On a 2-vCPU Xeon container a fixed pure-Python loop showed
two speed levels, 1.6 ms and 2.5 ms per run, and a run of a workload
took between 2.3 s and 4.4 s from one minute to the next.  Wall times
alone then measure the neighbours more than the program.

`HostClock` runs a fixed reference computation from a 10 ms interval
timer while the timed work runs, and records how long each run of it
took.  A timed interval is its wall time minus the time spent in those
samples, scaled by REF_S over the mean sample taken during it.  The mean
includes the samples just before and after the interval, and at least
MIN_WINDOW samples in all.  The result is the time the interval would
have taken on a host where the reference takes REF_S.  The reference
never calls `spgames`, so a change to the program cannot move it.
"""

from __future__ import annotations

import gc
import signal
import time
from fractions import Fraction

# About the reference's time on an uncontended core of the host above.
REF_S = 1e-4
INTERVAL_S = 0.01
# A short interval is scaled by the mean of at least this many samples
# around it, about 0.1 s, so that one sample taken in a brief spell does
# not swing it.
MIN_WINDOW = 10

clock = time.perf_counter


def _reference() -> None:
    total = Fraction(0)
    table = {}
    for i in range(1, 40):
        total += Fraction(i % 7 + 1, i % 11 + 1)
        table[frozenset((i % 13, i % 5))] = total


def interval(begin, end) -> tuple[float, int, int]:
    """Wall time between two marks, less sampling, and its samples.

    A mark is (clock, samples taken, time spent sampling).
    """
    return (end[0] - begin[0]) - (end[2] - begin[2]), begin[1], end[1]


class HostClock:
    """Samples host speed from SIGALRM while started; main thread only."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _sample(self, *_) -> None:
        # The faster of two back-to-back runs drops most interrupt spikes.
        # The collector stays off so that it never runs inside a sample:
        # its cost grows with the program's heap, not with host speed.
        collecting = gc.isenabled()
        gc.disable()
        start = clock()
        _reference()
        middle = clock()
        _reference()
        end = clock()
        if collecting:
            gc.enable()
        self.samples.append(min(middle - start, end - middle))
        self.spent += end - start

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self._sample()

    def mark(self) -> tuple[float, int, float]:
        while True:
            count, spent = len(self.samples), self.spent
            now = clock()
            if len(self.samples) == count:  # no sample fell in between
                return now, count, spent

    def scaled(self, interval) -> float:
        """An interval in reference-host seconds; call after `stop`."""
        wall, first, last = interval
        pad = max(0, MIN_WINDOW - (last - first + 2) + 1) // 2
        window = self.samples[max(first - 1 - pad, 0):last + 1 + pad]
        return wall * REF_S * len(window) / sum(window)
