"""Reference-kernel sampling, shared by the runner and by each CLI call.

A RefClock runs the kernel in refkernel.py every SAMPLE_INTERVAL seconds from
a SIGALRM handler and keeps each sample's time and duration.  ``vnow`` is
perf_counter minus the time spent in samples, so an op timed with it does not
pay for the sampling, and ``unit`` gives the kernel's duration around an op:
the divisor of a time in ref units.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager

import refkernel

SAMPLE_INTERVAL = 0.05
WINDOW = 0.5
EDGE_SAMPLES = 3


class RefClock:
    """Reference-kernel samples over time, and a clock that skips the sampling."""

    def __init__(self):
        self.times = []
        self.durations = []
        self.hidden = 0.0
        self._busy = False

    def sample(self):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        refkernel.run()
        end = time.perf_counter()
        self.times.append((start + end) / 2)
        self.durations.append(end - start)
        self.hidden += end - start
        self._busy = False

    def absorb(self, times, durations, hidden):
        """Add samples taken by another process, and the time they cost it."""
        self.times.extend(times)
        self.durations.extend(durations)
        self.hidden += hidden

    def vnow(self):
        """perf_counter minus the time spent in reference samples."""
        return time.perf_counter() - self.hidden

    @contextmanager
    def ticking(self, enabled=True, edge=EDGE_SAMPLES):
        """Sample every SAMPLE_INTERVAL seconds, and ``edge`` times on entry and exit."""
        for _ in range(edge):
            self.sample()
        if enabled:
            previous = signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            yield
        finally:
            if enabled:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, previous)
            for _ in range(edge):
                self.sample()

    def unit(self, start, end):
        """Kernel duration at [start, end]: harmonic mean of the nearby samples.

        The mean of 1/duration is the kernel's speed averaged over time, which
        is what an op spanning several samples integrates.
        """
        width = WINDOW
        while True:
            lo = bisect.bisect_left(self.times, start - width)
            hi = bisect.bisect_right(self.times, end + width)
            if hi - lo >= EDGE_SAMPLES or (lo == 0 and hi == len(self.times)):
                break
            width *= 2
        chosen = self.durations[lo:hi]
        return len(chosen) / sum(1 / d for d in chosen)
