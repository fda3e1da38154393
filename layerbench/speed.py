"""Normalizing timings by how fast the core runs while they are taken.

On a shared host the same pure-Python work takes 40 to 60 ms from one
second to the next, and whole runs drift by as much.  While active, the
Speedometer times a fixed probe loop every 50 ms, in CPU time.  A
normalized time is the wall time of an interval, less the probes inside
it, scaled by PROBE_REF_S over the mean probe time within WINDOW_S of
the interval: the time the work would have taken had the core run at
the reference speed.  The probe is the benchmark's own code, so a change
to the program moves normalized times as it moves wall times at a
steady speed.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter, sleep, thread_time

PERIOD_S = 0.05
WINDOW_S = 0.1  # probes this close to an interval also describe its speed
# typical probe duration on the 2-core box the benchmark was made on, so
# that normalized seconds read close to wall seconds there
PROBE_REF_S = 0.0004


def _probe_loop():
    s, d = 0, {}
    for i in range(3000):
        s += (i * i) % 7
        d[i & 63] = (s, i)
    return s


class Speedometer:
    """Times the probe periodically while active; use as a context manager."""

    def __init__(self):
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._old = None

    def _probe(self, *_):
        # CPU time, not wall time: a child process sharing the core may
        # run in the middle of the probe, and that is not the core's speed
        t0, c0 = perf_counter(), thread_time()
        _probe_loop()
        self.starts.append(t0)
        self.durations.append(thread_time() - c0)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def normalized(self, intervals) -> list[float]:
        """Wall times of the (start, end) intervals at the reference speed.

        Waits until the probes after the last interval have been taken.
        """
        last = max(t1 for _, t1 in intervals)
        while perf_counter() < last + WINDOW_S + PERIOD_S:
            sleep(PERIOD_S / 2)
        out = []
        for t0, t1 in intervals:
            lo = bisect.bisect_left(self.starts, t0 - WINDOW_S)
            hi = bisect.bisect_right(self.starts, t1 + WINDOW_S)
            if hi <= lo:
                raise RuntimeError("no speed probe near an interval; is the Speedometer active?")
            # probes that ran inside the interval are not the timed work's time
            inside = self.durations[bisect.bisect_left(self.starts, t0):bisect.bisect_left(self.starts, t1)]
            busy = t1 - t0 - sum(inside)
            out.append(busy * PROBE_REF_S / statistics.fmean(self.durations[lo:hi]))
        return out
