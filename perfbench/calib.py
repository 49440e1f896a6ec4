"""Speed probe: a fixed computation timed next to, and during, the workload.

The 2-vCPU machine the benchmark was defined on runs, for stretches of
seconds to minutes, up to 1.6 times slower than its best (a shared host).
In one process, the ratio between a flagtype operation and this probe stayed
within a few percent across such stretches, while raw times moved by 40%.
Times are therefore reported at reference speed: each second of work counts
REF_S / probe seconds, where probe is the probe's time at that moment and
REF_S its time at full speed on that machine (Python 3.11).

The probe is pure Python integer and list work (row reduction over GF(5) in
``gfp``), independent of flagtype, so a change to the program cannot move it.
``Sampler`` runs it from a timer signal every INTERVAL_S while operations run,
so that long operations are scaled by the speed they actually ran at.  The
speed changes within tens of milliseconds, so the samples are dense: at 5 ms
rather than 25 ms, repeated census operations of 0.05 to 0.7 s in one process
spread a fifth to two fifths less after scaling.
"""

import bisect
import random
import signal
import statistics
import time

import gfp

REF_S = 4.5e-5
INTERVAL_S = 0.005
_RNG = random.Random(20190314)
MATRIX = [[_RNG.randrange(5) for _ in range(8)] for _ in range(6)]


def probe():
    """Best of two timings of the fixed computation, in seconds."""
    best = None
    for _ in range(2):
        t0 = time.perf_counter()
        gfp.rref(MATRIX, 5)
        dt = time.perf_counter() - t0
        best = dt if best is None or dt < best else best
    return best


def scale_between(raw, before, after):
    """raw seconds at reference speed, from probes taken before and after."""
    return raw * REF_S * 2.0 / (before + after)


class Sampler:
    """Probes every INTERVAL_S from SIGALRM while the context is open."""

    def __init__(self):
        self.times = []
        self.speeds = []
        self._old = None

    def _tick(self, signum, frame):
        self.times.append(time.perf_counter())
        self.speeds.append(REF_S / probe())

    def __enter__(self):
        self._tick(None, None)
        self._old = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self._tick(None, None)

    def scale(self, t0, raw):
        """raw seconds from t0 at reference speed: raw times the mean speed
        of the samples taken during them and the one on either side."""
        lo = max(0, bisect.bisect_left(self.times, t0) - 1)
        hi = bisect.bisect_right(self.times, t0 + raw) + 1
        return raw * statistics.fmean(self.speeds[lo:hi])
