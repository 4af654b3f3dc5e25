"""Reference-speed timing.

The benchmark shares a few cores with other machines' work, and the speed
of pure-Python code on it changes by up to 1.8x from one minute to the
next, in steps that last from seconds to minutes.  No run is long enough to
average that away.  So every run also times a fixed pure-Python kernel
(small objects, modular arithmetic, a dict, exact fractions; no
octicmoduli code) between the benchmark's operations, and each operation's
seconds are scaled by

    NOMINAL_S / (mean of the kernel samples just before and just after it)

which gives its time at the speed at which the kernel takes NOMINAL_S.
Raw seconds go on the run's info line as well.  A change to octicmoduli
moves the operation and not the kernel, so it moves the scaled time by
the same share as the raw time.
"""

import bisect
import statistics
import time
from fractions import Fraction

#: seconds one kernel() takes at reference speed: its median on a quiet
#: 2-core Intel Xeon at 2.1 GHz with Python 3.11
NOMINAL_S = 0.003

#: power of the factor that scales a set-up.  A set-up is partly file
#: reading, which the slow periods slow less: the slope of log(set-up
#: seconds) on log(kernel seconds) was 0.60 for census_p11 and 0.48 for
#: rational_q over 181 set-ups each, and 0.65, 0.68 and 0.39 for
#: census_p11, models_p11 and rational_q over 80 set-ups each in
#: benchmark runs
SETUP_EXPONENT = 0.6


class _Residue:
    __slots__ = ("v", "p")

    def __init__(self, v, p):
        self.v = v % p
        self.p = p

    def __add__(self, other):
        return _Residue(self.v + other.v, self.p)

    def __mul__(self, other):
        return _Residue(self.v * other.v, self.p)


def kernel():
    p = 10007
    acc = _Residue(1, p)
    seen = {}
    for i in range(1, 2500):
        x = _Residue(i, p)
        acc = acc * x + x
        seen[acc.v] = i
    q = Fraction(1)
    for i in range(1, 120):
        q += Fraction(i, i * i + 1)
    return acc.v + len(seen) + q.numerator % 7


class RefClock:
    """Kernel samples taken between operations, and the scale factor of
    an operation timed between two perf_counter stamps."""

    def __init__(self, interval=0.2, repeats=3):
        self.interval = interval      # seconds between samples, at least
        self.repeats = repeats        # kernel runs per sample (median)
        self.stamps = []              # perf_counter when a sample ended
        self.values = []              # kernel seconds of that sample

    def sample(self):
        runs = []
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            kernel()
            runs.append(time.perf_counter() - t0)
        self.stamps.append(time.perf_counter())
        self.values.append(statistics.median(runs))

    def tick(self):
        """Sample when the last sample is older than the interval."""
        if not self.stamps or (time.perf_counter() - self.stamps[-1]
                               >= self.interval):
            self.sample()

    def factor(self, t0, t1, exponent=1.0):
        """NOMINAL_S over the kernel's seconds around [t0, t1], to the
        given power: the mean of the last sample ended by t0 and the first
        one ended after t1 (either alone at the ends of the run)."""
        i = bisect.bisect_right(self.stamps, t0)
        j = bisect.bisect_left(self.stamps, t1)
        around = self.values[max(i - 1, 0):i] + self.values[j:j + 1]
        return (NOMINAL_S / statistics.fmean(around)) ** exponent

    def scaled(self, t0, t1):
        return (t1 - t0) * self.factor(t0, t1)
