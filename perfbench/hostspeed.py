"""Host-speed reference, so that reported times do not follow the host.

On a shared virtual machine the speed of pure-Python code changes by up to
a third for a minute or more at a time, with the load other tenants put on
the host. A time taken in one minute is then not comparable with one taken
in the next, and ten runs of the same code spread by about as much as any
bound a benchmark could set. The benchmark therefore runs a fixed reference
loop between ops, at most every REF_INTERVAL_S, and reports every interval
it times scaled to a nominal host: an interval of raw length t, during
which the reference took r seconds, is reported as t * REF_NOMINAL_S / r.
r is the median of the NEAREST reference runs closest in time to the
interval (all of them if more ran inside it), so that one reference run
that a hiccup of the host slowed cannot move it.

The reference does the kind of work homcat does, so that it slows down
with the same host load: Fraction products summed in a small dense matrix
product, integer arithmetic modulo a prime, tuple-keyed dict inserts, and a
walk over a few megabytes of small objects, which makes it feel the load
on the host's caches and memory as well as on its cores. It uses the
standard library only and never calls the program, so a faster program
reads faster, and a program that swaps its scalar type (say, to gmpy2) is
measured against the same reference. The walked objects add about 3 MB to
every workload's peak_rss_mb.
"""

import bisect
import gc
import math
import statistics
import time
from fractions import Fraction

REF_INTERVAL_S = 0.1
NEAREST = 7
# What reference() takes on the host the benchmark was defined on, at its
# usual speed. Fixed: changing it rescales every reported time.
REF_NOMINAL_S = 0.004

_clock = time.perf_counter

_N = 8
_A = tuple(Fraction(i * 7 % 11 - 5, 1 + i % 5) for i in range(_N * _N))
_B = tuple(Fraction(i * 5 % 13 - 6, 1 + i % 3) for i in range(_N * _N))
_WALK = tuple((i, i + 1) for i in range(30000))


def reference():
    """Fixed work shaped like homcat's inner loops; returns its result."""
    product = []
    for i in range(_N):
        row = _A[i * _N:(i + 1) * _N]
        for j in range(_N):
            acc = 0
            for k in range(_N):
                acc += row[k] * _B[k * _N + j]
            product.append(acc)
    acc = 0
    for a in range(1500):
        acc = (acc + a * (a + 7)) % 101
    table = {}
    for i in range(1500):
        table[(i, i % 7)] = (i,)
    steps = 0
    for a, b in _WALK:
        steps += b - a
    return product, acc, len(table), steps


class HostClock:
    """The reference runs of one benchmark run, and the scaling they give."""

    def __init__(self):
        self._starts = []  # ascending
        self._took = []
        self._last_end = None

    def sample(self):
        """Run the reference once and record how long it took."""
        # no collection inside the reference: it would scan the program's
        # heap, and it would move the points where the program's passes
        # collect (the reference frees all it allocates before it returns)
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = _clock()
            reference()
            t1 = _clock()
        finally:
            if enabled:
                gc.enable()
        self._starts.append(t0)
        self._took.append(t1 - t0)
        self._last_end = t1

    def maybe_sample(self):
        """Sample unless the last sample ended under REF_INTERVAL_S ago."""
        if self._last_end is None or _clock() - self._last_end >= REF_INTERVAL_S:
            self.sample()

    def factor(self, t0, dt):
        """REF_NOMINAL_S over the reference time around [t0, t0 + dt]."""
        starts = self._starts
        lo = bisect.bisect_left(starts, t0)
        hi = bisect.bisect_right(starts, t0 + dt)
        while hi - lo < NEAREST and (lo > 0 or hi < len(starts)):
            before = t0 - starts[lo - 1] if lo > 0 else math.inf
            after = starts[hi] - (t0 + dt) if hi < len(starts) else math.inf
            if before <= after:
                lo -= 1
            else:
                hi += 1
        return REF_NOMINAL_S / statistics.median(self._took[lo:hi])

    def scale(self, t0, dt):
        """The raw interval [t0, t0 + dt], in seconds of the nominal host."""
        return dt * self.factor(t0, dt)

    def median_s(self):
        return statistics.median(self._took)
