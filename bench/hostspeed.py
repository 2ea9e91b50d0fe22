"""Host-speed reference: takes the host's drift out of the timings.

On a host shared with other tenants the same pure-Python work runs up
to 25% slower or faster from one ten-second stretch to the next, and
process CPU time drifts with it (the process is not descheduled; the
core it runs on is slower). A fixed reference workload run in short
slices between the queries slows down with the host and not with pmod:
it never calls pmod. Its measured time over UNIT_S per unit is the
host's slowness factor at that moment, and a timing divided by the
factor of the slices around it reads as on a host where one unit takes
UNIT_S. A change to pmod moves the query timings and leaves the factor
alone.

The reference mixes what pmod spends its time on: Fraction arithmetic
(Q inputs) and row operations on lists of small ints mod p (finite
fields).
"""

import time
from fractions import Fraction

# Seconds of one unit() on the reference host (2-core Xeon VM, Python
# 3.11); it fixes the scale the normalized timings read in.
UNIT_S = 0.0002


def unit():
    """A fixed piece of pure-Python work that imports nothing of pmod."""
    s = Fraction(0)
    for i in range(1, 60):
        s += Fraction(i % 7 - 3, i % 11 + 1)
    p = 3
    rows = [[(i * j + i + 1) % p for j in range(8)] for i in range(8)]
    for c in range(8):
        piv = next((r for r in range(c, 8) if rows[r][c]), None)
        if piv is None:
            continue
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = pow(rows[c][c], p - 2, p)
        rows[c] = [x * inv % p for x in rows[c]]
        for r in range(8):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[c])]
    return s, rows


class Meter:
    """Runs reference slices and keeps their total time and units."""

    def __init__(self, clock=time.perf_counter, work=unit):
        self.clock = clock
        self.work = work
        self.units = 0
        self.time = 0.0

    def run(self, seconds):
        """Whole units, at least one, until seconds have passed."""
        t0 = self.clock()
        while True:
            self.work()
            self.units += 1
            t = self.clock() - t0
            if t >= seconds:
                break
        self.time += t

    def factor(self):
        """Host slowness since the last reset: 1 on the reference host,
        above 1 when the host runs slower."""
        return self.time / (self.units * UNIT_S)

    def reset(self):
        self.units = 0
        self.time = 0.0
