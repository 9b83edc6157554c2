"""Host speed probe.

The benchmark shares a host whose speed drifts: one CPU can run 20-50%
slower than usual for tens of seconds.  The probe is a fixed pure-Python
kernel of the kind of work the library does (Fractions, modular powers,
tuples and dicts, small calls).  The worker takes a reading between ops at
least every CAL_EVERY_S, and `run.py` scales each op's time by the
reference reading over the readings around it, which reports times at one
host speed.  The probe never calls the library, so a change to the library
cannot move it.
"""

import statistics
from bisect import bisect_right
from fractions import Fraction
from time import perf_counter

# The reading on the machine the benchmark was defined on (Xeon at 2.1 GHz,
# Python 3.11) in its usual state.
REFERENCE_S = 2.8e-4
# A reading is the fastest of CAL_REPEAT runs of the kernel.
CAL_EVERY_S = 0.05
CAL_REPEAT = 3
CAL_WINDOW = 2


def _cal_kernel():
    acc = Fraction(0)
    table = {}
    for i in range(1, 40):
        f = Fraction(i, 2 * i + 1)
        acc += f * f - Fraction(1, i)
        key = (i % 7, i % 11)
        table[key] = table.get(key, 0) + pow(i, 65537, 1000003)
    return acc, sorted(table.items())


def calibration_reading():
    best = None
    for _ in range(CAL_REPEAT):
        t0 = perf_counter()
        _cal_kernel()
        t = perf_counter() - t0
        best = t if best is None or t < best else best
    return best


def calibration_per_op(marks, readings, n):
    """For each of n ops, the median of the CAL_WINDOW readings taken
    before it and the CAL_WINDOW after it (marks[k] is the number of ops
    done when readings[k] was taken)."""
    out = []
    for i in range(n):
        k = bisect_right(marks, i)
        near = readings[max(0, k - CAL_WINDOW):k + CAL_WINDOW]
        out.append(statistics.median(near))
    return out


def normalized(seconds, reading):
    """A time measured at a probe reading, scaled to the reference one."""
    return seconds * REFERENCE_S / reading
