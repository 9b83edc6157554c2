"""Prints the set-up time of one workload in this fresh interpreter
(`import quatwitt` plus the workload's fixed algebra data), then a reading
of the host speed probe taken just after it.

    PYTHONPATH=src python3 perfbench/setup_probe.py <workload>
"""

import sys
from time import perf_counter

from fixed import fixed_data

t0 = perf_counter()
import quatwitt  # noqa: E402,F401  (the import is what is timed)

fixed_data(sys.argv[1])
setup_s = perf_counter() - t0

import statistics  # noqa: E402

from probe import calibration_reading  # noqa: E402

print(repr(setup_s),
      repr(statistics.median(calibration_reading() for _ in range(5))))
