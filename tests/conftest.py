"""Test-session setup: BLAS and OpenMP run on one thread.

The last digits of paper-scale results depend on the BLAS thread count, and
the golden tests compare against references written with one thread (the
thread settings of BENCHMARK.json).  pytest loads this file before any test
module imports numpy, so the settings take effect; values already set in
the environment win.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
