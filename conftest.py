"""Pins OpenBLAS to one thread for every test run from this tree.

Outputs are byte-identical only at a fixed BLAS thread count, and two BLAS
threads beside another process oversubscribe a two-core machine. The
variable must be set before numpy is first imported, which pytest does only
after it has loaded this file.
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = "1"
