"""Run the suite at one BLAS thread, as the ``survfuse`` command does.

OpenBLAS reads its thread count once, when numpy loads it. Some test
modules import numpy before survfuse, whose own default would then come
too late, so the variable is set here, before any test module is imported.
A value already in the environment is kept. Tests that start a child
process with other thread settings pass their own environment.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
