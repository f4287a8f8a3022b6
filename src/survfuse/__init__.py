"""Multi-modal multi-task survival and grade prediction.

The package couples a graph-masked gene-expression branch with precomputed
image embeddings in a shared fusion trunk, trains survival and grade heads
by alternating task optimization, and ships the full evaluation stack
(concordance, Kaplan-Meier, risk tertiles, micro-averaged classification
metrics) plus a deterministic synthetic-cohort generator and CLI.

Importing the package loads nothing else. It pins OpenBLAS to one thread
unless ``OPENBLAS_NUM_THREADS`` is already set: a threaded BLAS sums in a
different order, so a run's bytes would depend on the machine's core count.
That pin only takes effect when the package is imported before numpy;
``training.train`` and ``evaluate_network`` also pin numpy's bundled
OpenBLAS themselves (``numcore.one_blas_thread``).
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"
