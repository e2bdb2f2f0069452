"""Host BLAS thread count, recorded with performance results.

Kernel selection itself is a static rule (see
:mod:`repro.runtime.kernels.registry`); this module only reports the thread
context the GEMM kernels run under.
"""

from __future__ import annotations

import os

__all__ = ["blas_thread_count"]


def blas_thread_count():
    """Effective upper bound on the host BLAS thread count.

    NumPy's BLAS honours the standard thread-count environment variables;
    when none is set it uses every core the process can see.  The balance
    between the threaded GEMM kernels and the single-threaded depthwise
    kernels shifts with this number, so performance records carry it.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        value = os.environ.get(var)
        if value:
            try:
                return max(1, int(value))
            except ValueError:
                continue
    try:
        return len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        return os.cpu_count() or 1
