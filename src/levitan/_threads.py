"""The ``LEVITAN_THREADS`` thread budget.

Kept free of numpy so the package can apply it on import, before numpy
loads its BLAS: OpenBLAS and the OpenMP runtimes read their thread counts
once, when they load, and ignore later changes to the environment.
"""

import os


def apply_thread_budget() -> None:
    """Copy ``LEVITAN_THREADS`` into the BLAS/OpenMP thread variables.

    Unset, empty or ``0`` leaves the libraries to their own defaults; a
    negative or non-integer value raises ValueError.
    """
    raw = os.environ.get("LEVITAN_THREADS", "").strip()
    if not raw:
        return
    n = int(raw)
    if n < 0:
        raise ValueError("LEVITAN_THREADS must be >= 0, got %d" % n)
    if n > 0:
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            os.environ[var] = str(n)
