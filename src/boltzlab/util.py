"""Thread capping, run before numpy is imported."""

from __future__ import annotations

import os

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def apply_thread_cap() -> int | None:
    """Honor the LAB_THREADS environment variable by capping BLAS/OMP pools.

    Sets each BLAS/OpenMP thread variable the environment does not already
    set.  The pools read them once, when numpy is first imported, so this
    module imports no numpy and the package calls it before anything else.
    Returns the cap, or None when the variable is unset/invalid.
    """
    raw = os.environ.get("LAB_THREADS")
    if not raw:
        return None
    try:
        n = max(1, int(raw))
    except ValueError:
        return None
    for var in _THREAD_VARS:
        os.environ.setdefault(var, str(n))
    return n
