"""Thread capping, run before numpy is imported."""

from __future__ import annotations

import os
import sys
import warnings

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
    If numpy is already loaded when a variable has to be set, the running
    pools keep their size, and a RuntimeWarning says so.
    Returns the cap, or None when the variable is unset/invalid.
    """
    raw = os.environ.get("LAB_THREADS")
    if not raw:
        return None
    try:
        n = max(1, int(raw))
    except ValueError:
        return None
    unset = [var for var in _THREAD_VARS if var not in os.environ]
    for var in unset:
        os.environ[var] = str(n)
    if unset and "numpy" in sys.modules:
        warnings.warn(
            f"LAB_THREADS={n}: numpy was imported before boltzlab, so setting "
            f"{', '.join(unset)} now does not resize the thread pools it has "
            "already started; set them before starting Python",
            RuntimeWarning, stacklevel=2)
    return n
