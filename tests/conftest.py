import boltzlab  # noqa: F401  (first, so LAB_THREADS caps the pools numpy starts)
import warnings

import numpy as np
import pytest


@pytest.fixture(autouse=True)
def _no_numpy_warnings():
    # a complex result cast into a real buffer drops its imaginary part with
    # only a ComplexWarning: make that an error
    with np.errstate(all="raise", under="ignore"), warnings.catch_warnings():
        warnings.simplefilter("error", np.exceptions.ComplexWarning)
        yield
