import boltzlab  # noqa: F401  (first, so LAB_THREADS caps the pools numpy starts)
import numpy as np
import pytest


@pytest.fixture(autouse=True)
def _no_numpy_warnings():
    with np.errstate(all="raise", under="ignore"):
        yield
