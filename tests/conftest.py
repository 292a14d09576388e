import os

# One BLAS thread per pool, set before numpy loads: a pool sized to every core
# slows the optimizer's small products and eigensolves 2-4x on a busy host.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from adconn.framework import Placement


@pytest.fixture
def rng():
    return np.random.default_rng(20240815)


def random_placement(rng, n, d, scale=1.0):
    return Placement(scale * rng.standard_normal((n, d)))
