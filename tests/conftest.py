"""Fixtures and process settings shared by the test modules."""

import os

# One BLAS thread per test process: the suite's matrices are small, and a
# second thread burns a core without shortening the run. numpy reads these
# when it loads, so they are set before the first import below.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import pytest

from conet.data import loo_split
from conet.numerics import derive_rng

from oracles import make_cross_domain


@pytest.fixture
def small_split():
    data = make_cross_domain()
    return loo_split(data, derive_rng(0, "split"))
