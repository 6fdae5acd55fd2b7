"""Shared fixtures: benchmark series and their (cached) analysis results."""

import numpy as np
import pytest

from mfsig.mfdfa import MfdfaConfig, run_mfdfa
from mfsig.series import shuffle
from mfsig.synth import binomial_cascade, fgn, white_noise

CASCADE_A = 0.75
SERIES_LEN = 2**16

# Scale grid aligned with the cascade's dyadic cell structure, which is
# where its closed-form exponents are defined; the lower bound skips the
# first few generations, whose residuals have not reached self-similarity.
DYADIC_SCALES = 2 ** np.arange(7, 15)


@pytest.fixture(scope="session")
def cascade_ts():
    return binomial_cascade(16, CASCADE_A)


@pytest.fixture(scope="session")
def cascade_result(cascade_ts):
    return run_mfdfa(cascade_ts, MfdfaConfig(bidirectional=True, scales=DYADIC_SCALES))


@pytest.fixture(scope="session")
def white_ts():
    return white_noise(SERIES_LEN, seed=101)


@pytest.fixture(scope="session")
def white_result(white_ts):
    return run_mfdfa(white_ts, MfdfaConfig(bidirectional=True))


@pytest.fixture(scope="session")
def fgn_ts():
    return fgn(SERIES_LEN, hurst=0.8, seed=1)


@pytest.fixture(scope="session")
def fgn_result(fgn_ts):
    return run_mfdfa(fgn_ts, MfdfaConfig(bidirectional=True))


@pytest.fixture(scope="session")
def fgn_shuffled_result(fgn_ts):
    return run_mfdfa(shuffle(fgn_ts, seed=1001), MfdfaConfig(bidirectional=True))
