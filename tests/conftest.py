"""Shared fixtures: benchmark series and their (cached) analysis results; and
write_wav_at_rate, a WAV writer for frame rates `wave` refuses."""

import struct

import numpy as np
import pytest
from hypothesis import settings

from mfsig.dataio import write_wav
from mfsig.mfdfa import MfdfaConfig, run_mfdfa
from mfsig.series import shuffle
from mfsig.synth import binomial_cascade, fgn, white_noise

# Property tests draw the same examples on every run.
settings.register_profile("mfsig", derandomize=True)
settings.load_profile("mfsig")

CASCADE_A = 0.75
SERIES_LEN = 2**16

# Scale grid aligned with the cascade's dyadic cell structure, which is
# where its closed-form exponents are defined; the lower bound skips the
# first few generations, whose residuals have not reached self-similarity.
DYADIC_SCALES = 2 ** np.arange(7, 15)


def write_wav_at_rate(path, samples, rate):
    """``write_wav`` of samples with the header's frame rate set to rate
    afterwards, so that it can be one ``wave`` refuses to write, such as 0."""
    write_wav(path, samples, 8000)
    with open(path, "r+b") as fh:
        fh.seek(24)  # the frame rate field of the 44-byte header write_wav writes
        fh.write(struct.pack("<I", rate))


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
