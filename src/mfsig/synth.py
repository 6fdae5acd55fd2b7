"""Synthetic signals with known scaling properties.

The binomial cascade has closed-form multifractal exponents and the
spectrally synthesized fractional Gaussian noise has a dialled-in Hurst
exponent, so both serve as ground truth for the estimation chain.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AnalysisError

_LN2 = math.log(2.0)


def _validate_multiplier(a: float) -> None:
    if not 0.5 < a < 1.0:
        raise ValueError(f"cascade multiplier must lie in (0.5, 1), got {a}")


def binomial_cascade(k: int, a: float) -> np.ndarray:
    """Deterministic binomial multiplicative measure on 2**k cells.

    Cell i carries a**n1 * (1-a)**(k-n1) where n1 is the number of set
    bits in i; the cells sum to one. Analyzed directly as a series.
    Depths of 8..24 are the useful analysis range; smaller k is allowed
    for hand-checkable fixtures.
    """
    if not 1 <= k <= 24:
        raise ValueError(f"cascade depth k must lie in [1, 24], got {k}")
    _validate_multiplier(a)
    n = 1 << k
    ones = np.zeros(n, dtype=np.int64)
    tmp = np.arange(n, dtype=np.int64)
    for _ in range(k):
        ones += tmp & 1
        tmp >>= 1
    return a**ones * (1.0 - a) ** (k - ones)


def cascade_hurst_oracle(q: float, a: float) -> float:
    """Exact generalized Hurst exponent of the binomial cascade.

    h(q) = 1/q - ln(a^q + (1-a)^q) / (q ln 2); the q = 0 value is the
    continuous limit -ln(a(1-a)) / (2 ln 2).
    """
    _validate_multiplier(a)
    b = 1.0 - a
    if q == 0:
        return -math.log(a * b) / (2.0 * _LN2)
    return 1.0 / q - math.log(a**q + b**q) / (q * _LN2)


def fgn(n: int, hurst: float, seed: int) -> np.ndarray:
    """Fractional Gaussian noise by frequency-domain spectral shaping.

    A white Gaussian spectrum is reweighted by f**(0.5 - H), which imposes
    the fGn power law f**(1 - 2H); the result is standardized to zero mean
    and unit variance. Deterministic per seed.
    """
    if n < 1024:
        raise ValueError(f"fgn needs n >= 1024, got {n}")
    if not 0.0 < hurst < 1.0:
        raise ValueError(f"hurst must lie in (0, 1), got {hurst}")
    rng = np.random.default_rng(seed)
    spec = np.fft.rfft(rng.standard_normal(n))
    freqs = np.fft.rfftfreq(n)
    shape = np.zeros_like(freqs)
    shape[1:] = freqs[1:] ** (0.5 - hurst)
    x = np.fft.irfft(spec * shape, n)
    return (x - x.mean()) / x.std()


def white_noise(n: int, seed: int) -> np.ndarray:
    """Standard normal i.i.d. samples, deterministic per seed."""
    if n < 1:
        raise ValueError("white_noise needs n >= 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal(n)


def tone(freq_hz: float, fs: float, duration_s: float, amplitude: float = 1.0) -> np.ndarray:
    """Exact sine tone sampled at fs Hz; frequencies at or above Nyquist are rejected."""
    if not (math.isfinite(duration_s) and duration_s > 0):
        raise AnalysisError(
            f"tone duration must be a finite positive number of seconds, got {duration_s}"
        )
    if not freq_hz < fs / 2:
        raise AnalysisError(
            f"tone at {freq_hz} Hz aliases at sample rate {fs} Hz (Nyquist {fs / 2} Hz)"
        )
    count = duration_s * fs
    if not (math.isfinite(count) and round(count) >= 1):
        raise AnalysisError(
            f"tone duration {duration_s} s at sample rate {fs} Hz gives {count:g} samples;"
            " it must round to a finite count of at least 1"
        )
    t = np.arange(round(count)) / fs
    return amplitude * np.sin(2.0 * np.pi * freq_hz * t)
