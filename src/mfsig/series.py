"""Signal container, profile construction, shuffling surrogate.

The shuffle surrogate destroys temporal correlations while preserving the
value distribution exactly; it is the reference test for whether measured
multifractality comes from long-range correlation or from the amplitude
distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TimeSeries:
    """Uniformly sampled real-valued signal.

    ``samples`` is coerced to a 1-D float64 array and must be non-empty;
    ``sample_rate_hz`` must be positive.
    """

    samples: np.ndarray
    sample_rate_hz: float

    def __post_init__(self):
        arr = np.asarray(self.samples, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError(f"samples must be 1-D, got shape {arr.shape}")
        if arr.size == 0:
            raise AnalysisError("time series must contain at least one sample")
        if not self.sample_rate_hz > 0:
            raise ValueError(f"sample_rate_hz must be positive, got {self.sample_rate_hz}")
        object.__setattr__(self, "samples", arr)
        object.__setattr__(self, "sample_rate_hz", float(self.sample_rate_hz))

    def __len__(self) -> int:
        return self.samples.size

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate_hz

    def with_samples(self, samples: np.ndarray) -> "TimeSeries":
        """Same sample rate, new samples."""
        return TimeSeries(samples, self.sample_rate_hz)


def profile(ts: TimeSeries) -> np.ndarray:
    """Cumulative sum of the mean-removed samples.

    The final value telescopes to zero (up to rounding), which downstream
    code relies on: detrended fluctuations of the profile, not of the raw
    signal, carry the scaling information.
    """
    if len(ts) < 2:
        raise AnalysisError("profile needs at least 2 samples")
    bad = np.flatnonzero(~np.isfinite(ts.samples))
    if bad.size:
        raise AnalysisError(f"series contains a non-finite value at index {bad[0]}")
    return np.cumsum(ts.samples - ts.samples.mean())


class SplitMix64:
    """SplitMix64 pseudo-random generator (frozen specification).

    State update: ``state = (state + 0x9E3779B97F4A7C15) mod 2^64``.
    Output mix of the updated state z:
    ``z ^= z >> 30; z *= 0xBF58476D1CE4E5B9; z ^= z >> 27;
    z *= 0x94D049BB133111EB; z ^= z >> 31`` (all mod 2^64).

    Bounded draws use modulo rejection: draw 64-bit r, accept when
    ``r < 2^64 - (2^64 mod bound)``, return ``r mod bound``.

    This generator is part of the reproducibility contract: shuffles are
    identical across platforms and releases for a given seed.
    """

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound: int) -> int:
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = _MASK64 + 1 - ((_MASK64 + 1) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound


def permutation(n: int, seed: int) -> np.ndarray:
    """Uniform random permutation of range(n) by Fisher-Yates swaps.

    Swaps run from the top index down: for i = n-1 .. 1, j is drawn
    uniformly from 0..i and positions i, j are swapped.
    """
    rng = SplitMix64(seed)
    idx = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def shuffle(ts: TimeSeries, seed: int) -> TimeSeries:
    """Random permutation of the samples; deterministic for a given seed."""
    return ts.with_samples(ts.samples[permutation(len(ts), seed)])
