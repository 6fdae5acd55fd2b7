"""Empirical mode decomposition by envelope-mean sifting.

Upper and lower envelopes are natural cubic splines through the local
maxima / minima, with the outermost extrema mirrored past the signal ends
to anchor the splines. Sifting repeats until the normalized squared
difference between successive candidates drops below the threshold (or an
iteration cap); extraction stops when the residue has too few extrema
left to oscillate. Summing the IMFs and the residue recovers the input
exactly by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError

SD_THRESHOLD = 0.3
MAX_SIFT_ITERATIONS = 10
MIN_LENGTH = 64


def local_extrema(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Indices of local maxima and minima; plateaus yield their midpoint."""
    d = np.diff(x)
    nonzero = np.flatnonzero(d != 0)
    signs = np.sign(d[nonzero])
    flips = np.flatnonzero(signs[:-1] != signs[1:])
    pos = (nonzero[flips] + 1 + nonzero[flips + 1]) // 2
    rising = signs[flips] > 0
    return pos[rising], pos[~rising]


def _mirrored_envelope(idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Natural cubic spline through (idx, x[idx]) with mirrored end knots."""
    from scipy.interpolate import CubicSpline  # scipy is needed only when EMD sifts

    n = x.size
    t = idx.astype(float)
    v = x[idx]
    left_t, left_v, right_t, right_v = [], [], [], []
    for j in range(min(2, idx.size)):
        if t[j] > 0:
            left_t.append(-t[j])
            left_v.append(v[j])
        if t[-1 - j] < n - 1:
            right_t.append(2 * (n - 1) - t[-1 - j])
            right_v.append(v[-1 - j])
    knots = np.concatenate([left_t[::-1], t, right_t])
    vals = np.concatenate([left_v[::-1], v, right_v])
    knots, keep = np.unique(knots, return_index=True)
    spline = CubicSpline(knots, vals[keep], bc_type="natural")
    return spline(np.arange(n, dtype=float))


def _sift(x: np.ndarray) -> np.ndarray:
    h = x
    for _ in range(MAX_SIFT_ITERATIONS):
        maxima, minima = local_extrema(h)
        if maxima.size < 2 or minima.size < 2:
            break
        mean_env = 0.5 * (_mirrored_envelope(maxima, h) + _mirrored_envelope(minima, h))
        h_next = h - mean_env
        denom = float(h @ h)
        sd = float((h - h_next) @ (h - h_next)) / denom if denom > 0 else 0.0
        h = h_next
        if sd < SD_THRESHOLD:
            break
    return h


@dataclass(frozen=True)
class ImfSet:
    """Intrinsic mode functions (fastest first) and the leftover residue."""

    imfs: list  # of arrays
    residue: np.ndarray

    @property
    def n_imfs(self) -> int:
        return len(self.imfs)


def emd(x: np.ndarray, max_imfs: int = 10) -> ImfSet:
    """Decompose into IMFs plus residue.

    A residue with fewer than two maxima or two minima cannot carry
    another oscillatory mode, so extraction stops there; a monotonic
    input therefore yields zero IMFs with the input as residue.

    Sifting is linear and its stop test a ratio, so it runs on the input
    scaled exactly, by a power of two, to max |x| in [0.5, 1): no finite
    input overflows it, and the decomposition of x * 2^k is bit for bit
    that of x times 2^k. A mode too large to scale back is an AnalysisError.
    """
    if len(x) < MIN_LENGTH:
        raise AnalysisError(f"EMD needs >= {MIN_LENGTH} samples, got {len(x)}")
    if max_imfs < 1:
        raise ValueError("max_imfs must be >= 1")
    _, exponent = np.frexp(np.abs(x).max())
    residue = scaled = np.ldexp(x, -exponent)
    imfs = []
    while len(imfs) < max_imfs:
        maxima, minima = local_extrema(residue)
        if maxima.size < 2 or minima.size < 2:
            break
        imf = _sift(residue)
        imfs.append(imf)
        residue = residue - imf
    # completeness identity; stripped under -O
    assert np.allclose(sum(imfs, residue), scaled, rtol=0.0, atol=1e-10)
    try:
        with np.errstate(over="raise"):
            imfs = [np.ldexp(imf, exponent) for imf in imfs]
            return ImfSet(imfs=imfs, residue=np.ldexp(residue, exponent))
    except FloatingPointError:
        raise AnalysisError("EMD overflowed: the input's samples are too large") from None


def emd_denoise(x: np.ndarray, drop_imfs: list[int]) -> np.ndarray:
    """Input minus the listed IMFs (1-based; IMF 1 is the fastest).

    Dropping nothing returns the input unchanged; dropping every IMF
    leaves the residue (the trend). Sifting is sequential, so IMF k does
    not depend on later IMFs and extraction stops at the deepest one listed.
    """
    if not drop_imfs:
        return x
    if min(drop_imfs) < 1:
        raise AnalysisError(f"IMF index {min(drop_imfs)} must be >= 1")
    deepest = max(drop_imfs)
    decomposition = emd(x, max_imfs=deepest)
    if decomposition.n_imfs < deepest:
        raise AnalysisError(f"IMF index {deepest} outside 1..{decomposition.n_imfs}")
    for index in set(drop_imfs):
        x = x - decomposition.imfs[index - 1]
    return x
