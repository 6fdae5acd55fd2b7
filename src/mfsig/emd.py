"""Empirical mode decomposition by envelope-mean sifting.

Upper and lower envelopes are natural cubic splines through the local
maxima / minima, with the outermost extrema mirrored past the signal ends
to anchor the splines. Each spline's second derivatives come from its
tridiagonal system, solved by parallel cyclic reduction on numpy slices,
stopped after at most 6 steps, once every coupling left is at most 2^-64
of its diagonal; each knot interval's cubic is then formed once and spread
over the samples that the interval holds. Sifting repeats until the
normalized squared difference between successive candidates drops below
the threshold (or an iteration cap); extraction stops when the residue has
too few extrema left to oscillate. Summing the IMFs and the residue
recovers the input exactly by construction.
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


def _natural_spline(t: np.ndarray, y: np.ndarray, n: int) -> np.ndarray:
    """Values at 0..n-1 of the natural cubic spline through (t, y).

    t is strictly increasing and spans [0, n - 1]. The interior second
    derivatives solve a strictly diagonally dominant tridiagonal system
    (de Boor 1978), here by parallel cyclic reduction (Hockney and
    Jesshope 1981): step s eliminates each row's neighbours at distance s,
    so after ceil(log2(m - 2)) steps every row stands alone. The cubic's
    coefficients are formed per knot interval and repeated over its samples.
    """
    h = np.diff(t)
    slope = np.diff(y) / h
    lower, diag, upper = h[:-1].copy(), 2.0 * (h[:-1] + h[1:]), h[1:].copy()
    rhs = 6.0 * np.diff(slope)
    s = 1
    # every row's (|lower| + |upper|) / diag starts at 1/2, and each step at least
    # squares it (Heller 1976): past s = 32, each coupling is at most 2^-64 of its diagonal
    while s < min(diag.size, 64):
        k_lo, k_hi = lower[s:] / diag[:-s], upper[:-s] / diag[s:]
        diag[s:] -= k_lo * upper[:-s]
        diag[:-s] -= k_hi * lower[s:]
        lo_rhs, hi_rhs = k_lo * rhs[:-s], k_hi * rhs[s:]  # both before rhs changes
        rhs[s:] -= lo_rhs
        rhs[:-s] -= hi_rhs
        # lower[:s] and upper[-s:] point past the ends: they feed only entries
        # that point past the ends at the next step, never diag or rhs
        lower[s:] = -k_lo * lower[:-s]
        upper[:-s] = -k_hi * upper[s:]
        s *= 2
    m2 = np.concatenate([[0.0], rhs / diag, [0.0]])
    lo, hi = m2[:-1], m2[1:]
    # interval j holds samples ceil(t[j]) to ceil(t[j + 1]) - 1; the last, all to n - 1
    edges = np.clip(np.ceil(t), 0, n).astype(np.intp)
    edges[-1] = n
    coeffs = [t[:-1], y[:-1], slope - h * (2.0 * lo + hi) / 6.0, 0.5 * lo, (hi - lo) / (6.0 * h)]
    t0, c0, c1, c2, c3 = np.repeat(coeffs, np.diff(edges), axis=1)
    dx = np.arange(n) - t0
    return c0 + (c1 + (c2 + c3 * dx) * dx) * dx


def _mirrored_envelope(idx: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Natural cubic spline through (idx, x[idx]) with mirrored end knots."""
    n = x.size
    left, right = idx[1::-1], idx[:-3:-1]  # the two outermost extrema at each end
    left, right = left[left > 0], right[right < n - 1]  # a knot on an end is not mirrored
    knots = np.concatenate([-left, idx, 2 * (n - 1) - right]).astype(float)
    vals = x[np.concatenate([left, idx, right])]
    return _natural_spline(knots, vals, n)


def _sift(h: np.ndarray, maxima: np.ndarray, minima: np.ndarray) -> np.ndarray:
    """One IMF sifted out of h, given h's own local maxima and minima (at
    least two of each); later candidates find their extrema themselves."""
    for iteration in range(1, MAX_SIFT_ITERATIONS + 1):
        mean_env = 0.5 * (_mirrored_envelope(maxima, h) + _mirrored_envelope(minima, h))
        h_next = h - mean_env
        denom = float(h @ h)
        sd = float((h - h_next) @ (h - h_next)) / denom if denom > 0 else 0.0
        h = h_next
        if sd < SD_THRESHOLD or iteration == MAX_SIFT_ITERATIONS:
            break
        maxima, minima = local_extrema(h)
        if maxima.size < 2 or minima.size < 2:
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
        imf = _sift(residue, maxima, minima)
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
