"""Orthogonal discrete wavelet transform (4-tap Daubechies, periodized).

Analysis convolves the periodically extended signal with the scaling and
wavelet filters and decimates by two; synthesis is the exact adjoint, so
reconstruction is perfect to rounding error. Signals whose length is not
a multiple of 2**levels are zero-padded for the transform and trimmed on
reconstruction, preserving the round trip exactly. Every function works
on the last axis of a sample array, so a stack of equal-length signals
(rows, samples) is transformed at once, each row as on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import AnalysisError

_SQRT3 = math.sqrt(3.0)
_NORM = 4.0 * math.sqrt(2.0)

# Daubechies 4-tap scaling filter; the wavelet filter is its quadrature mirror.
DEC_LO = np.array([(1 + _SQRT3), (3 + _SQRT3), (3 - _SQRT3), (1 - _SQRT3)]) / _NORM
DEC_HI = np.array([DEC_LO[3], -DEC_LO[2], DEC_LO[1], -DEC_LO[0]])


@dataclass(frozen=True)
class WaveletCoeffs:
    """Multi-level decomposition: approximation plus details, finest first."""

    approx: np.ndarray
    details: list  # details[0] is level 1 (finest), details[-1] the coarsest
    original_length: int


def _analysis_step(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One level of periodized convolution-decimation of the last axis, which
    must have even length.

    Output k filters x[2k:2k+4], wrapping at the end: sample pair k next to
    pair k+1."""
    pairs = x.reshape(*x.shape[:-1], -1, 2)
    windows = np.concatenate([pairs, np.roll(pairs, -1, axis=-2)], axis=-1)
    return windows @ DEC_LO, windows @ DEC_HI


def _synthesis_step(approx: np.ndarray, detail: np.ndarray) -> np.ndarray:
    """Adjoint of the analysis step; inverts it exactly for these filters.

    Coefficient k spreads over samples 2k..2k+3, so each sample pair sums
    taps 0-1 of its own coefficient and taps 2-3 of the one before."""
    pairs = np.empty((*approx.shape, 2))
    for t in (0, 1):
        before = approx * DEC_LO[t + 2] + detail * DEC_HI[t + 2]
        pairs[..., t] = approx * DEC_LO[t] + detail * DEC_HI[t] + np.roll(before, 1, axis=-1)
    return pairs.reshape(*pairs.shape[:-2], -1)


def dwt(x: np.ndarray, levels: int) -> WaveletCoeffs:
    """Decompose the samples x (..., n) into ``levels`` detail bands and a
    coarse approximation."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1]
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if levels > int(math.floor(math.log2(n))) - 2:
        raise AnalysisError(f"{levels} levels exceed what a length-{n} signal supports")
    # zero-padded to a multiple of 2^levels
    approx = np.concatenate([x, np.zeros((*x.shape[:-1], -n % (1 << levels)))], axis=-1)
    details = []
    for _ in range(levels):
        approx, detail = _analysis_step(approx)
        details.append(detail)
    return WaveletCoeffs(approx=approx, details=details, original_length=n)


def idwt(coeffs: WaveletCoeffs) -> np.ndarray:
    """Invert dwt; returns the original samples to rounding error."""
    x = coeffs.approx
    for detail in reversed(coeffs.details):
        x = _synthesis_step(x, detail)
    return x[..., : coeffs.original_length]


def reconstruct_level(coeffs: WaveletCoeffs, level: int) -> np.ndarray:
    """Signal rebuilt from a single detail level, all else zeroed; synthesis
    starts at that level, so a deeper decomposition gives the same samples."""
    if not 1 <= level <= len(coeffs.details):
        raise ValueError(f"level {level} outside 1..{len(coeffs.details)}")
    details = [np.zeros_like(d) for d in coeffs.details[: level - 1]] + [coeffs.details[level - 1]]
    return idwt(replace(coeffs, approx=np.zeros_like(details[-1]), details=details))


def dyadic_level_for_band(fs: float, low_hz: float, high_hz: float, max_level: int) -> int:
    """Detail level whose dyadic band [fs/2^(l+1), fs/2^l) best overlaps the target;
    an AnalysisError when no level down to ``max_level`` overlaps it."""
    best, best_overlap = None, 0.0
    for lvl in range(1, max_level + 1):
        lo, hi = fs / 2 ** (lvl + 1), fs / 2**lvl
        overlap = min(hi, high_hz) - max(lo, low_hz)
        if overlap > best_overlap:
            best, best_overlap = lvl, overlap
    if best is None:
        raise AnalysisError(
            f"no dyadic subband down to level {max_level}, the deepest the window allows, "
            f"overlaps {low_hz:g}-{high_hz:g} Hz at {fs:g} Hz"
        )
    return best

