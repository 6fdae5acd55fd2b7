"""Singularity spectrum and multifractal width.

The generalized Hurst curve is mapped to the scaling exponent
tau(q) = q h(q) - 1 and Legendre-transformed into (alpha, f(alpha))
points via alpha = h + q h', f = q (alpha - h) + 1. A concave quadratic
f(alpha) = A (alpha - alpha0)^2 + B (alpha - alpha0) + 1 is fitted and
the width W is the distance between its zero crossings, the single
number used downstream as the complexity measure. Every step works on
rows, a spectrum per series: the fit solves each row's 2 x 2 normal
equations in closed form, with masks for degenerate and non-concave rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError
from .mfdfa import HurstCurve

_DEGENERATE_ALPHA_SPREAD = 1e-9


@dataclass(frozen=True)
class SingularitySpectrum:
    """(alpha, f) points, (..., q) with a row per series, and the q each
    point came from."""

    alpha: np.ndarray
    f: np.ndarray
    q_grid: np.ndarray

    def raw_width(self):
        """Spread of each row's alpha values (diagnostic, not the fitted W)."""
        return self.alpha.max(axis=-1) - self.alpha.min(axis=-1)


def singularity_spectrum(hurst: HurstCurve) -> SingularitySpectrum:
    """Legendre-transform each row of h(q) into (alpha, f(alpha)) points.

    h'(q) uses central differences on the interior and one-sided
    differences at the ends of the grid, keeping one point per q.
    """
    q = hurst.q_grid
    h = hurst.h
    if q.size < 3:
        raise AnalysisError("need at least 3 q points for derivatives")
    dh = np.empty_like(h)
    dh[..., 1:-1] = (h[..., 2:] - h[..., :-2]) / (q[2:] - q[:-2])
    dh[..., 0] = (h[..., 1] - h[..., 0]) / (q[1] - q[0])
    dh[..., -1] = (h[..., -1] - h[..., -2]) / (q[-1] - q[-2])
    alpha = h + q * dh
    f = q * (alpha - h) + 1.0
    return SingularitySpectrum(alpha=alpha, f=f, q_grid=q)


@dataclass(frozen=True)
class SpectrumFit:
    """Quadratic fit of the singularity spectrum and its width.

    The constant term is pinned to f(alpha0) = 1. ``width`` is the
    distance between the parabola's zero crossings when the fit is
    concave; otherwise it falls back to the raw alpha spread and
    ``concave`` is False. A spectrum collapsed to a single point keeps
    width 0 and sets ``monofractal_degenerate``. From ``fit_spectra`` every
    field is an array with a value per spectrum row; from ``fit_spectrum``,
    one spectrum's Python scalar.
    """

    a: float
    b: float
    alpha0: float
    width: float
    root_alpha_1: float
    root_alpha_2: float
    raw_width: float
    concave: bool = True
    monofractal_degenerate: bool = False


def fit_spectra(spec: SingularitySpectrum) -> SpectrumFit:
    """Least-squares quadratic around the maximum of each spectrum row.

    alpha0 is the alpha of the row's maximum observed f (ties resolved
    toward the smaller alpha); A and B are fitted with the constant pinned
    at 1. A non-concave fit (A >= 0) has no zero crossings bracketing the
    peak, so the raw alpha spread is reported with ``concave=False``. A row
    with fewer than 3 distinct alpha values that is not degenerate raises
    AnalysisError.
    """
    alpha, f = spec.alpha, spec.f
    raw = spec.raw_width()
    degenerate = raw <= _DEGENERATE_ALPHA_SPREAD * np.maximum(1.0, np.abs(alpha).max(axis=-1))
    unfittable = ~degenerate & (np.count_nonzero(np.diff(np.sort(alpha)), axis=-1) < 2)
    if unfittable.any():
        raise AnalysisError("need at least 3 distinct alpha points to fit")
    peak = np.where(f == f.max(axis=-1, keepdims=True), alpha, np.inf).min(axis=-1)
    u = alpha - peak[..., np.newaxis]
    u2, g = u * u, f - 1.0
    # the normal equations of A u^2 + B u = f - 1, a 2 x 2 system per row
    s2, s3, s4 = u2.sum(axis=-1), (u2 * u).sum(axis=-1), (u2 * u2).sum(axis=-1)
    t1, t2 = (u * g).sum(axis=-1), (u2 * g).sum(axis=-1)
    with np.errstate(divide="ignore", invalid="ignore"):
        det = s4 * s2 - s3 * s3
        a = np.where(degenerate, 0.0, (s2 * t2 - s3 * t1) / det)
        b = np.where(degenerate, 0.0, (s4 * t1 - s3 * t2) / det)
        concave = a < 0.0
        # the roots of A u^2 + B u + 1; the first is the larger when A < 0
        disc = np.sqrt(b * b - 4.0 * a)
        hi = (-b - disc) / (2.0 * a) + peak
        lo = (-b + disc) / (2.0 * a) + peak
    # a fit that is not concave spans the alpha range, whose length is the raw
    # width; a degenerate one shrinks to the mean alpha
    mean = alpha.mean(axis=-1)
    hi = np.where(concave, hi, np.where(degenerate, mean, alpha.max(axis=-1)))
    lo = np.where(concave, lo, np.where(degenerate, mean, alpha.min(axis=-1)))
    alpha0 = np.where(degenerate, mean, peak)
    return SpectrumFit(a, b, alpha0, hi - lo, hi, lo, raw, concave, degenerate)


def fit_spectrum(spec: SingularitySpectrum) -> SpectrumFit:
    """One spectrum's fit: ``fit_spectra`` of one row, with scalar fields."""
    return SpectrumFit(**{k: np.asarray(v).item() for k, v in vars(fit_spectra(spec)).items()})
