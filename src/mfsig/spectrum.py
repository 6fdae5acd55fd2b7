"""Singularity spectrum and multifractal width.

The generalized Hurst curve is mapped to the scaling exponent
tau(q) = q h(q) - 1 and Legendre-transformed into (alpha, f(alpha))
points via alpha = h + q h', f = q (alpha - h) + 1. A concave quadratic
f(alpha) = A (alpha - alpha0)^2 + B (alpha - alpha0) + 1 is fitted and
the width W is the distance between its zero crossings, the single
number used downstream as the complexity measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError
from .mfdfa import HurstCurve

_DEGENERATE_ALPHA_SPREAD = 1e-9


@dataclass(frozen=True)
class SingularitySpectrum:
    """(alpha, f) points with the q each point came from."""

    alpha: np.ndarray
    f: np.ndarray
    q_grid: np.ndarray

    def raw_width(self) -> float:
        """Spread of the observed alpha values (diagnostic, not the fitted W)."""
        return float(self.alpha.max() - self.alpha.min())


def singularity_spectrum(hurst: HurstCurve) -> SingularitySpectrum:
    """Legendre-transform h(q) into (alpha, f(alpha)) points.

    h'(q) uses central differences on the interior and one-sided
    differences at the ends of the grid, keeping one point per q.
    """
    q = hurst.q_grid
    h = hurst.h
    if q.size < 3:
        raise AnalysisError("need at least 3 q points for derivatives")
    dh = np.empty_like(h)
    dh[1:-1] = (h[2:] - h[:-2]) / (q[2:] - q[:-2])
    dh[0] = (h[1] - h[0]) / (q[1] - q[0])
    dh[-1] = (h[-1] - h[-2]) / (q[-1] - q[-2])
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
    width 0 and sets ``monofractal_degenerate``.
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
    c: float = 1.0

    def to_json_dict(self) -> dict:
        return {
            "A": self.a,
            "B": self.b,
            "C": self.c,
            "alpha0": self.alpha0,
            "W": self.width,
            "root_alpha_1": self.root_alpha_1,
            "root_alpha_2": self.root_alpha_2,
            "raw_alpha_width": self.raw_width,
            "concave": self.concave,
            "monofractal_degenerate": self.monofractal_degenerate,
        }


def fit_spectrum(spec: SingularitySpectrum) -> SpectrumFit:
    """Least-squares quadratic around the spectrum maximum.

    alpha0 is the alpha of the maximum observed f (ties resolved toward
    the smaller alpha); A and B are fitted with the constant pinned at 1.
    A non-concave fit (A >= 0) has no zero crossings bracketing the peak,
    so the raw alpha spread is reported with ``concave=False``.
    """
    alpha, f = spec.alpha, spec.f
    raw = spec.raw_width()
    if raw <= _DEGENERATE_ALPHA_SPREAD * max(1.0, float(np.abs(alpha).max())):
        a0 = float(alpha.mean())
        return SpectrumFit(
            a=0.0, b=0.0, alpha0=a0, width=0.0,
            root_alpha_1=a0, root_alpha_2=a0, raw_width=raw,
            concave=False, monofractal_degenerate=True,
        )
    if np.unique(alpha).size < 3:
        raise AnalysisError("need at least 3 distinct alpha points to fit")
    peak = np.flatnonzero(f == f.max())
    alpha0 = float(alpha[peak].min())
    u = alpha - alpha0
    design = np.column_stack([u**2, u])
    (a, b), *_ = np.linalg.lstsq(design, f - 1.0, rcond=None)
    a, b = float(a), float(b)
    if a >= 0.0:
        return SpectrumFit(
            a=a, b=b, alpha0=alpha0, width=raw,
            root_alpha_1=float(alpha.max()), root_alpha_2=float(alpha.min()),
            raw_width=raw, concave=False,
        )
    disc = math.sqrt(b * b - 4.0 * a)  # discriminant of A u^2 + B u + 1
    u_roots = ((-b - disc) / (2.0 * a), (-b + disc) / (2.0 * a))
    hi, lo = max(u_roots) + alpha0, min(u_roots) + alpha0
    return SpectrumFit(
        a=a, b=b, alpha0=alpha0, width=hi - lo,
        root_alpha_1=hi, root_alpha_2=lo, raw_width=raw,
    )
