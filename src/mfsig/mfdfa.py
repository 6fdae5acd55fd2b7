"""Multifractal detrended fluctuation analysis.

Pipeline per series: build the profile, split it into segments at each
scale, remove a polynomial trend per segment, form the q-order mean of the
squared residuals, and read the generalized Hurst exponent h(q) off the
log-log slope of the fluctuation function.

All stages are pure functions of their inputs; the per-scale fluctuation
arrays and the per-q fits are independent work items, so callers may map
over them in parallel without changing any result bit-for-bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AllSegmentsDegenerateError,
    DegenerateFitError,
    InsufficientDataError,
    InsufficientScalesError,
)
from .series import ProfileSeries, TimeSeries, ensure_finite, profile

DEFAULT_Q_GRID = np.linspace(-5.0, 5.0, 41)
DEFAULT_N_SCALES = 19
DEFAULT_MIN_SCALE = 16


def default_scales(n: int) -> np.ndarray:
    """DEFAULT_N_SCALES log-spaced integer scales from DEFAULT_MIN_SCALE to n // 4."""
    max_scale = n // 4
    if max_scale < DEFAULT_MIN_SCALE:
        raise InsufficientDataError(
            f"series of length {n} supports no scales in [{DEFAULT_MIN_SCALE}, n/4]"
        )
    grid = np.geomspace(DEFAULT_MIN_SCALE, max_scale, DEFAULT_N_SCALES)
    return np.unique(np.round(grid).astype(int))


@dataclass(frozen=True)
class MfdfaConfig:
    """Detrending order, scale grid, q grid, and segmentation direction.

    ``scales=None`` / ``q_grid=None`` select the defaults at run time
    (19 log-spaced scales from 16 to N/4; q from -5 to 5 in steps of 0.25).
    Bidirectional mode segments the profile from both ends, doubling the
    segment count and using the trailing remainder samples.
    """

    detrend_order: int = 1
    scales: np.ndarray | None = None
    q_grid: np.ndarray | None = None
    bidirectional: bool = False

    def __post_init__(self):
        if self.detrend_order < 1:
            raise ValueError(f"detrend order must be >= 1, got {self.detrend_order}")
        if self.scales is not None:
            s = np.asarray(self.scales, dtype=int)
            if s.size < 2 or np.any(np.diff(s) <= 0):
                raise ValueError("scales must be strictly increasing with >= 2 entries")
            object.__setattr__(self, "scales", s)
        if self.q_grid is not None:
            q = np.asarray(self.q_grid, dtype=float)
            if q.size < 1 or np.any(np.diff(q) <= 0):
                raise ValueError("q grid must be strictly increasing")
            object.__setattr__(self, "q_grid", q)

    def resolve(self, n: int) -> "MfdfaConfig":
        """Fill in default grids for a series of length n and check bounds."""
        scales = self.scales if self.scales is not None else default_scales(n)
        q_grid = self.q_grid if self.q_grid is not None else DEFAULT_Q_GRID.copy()
        if scales[0] < self.detrend_order + 2:
            raise DegenerateFitError(
                f"scale {scales[0]} cannot support a polynomial of order {self.detrend_order}"
            )
        if n < 4 * scales[-1]:
            raise InsufficientDataError(
                f"series of length {n} is shorter than 4 x max scale {scales[-1]}"
            )
        return MfdfaConfig(self.detrend_order, scales, q_grid, self.bidirectional)


def _detrend_residual_ms(segments: np.ndarray, order: int) -> np.ndarray:
    """Mean squared residual of an order-m least-squares fit, per row.

    The abscissa is rescaled to [-1, 1]; the fitted function space, and
    hence the residual, is unchanged while the Vandermonde system stays
    well conditioned at large segment sizes.
    """
    s = segments.shape[1]
    x = np.linspace(-1.0, 1.0, s)
    vander = np.polynomial.polynomial.polyvander(x, order)
    coef, *_ = np.linalg.lstsq(vander, segments.T, rcond=None)
    resid = segments.T - vander @ coef
    return np.mean(resid**2, axis=0)


def segment_fluctuations(
    prof: ProfileSeries, s: int, m: int, bidirectional: bool = False
) -> np.ndarray:
    """All squared segment fluctuations at scale s.

    Unidirectional mode tiles from the start and discards the remainder;
    bidirectional mode adds the tiling counted from the end, so the 2*Ns
    segments jointly cover the trailing samples as well.
    """
    if s < m + 2:
        raise DegenerateFitError(f"scale {s} too small for polynomial order {m}")
    n = len(prof)
    ns = n // s
    y = prof.values
    forward = y[: ns * s].reshape(ns, s)
    f2 = _detrend_residual_ms(forward, m)
    if bidirectional:
        backward = y[n - ns * s :].reshape(ns, s)
        f2 = np.concatenate([f2, _detrend_residual_ms(backward, m)])
    return f2


def q_order_mean(f2: np.ndarray, q: float) -> tuple[float, int, bool]:
    """q-order overall RMS variation of one scale's squared fluctuations.

    Returns (Fq, n_zero_excluded, negative_q_blowup). Zero-variance
    segments are excluded from the mean (they would send q < 0 terms to
    infinity and the q = 0 log-average to -infinity); the count is
    reported so callers can surface a warning. For q = 0 the power mean
    degenerates and the logarithmic average exp(mean(ln F2) / 2) is used.
    """
    f2 = np.asarray(f2, dtype=float)
    included = f2[f2 > 0.0]
    n_zero = f2.size - included.size
    if included.size == 0:
        raise AllSegmentsDegenerateError("all segments have zero residual variance")
    blowup = bool(q < 0 and np.any(included < 1e-300))
    with np.errstate(over="ignore", divide="ignore"):
        if q == 0.0:
            fq = float(np.exp(0.5 * np.mean(np.log(included))))
        else:
            fq = float(np.mean(included ** (q / 2.0)) ** (1.0 / q))
    return fq, n_zero, blowup


def _ols_loglog(log_s: np.ndarray, log_f: np.ndarray) -> tuple[float, float, float]:
    """Ordinary least-squares slope of log_f on log_s: (slope, r2, stderr)."""
    n = log_s.size
    xm = log_s - log_s.mean()
    ym = log_f - log_f.mean()
    sxx = float(xm @ xm)
    slope = float(xm @ ym) / sxx
    resid = ym - slope * xm
    ss_res = float(resid @ resid)
    ss_tot = float(ym @ ym)
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    stderr = float(np.sqrt(ss_res / (n - 2) / sxx)) if n > 2 else float("nan")
    return slope, r2, stderr


@dataclass(frozen=True)
class HurstCurve:
    """Generalized Hurst exponents with per-q fit diagnostics."""

    q_grid: np.ndarray
    h: np.ndarray
    r2: np.ndarray
    stderr: np.ndarray
    monotone: bool = True

    def at(self, q: float) -> float:
        idx = np.flatnonzero(np.isclose(self.q_grid, q, atol=1e-12))
        if idx.size == 0:
            raise ValueError(f"q = {q} is not on the configured grid")
        return float(self.h[idx[0]])


def hurst_exponents(fq: np.ndarray, scales: np.ndarray, q_grid: np.ndarray) -> HurstCurve:
    """Per-q log-log regression of the fluctuation function on scale.

    Scales with non-finite or non-positive Fq are dropped from that q's
    fit; fewer than two usable scales is an error. A violation of the
    expected non-increase of h(q) is flagged, not raised.
    """
    fq = np.asarray(fq, dtype=float)
    log_s = np.log(np.asarray(scales, dtype=float))
    h = np.empty(len(q_grid))
    r2 = np.empty(len(q_grid))
    stderr = np.empty(len(q_grid))
    for i in range(len(q_grid)):
        row = fq[i]
        usable = np.isfinite(row) & (row > 0.0)
        if np.count_nonzero(usable) < 2:
            raise InsufficientScalesError(
                f"q = {q_grid[i]}: fewer than 2 scales with finite positive Fq"
            )
        h[i], r2[i], stderr[i] = _ols_loglog(log_s[usable], np.log(row[usable]))
    monotone = bool(np.all(np.diff(h) <= 1e-6))
    return HurstCurve(np.asarray(q_grid, dtype=float), h, r2, stderr, monotone)


@dataclass(frozen=True)
class MfdfaResult:
    """Fluctuation function, Hurst curve, and degeneracy counters."""

    scales: np.ndarray
    q_grid: np.ndarray
    fq: np.ndarray  # shape (len(q_grid), len(scales))
    hurst: HurstCurve
    zero_variance_segments: int = 0
    negative_q_blowup: bool = False

    @property
    def log_fq(self) -> np.ndarray:
        with np.errstate(divide="ignore"):
            return np.log(self.fq)

    @property
    def h(self) -> np.ndarray:
        return self.hurst.h

    def h_at(self, q: float) -> float:
        return self.hurst.at(q)

    def to_json_dict(self) -> dict:
        return {
            "scales": self.scales.tolist(),
            "q": self.q_grid.tolist(),
            "log_fq": _jsonsafe(self.log_fq).tolist(),
            "h": self.hurst.h.tolist(),
            "r2": self.hurst.r2.tolist(),
            "stderr": _jsonsafe(self.hurst.stderr).tolist(),
            "h_monotone": self.hurst.monotone,
            "zero_variance_segments": self.zero_variance_segments,
            "negative_q_blowup": self.negative_q_blowup,
        }

    def to_csv_rows(self):
        """One (q, s, fq, log_fq) row per grid point."""
        log_fq = self.log_fq
        for i, q in enumerate(self.q_grid):
            for j, s in enumerate(self.scales):
                yield float(q), int(s), float(self.fq[i, j]), float(log_fq[i, j])


def _jsonsafe(arr: np.ndarray):
    out = np.asarray(arr, dtype=object)
    flat = np.asarray(arr, dtype=float)
    out[~np.isfinite(flat)] = None
    return out


def run_mfdfa(ts: TimeSeries, config: MfdfaConfig | None = None) -> MfdfaResult:
    """Full analysis of one series: profile, fluctuations, Fq, h(q)."""
    ensure_finite(ts.samples)
    cfg = (config or MfdfaConfig()).resolve(len(ts))
    prof = profile(ts)
    per_scale = [
        segment_fluctuations(prof, int(s), cfg.detrend_order, cfg.bidirectional)
        for s in cfg.scales
    ]
    fq = np.empty((len(cfg.q_grid), len(cfg.scales)))
    zero_total = 0
    blowup_any = False
    for j, f2 in enumerate(per_scale):
        for i, q in enumerate(cfg.q_grid):
            fq[i, j], n_zero, blowup = q_order_mean(f2, float(q))
            blowup_any = blowup_any or blowup
        zero_total += int(np.count_nonzero(f2 == 0.0))
    hurst = hurst_exponents(fq, cfg.scales, cfg.q_grid)
    return MfdfaResult(
        scales=cfg.scales,
        q_grid=cfg.q_grid,
        fq=fq,
        hurst=hurst,
        zero_variance_segments=zero_total,
        negative_q_blowup=blowup_any,
    )
