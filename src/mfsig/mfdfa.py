"""Multifractal detrended fluctuation analysis.

Per series: build the profile and tile it into segments at each scale.
A segment's squared fluctuation F2 is the mean square of what is left
after projecting it off the orthonormal basis of the order-m polynomials
(the QR factor of the Vandermonde matrix on [-1, 1]). ln Fq is formed in
the log domain, so it overflows for no q, and h(q) is the least-squares
slope of ln Fq on ln s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AllSegmentsDegenerateError, DegenerateFitError, InsufficientDataError
from .series import TimeSeries, profile

DEFAULT_Q_GRID = np.linspace(-5.0, 5.0, 41)
DEFAULT_N_SCALES = 19
DEFAULT_MIN_SCALE = 16
# Bounds the working memory of log_fluctuation_function at any series length.
_BLOCK_ELEMENTS = 2**16


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


def segment_fluctuations(y: np.ndarray, s: int, m: int, bidirectional: bool = False) -> np.ndarray:
    """F2 of every segment of the profile y at scale s, order-m trend removed.

    Unidirectional mode tiles from the start and discards the remainder;
    bidirectional mode adds the tiling counted from the end, so the 2*Ns
    segments jointly cover the trailing samples as well.
    """
    if s < m + 2:
        raise DegenerateFitError(f"scale {s} too small for polynomial order {m}")
    n = y.size
    ns = n // s
    basis, _ = np.linalg.qr(np.polynomial.polynomial.polyvander(np.linspace(-1.0, 1.0, s), m))
    starts = (0, n - ns * s) if bidirectional else (0,)
    tilings = (y[a : a + ns * s].reshape(ns, s) for a in starts)
    return np.concatenate([np.mean((g - (g @ basis) @ basis.T) ** 2, axis=1) for g in tilings])


def log_fluctuation_function(f2: np.ndarray, q_grid: np.ndarray) -> np.ndarray:
    """ln Fq of one scale's squared fluctuations, for every q of the grid.

    Fq = mean(F2^(q/2))^(1/q) is evaluated in the log domain,
    ln Fq = (logsumexp(q/2 ln F2) - ln n) / q, which overflows for no q;
    q = 0 takes the limit mean(ln F2) / 2.
    Zero-variance segments are excluded: they make ln Fq infinite for q <= 0.
    The q x segment terms are formed in row blocks of at most _BLOCK_ELEMENTS,
    so a long series never holds a whole scale of them.
    """
    f2 = np.asarray(f2, dtype=float)
    ln_f2 = np.log(f2[f2 > 0.0])
    if ln_f2.size == 0:
        raise AllSegmentsDegenerateError("all segments have zero residual variance")
    q_grid = np.asarray(q_grid, dtype=float)
    out = np.full(q_grid.size, 0.5 * np.mean(ln_f2))
    nonzero = np.flatnonzero(q_grid != 0.0)
    rows = max(1, _BLOCK_ELEMENTS // ln_f2.size)
    for start in range(0, nonzero.size, rows):
        idx = nonzero[start : start + rows]
        terms = 0.5 * q_grid[idx, np.newaxis] * ln_f2
        peak = terms.max(axis=1, keepdims=True)
        lse = peak[:, 0] + np.log(np.sum(np.exp(terms - peak), axis=1))
        out[idx] = (lse - np.log(ln_f2.size)) / q_grid[idx]
    return out


@dataclass(frozen=True)
class HurstCurve:
    """Generalized Hurst exponents with per-q fit diagnostics."""

    q_grid: np.ndarray
    h: np.ndarray
    r2: np.ndarray
    stderr: np.ndarray
    monotone: bool = True

    def index(self, q: float) -> int | None:
        """Position of q on the grid, or None when the grid lacks it."""
        idx = np.flatnonzero(np.isclose(self.q_grid, q, atol=1e-12))
        return int(idx[0]) if idx.size else None

    def at(self, q: float) -> float:
        i = self.index(q)
        if i is None:
            raise ValueError(f"q = {q} is not on the configured grid")
        return float(self.h[i])


def hurst_exponents(log_fq: np.ndarray, scales: np.ndarray, q_grid: np.ndarray) -> HurstCurve:
    """Least-squares slopes of ln Fq on ln s, one per q, with R^2 and stderr.

    A violation of the expected non-increase of h(q) is flagged, not raised.
    """
    log_s = np.log(np.asarray(scales, dtype=float))
    xm = log_s - log_s.mean()
    ym = log_fq - log_fq.mean(axis=1, keepdims=True)
    sxx = xm @ xm
    h = ym @ xm / sxx
    resid = ym - h[:, np.newaxis] * xm
    ss_res = np.sum(resid**2, axis=1)
    ss_tot = np.sum(ym**2, axis=1)
    r2 = 1.0 - np.divide(ss_res, ss_tot, out=np.zeros_like(ss_res), where=ss_tot != 0.0)
    n = log_s.size
    stderr = np.sqrt(ss_res / (n - 2) / sxx) if n > 2 else np.full(h.size, np.nan)
    monotone = bool(np.all(np.diff(h) <= 1e-6))
    return HurstCurve(np.asarray(q_grid, dtype=float), h, r2, stderr, monotone)


@dataclass(frozen=True)
class MfdfaResult:
    """Log fluctuation function, Hurst curve, and zero-variance count."""

    scales: np.ndarray
    q_grid: np.ndarray
    log_fq: np.ndarray  # shape (len(q_grid), len(scales))
    hurst: HurstCurve
    zero_variance_segments: int = 0

    @property
    def fq(self) -> np.ndarray:
        return np.exp(self.log_fq)

    @property
    def h(self) -> np.ndarray:
        return self.hurst.h

    def h_at(self, q: float) -> float:
        return self.hurst.at(q)

    def to_json_dict(self) -> dict:
        return {
            "scales": self.scales.tolist(),
            "q": self.q_grid.tolist(),
            "log_fq": self.log_fq.tolist(),
            "h": self.hurst.h.tolist(),
            "r2": self.hurst.r2.tolist(),
            "stderr": _jsonsafe(self.hurst.stderr).tolist(),
            "h_monotone": self.hurst.monotone,
            "zero_variance_segments": self.zero_variance_segments,
        }

    def to_csv_rows(self):
        """One (q, s, fq, log_fq) row per grid point."""
        fq = self.fq
        for i, q in enumerate(self.q_grid):
            for j, s in enumerate(self.scales):
                yield float(q), int(s), float(fq[i, j]), float(self.log_fq[i, j])


def _jsonsafe(arr: np.ndarray):
    out = np.asarray(arr, dtype=object)
    flat = np.asarray(arr, dtype=float)
    out[~np.isfinite(flat)] = None
    return out


def run_mfdfa(ts: TimeSeries, config: MfdfaConfig | None = None) -> MfdfaResult:
    """Full analysis of one series: profile, fluctuations, ln Fq, h(q)."""
    cfg = (config or MfdfaConfig()).resolve(len(ts))
    y = profile(ts)
    log_fq = np.empty((len(cfg.q_grid), len(cfg.scales)))
    zero_total = 0
    for j, s in enumerate(cfg.scales):
        f2 = segment_fluctuations(y, int(s), cfg.detrend_order, cfg.bidirectional)
        try:
            log_fq[:, j] = log_fluctuation_function(f2, cfg.q_grid)
        except AllSegmentsDegenerateError as exc:
            raise AllSegmentsDegenerateError(f"scale {s}: {exc}") from None
        zero_total += int(np.count_nonzero(f2 == 0.0))
    return MfdfaResult(
        scales=cfg.scales,
        q_grid=cfg.q_grid,
        log_fq=log_fq,
        hurst=hurst_exponents(log_fq, cfg.scales, cfg.q_grid),
        zero_variance_segments=zero_total,
    )
