"""Multifractal detrended fluctuation analysis.

The analysis runs on a batch of equal-length series, a (series, samples)
array, and every step works on rows: build the profiles and tile them
into segments at each scale. A segment's squared fluctuation F2
is the mean square of what is left after projecting it off the
orthonormal basis of the order-m polynomials (the QR factor of the
Vandermonde matrix on [-1, 1], built once per scale and order). ln Fq is
formed in the log domain, so it overflows for no q, in one pass over the F2
of all scales laid side by side, and h(q) is the least-squares slope of
ln Fq on ln s. Each profile is first scaled by a power of two, which is
exact, so h(q) does not depend on the amplitude: it is bit for bit the
same for x and x * 2^k. One series is the batch of one (``run_mfdfa``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import AnalysisError
from .series import profile

DEFAULT_Q_GRID = np.linspace(-5.0, 5.0, 41)
DEFAULT_N_SCALES = 19
DEFAULT_MIN_SCALE = 16
# Bounds segment_fluctuations' temporaries and the cached bases, in elements.
_BLOCK_ELEMENTS = 2**16


def default_scales(n: int) -> np.ndarray:
    """DEFAULT_N_SCALES log-spaced integer scales from DEFAULT_MIN_SCALE to n // 4,
    at least two of them: one scale fits no slope."""
    max_scale = n // 4
    if max_scale <= DEFAULT_MIN_SCALE:
        raise AnalysisError(
            f"series of length {n} supports no scales in [{DEFAULT_MIN_SCALE}, n/4]"
        )
    scales = np.round(np.geomspace(DEFAULT_MIN_SCALE, max_scale, DEFAULT_N_SCALES)).astype(int)
    return scales[np.r_[True, np.diff(scales) > 0]]  # the rounded grid never decreases


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
            raise AnalysisError(
                f"scale {scales[0]} cannot support a polynomial of order {self.detrend_order}"
            )
        if n < 4 * scales[-1]:
            raise AnalysisError(f"series of length {n} is shorter than 4 x max scale {scales[-1]}")
        return MfdfaConfig(self.detrend_order, scales, q_grid, self.bidirectional)


def _polynomial_basis(s: int, m: int) -> np.ndarray:
    """Orthonormal basis (s x (m+1)) of the order-m polynomials on s points."""
    basis, _ = np.linalg.qr(np.vander(np.linspace(-1.0, 1.0, s), m + 1, increasing=True))
    return basis


@lru_cache(maxsize=128)
def _cached_basis(s: int, m: int) -> np.ndarray:
    basis = _polynomial_basis(s, m)
    basis.flags.writeable = False
    return basis


def _detrend_basis(s: int, m: int) -> np.ndarray:
    """The detrending basis at scale s, order m.

    Bases of at most _BLOCK_ELEMENTS // 8 elements (64 KB; every EEG scale
    up to 3840 at order 1) are built once and shared read-only, at most 128
    of them; a larger one is built per call, so that a long series does not
    keep its large-scale bases for the life of the process.
    """
    if s * (m + 1) <= _BLOCK_ELEMENTS // 8:
        return _cached_basis(s, m)
    return _polynomial_basis(s, m)


def segment_fluctuations(y: np.ndarray, s: int, m: int, bidirectional: bool = False) -> np.ndarray:
    """F2 of every segment of the profiles y (..., n) at scale s, order-m trend removed.

    Returns shape (..., k), k segments per profile. Unidirectional mode
    tiles from the start and discards the remainder; bidirectional mode
    adds the tiling counted from the end, so the 2*Ns segments jointly
    cover the trailing samples as well.
    """
    if s < m + 2:
        raise AnalysisError(f"scale {s} too small for polynomial order {m}")
    n = y.shape[-1]
    ns = n // s
    basis = _detrend_basis(s, m)
    rows = y.reshape(math.prod(y.shape[:-1]), n)
    starts = (0, n - ns * s) if bidirectional else (0,)
    f2 = np.empty((len(rows), len(starts), ns))
    # A block is a slab of whole rows, or of segments of one row longer than
    # _BLOCK_ELEMENTS, so a row's matmuls do not depend on the batch size
    block_rows = max(1, _BLOCK_ELEMENTS // max(n, 1))
    block_segments = max(1, _BLOCK_ELEMENTS // s)
    for r in range(0, len(rows), block_rows):
        slab = rows[r : r + block_rows]
        for t, a in enumerate(starts):
            for k in range(0, ns, block_segments):
                kb = min(block_segments, ns - k)
                seg = slab[:, a + k * s : a + (k + kb) * s].reshape(len(slab), kb, s)
                proj = (seg @ basis) @ basis.T
                np.subtract(seg, proj, out=proj)
                f2[r : r + block_rows, t, k : k + kb] = np.mean(np.square(proj, out=proj), axis=-1)
    return f2.reshape(*y.shape[:-1], len(starts) * ns)


def log_fluctuation_function(f2: np.ndarray, scales, lengths, q_grid: np.ndarray) -> np.ndarray:
    """ln Fq (..., q, scales) of the squared fluctuations f2 (..., K), which
    holds the segments of every scale side by side, lengths[j] at scales[j].

    Fq = mean(F2^(q/2))^(1/q) is evaluated in the log domain,
    ln Fq = (logsumexp(q/2 ln F2) - ln n) / q, shifted per (row, scale) by
    q/2 times the largest ln F2 for q > 0 and the smallest for q < 0, so it
    overflows for no q; q = 0 takes the limit mean(ln F2) / 2.
    Zero-variance segments are excluded per row and scale: they would make
    ln Fq infinite for q <= 0, so their terms are exactly 0 and n counts the
    others; a row with none raises AnalysisError at the first such scale.
    """
    f2 = np.asarray(f2, dtype=float)
    rows = f2.reshape(-1, f2.shape[-1])
    lengths = np.asarray(lengths)
    starts = np.cumsum(lengths) - lengths
    valid = rows > 0.0
    count = np.add.reduceat(valid, starts, axis=-1, dtype=np.intp)
    if not count.all():
        j = int(np.argmax(~count.all(axis=0)))
        raise AnalysisError(f"scale {scales[j]}: all segments have zero residual variance")
    ln_f2 = np.log(rows, out=np.zeros(rows.shape), where=valid)
    q_grid = np.asarray(q_grid, dtype=float)
    out = np.empty((q_grid.size, *count.shape))
    out[:] = 0.5 * (np.add.reduceat(ln_f2, starts, axis=-1) / count)
    log_count = np.log(count)
    # an excluded segment's ln F2 is +inf for q < 0 and -inf for q > 0, so
    # that q/2 ln F2 is -inf and its exp term exactly 0
    signs = ((q_grid < 0.0, np.inf, np.minimum), (q_grid > 0.0, -np.inf, np.maximum))
    for sel, excluded, reduce in signs:
        shifted = np.where(valid, ln_f2, excluded)
        extreme = reduce.reduceat(shifted, starts, axis=-1)
        shifted -= np.repeat(extreme, lengths, axis=-1)
        for i in np.flatnonzero(sel):
            half_q = 0.5 * q_grid[i]
            terms = half_q * shifted
            np.exp(terms, out=terms)
            lse = half_q * extreme + np.log(np.add.reduceat(terms, starts, axis=-1))
            out[i] = (lse - log_count) / q_grid[i]
    return np.moveaxis(out, 0, -2).reshape(*f2.shape[:-1], q_grid.size, lengths.size)


@dataclass(frozen=True)
class HurstCurve:
    """Generalized Hurst exponents with per-q fit diagnostics.

    ``h``, ``r2`` and ``stderr`` are (..., q), a row per series, and
    ``monotone`` is (...); with no leading axes, one series' curve.
    """

    q_grid: np.ndarray
    h: np.ndarray
    r2: np.ndarray
    stderr: np.ndarray
    monotone: bool | np.ndarray = True

    def index(self, q: float) -> int | None:
        """Position of q on the grid, or None when the grid lacks it."""
        idx = np.flatnonzero(np.isclose(self.q_grid, q, atol=1e-12))
        return int(idx[0]) if idx.size else None


def hurst_exponents(log_fq: np.ndarray, scales: np.ndarray, q_grid: np.ndarray) -> HurstCurve:
    """Least-squares slopes of ln Fq (..., q, s) on ln s, one per q, with R^2
    and stderr.

    A violation of the expected non-increase of h(q) is flagged, not raised.
    """
    log_s = np.log(np.asarray(scales, dtype=float))
    xm = log_s - log_s.mean()
    ym = log_fq - log_fq.mean(axis=-1, keepdims=True)
    sxx = xm @ xm
    h = ym @ xm / sxx
    resid = ym - h[..., np.newaxis] * xm
    ss_res = np.sum(resid**2, axis=-1)
    ss_tot = np.sum(ym**2, axis=-1)
    r2 = 1.0 - np.divide(ss_res, ss_tot, out=np.zeros_like(ss_res), where=ss_tot != 0.0)
    n = log_s.size
    stderr = np.sqrt(ss_res / (n - 2) / sxx) if n > 2 else np.full(h.shape, np.nan)
    monotone = np.all(np.diff(h, axis=-1) <= 1e-6, axis=-1)
    return HurstCurve(np.asarray(q_grid, dtype=float), h, r2, stderr, monotone)


@dataclass(frozen=True)
class MfdfaResult:
    """Log fluctuation functions, Hurst curves, and zero-variance counts.

    ``log_fq`` is (..., q, s) and ``zero_variance_segments`` (...): from
    ``run_mfdfa_batch`` a row per series, from ``run_mfdfa`` one series'
    values. The methods read one series' result.
    """

    scales: np.ndarray
    q_grid: np.ndarray
    log_fq: np.ndarray
    hurst: HurstCurve
    zero_variance_segments: int | np.ndarray = 0

    @property
    def h(self) -> np.ndarray:
        return self.hurst.h

    def h_at(self, q: float) -> float:
        i = self.hurst.index(q)
        if i is None:
            raise ValueError(f"q = {q} is not on the configured grid")
        return float(self.h[i])


def run_mfdfa_batch(samples: np.ndarray, config: MfdfaConfig | None = None) -> MfdfaResult:
    """Full analysis of the series in the rows of samples (B, n) at once.

    Row b of each field equals ``run_mfdfa`` of series b; the scales are
    walked once for all of them. A series that cannot be analyzed fails the
    whole batch.
    """
    cfg = (config or MfdfaConfig()).resolve(np.shape(samples)[-1])
    y = profile(samples)
    # Fq is linear in the amplitude (Kantelhardt 2002): scale each profile exactly
    # to max |y| in [0.5, 1), so F2 cannot overflow, and add it back to ln Fq only
    _, exponent = np.frexp(np.abs(y).max(axis=-1))
    y = np.ldexp(y, -exponent[:, np.newaxis])
    f2 = [segment_fluctuations(y, int(s), cfg.detrend_order, cfg.bidirectional) for s in cfg.scales]
    lengths = [f.shape[-1] for f in f2]
    f2 = np.concatenate(f2, axis=-1)
    log_fq = log_fluctuation_function(f2, cfg.scales, lengths, cfg.q_grid)
    zero_total = np.count_nonzero(f2 == 0.0, axis=-1)
    return MfdfaResult(
        scales=cfg.scales,
        q_grid=cfg.q_grid,
        log_fq=log_fq + exponent[:, np.newaxis, np.newaxis] * np.log(2.0),
        hurst=hurst_exponents(log_fq, cfg.scales, cfg.q_grid),
        zero_variance_segments=zero_total,
    )


def run_mfdfa(x: np.ndarray, config: MfdfaConfig | None = None) -> MfdfaResult:
    """Full analysis of one series of samples x: profile, fluctuations, ln Fq, h(q).

    The batch of one, with one series' values in every field."""
    r = run_mfdfa_batch(x[np.newaxis], config)
    c = r.hurst
    hurst = HurstCurve(c.q_grid, c.h[0], c.r2[0], c.stderr[0], bool(c.monotone[0]))
    return MfdfaResult(r.scales, r.q_grid, r.log_fq[0], hurst, int(r.zero_variance_segments[0]))
