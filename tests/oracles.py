"""Independent reference implementations used only to cross-check the
library. Deliberately coded via different routes (explicit loops, normal
equations, polyfit) so agreement is evidence, not tautology; or, like
``extract_rhythm`` and ``envelope``, in the one-at-a-time form that the
library batches. Closed forms the library does not need live here too."""

import math

import numpy as np

from mfsig.bands import RHYTHMS, BandSpec, fft_bandpass
from mfsig.errors import AnalysisError
from mfsig.mfdfa import _BLOCK_ELEMENTS, DEFAULT_MIN_SCALE, DEFAULT_N_SCALES, _detrend_basis
from mfsig.wavelet import DEC_HI, DEC_LO, dwt, dyadic_level_for_band, reconstruct_level

_MASK64 = (1 << 64) - 1
_LN2 = math.log(2.0)

# The residual below the stimulus bands: with them it partitions the spectrum.
SUB_BAND_FLOOR = BandSpec(0.0, 50.0, "sub50")


def normal_equations_residual_ms(segments, order):
    """Mean squared residual of a polynomial fit via normal equations, for
    each segment in the last axis of segments (..., s).

    Centered integer abscissa keeps the normal equations well conditioned;
    the residual itself is invariant to the abscissa shift.
    """
    seg = np.asarray(segments, dtype=float)
    s = seg.shape[-1]
    t = np.arange(s, dtype=float) - (s - 1) / 2.0
    a = np.vander(t, order + 1)
    coef = np.linalg.solve(a.T @ a, (seg @ a)[..., np.newaxis])[..., 0]
    resid = seg - coef @ a.T
    return np.mean(resid * resid, axis=-1)


def plain_dfa_slope(samples, scales, order=1, bidirectional=False):
    """Classic DFA: RMS of detrended profile fluctuations vs scale."""
    x = np.asarray(samples, dtype=float)
    n = x.size
    y = np.cumsum(x) - np.arange(1, n + 1) * x.mean()
    f_of_s = []
    for s in scales:
        ns = n // s
        starts = [v * s for v in range(ns)]
        if bidirectional:
            starts += [n - (v + 1) * s for v in range(ns)]
        ms = [normal_equations_residual_ms(y[st : st + s], order) for st in starts]
        f_of_s.append(np.sqrt(np.mean(ms)))
    return float(np.polyfit(np.log(np.asarray(scales, float)), np.log(f_of_s), 1)[0])


def local_extrema_loop(x):
    """Maxima and minima indices, one sign flip of the nonzero steps at a time.

    A flip between nonzero steps i and j marks an extremum at the midpoint
    of the plateau x[i + 1 .. j].
    """
    d = np.diff(np.asarray(x, dtype=float))
    nonzero = np.flatnonzero(d != 0)
    maxima, minima = [], []
    for a, b in zip(nonzero[:-1], nonzero[1:]):
        if np.sign(d[a]) != np.sign(d[b]):
            (maxima if d[a] > 0 else minima).append((a + 1 + b) // 2)
    return np.array(maxima, dtype=int), np.array(minima, dtype=int)


def convolution_decimation_step(x, lo, hi):
    """One periodized analysis level by direct looped convolution."""
    n = x.size
    taps = len(lo)
    approx = np.empty(n // 2)
    detail = np.empty(n // 2)
    for i in range(n // 2):
        sa = 0.0
        sd = 0.0
        for k in range(taps):
            sa += lo[k] * x[(2 * i + k) % n]
            sd += hi[k] * x[(2 * i + k) % n]
        approx[i] = sa
        detail[i] = sd
    return approx, detail


def binomial_hurst_closed_form(q, a):
    """h(q) of the binomial cascade, recomputed from the tau route."""
    b = 1.0 - a
    if q == 0:
        return -np.log(a * b) / (2.0 * np.log(2.0))
    tau = -np.log(a**q + b**q) / np.log(2.0)
    return (tau + 1.0) / q


def binomial_alpha_closed_form(q, a):
    """alpha(q) = d tau / dq for the binomial cascade."""
    b = 1.0 - a
    num = a**q * np.log(a) + b**q * np.log(b)
    return -num / ((a**q + b**q) * np.log(2.0))


def cascade_tau_oracle(q, a):
    """Exact scaling exponent tau(q) = -ln(a^q + (1-a)^q) / ln 2 of the binomial cascade."""
    return -math.log(a**q + (1.0 - a) ** q) / _LN2


def cascade_alpha_oracle(q, a):
    """Exact singularity strength alpha(q) = d tau / d q of the binomial cascade."""
    b = 1.0 - a
    aq, bq = a**q, b**q
    return -(aq * math.log(a) + bq * math.log(b)) / ((aq + bq) * _LN2)


def cascade_alpha_limits(a):
    """(alpha_min, alpha_max) of the binomial cascade, reached as q -> +inf / -inf."""
    return (-math.log(a) / _LN2, -math.log(1.0 - a) / _LN2)


def cascade_asymptotic_width(a):
    """Full spectrum width alpha_max - alpha_min = log2(a / (1-a))."""
    lo, hi = cascade_alpha_limits(a)
    return hi - lo


def extract_rhythm(x, fs, name, method="fft"):
    """One rhythm's band-limited signal of the samples x at fs Hz, built alone.

    ``fft`` is the brick-wall filter at the rhythm's band edges; ``dwt``
    rebuilds the single dyadic subband that best overlaps the band from a
    decomposition down to that level.
    """
    band = RHYTHMS[name]
    if method == "fft":
        return fft_bandpass(x, fs, band)
    max_level = int(math.floor(math.log2(len(x)))) - 2
    level = dyadic_level_for_band(fs, band.low_hz, band.high_hz, max_level)
    return reconstruct_level(dwt(x, level), level)


def envelope(x):
    """|analytic signal| of one series: its own rfft, positive bins doubled, ifft."""
    n = len(x)
    spec = np.fft.rfft(x)
    spec[1 : (n + 1) // 2] *= 2.0
    return np.abs(np.fft.ifft(spec, n))


def natural_spline(t, y, x):
    """The natural cubic spline through (t, y) at x: second derivatives from
    one dense solve of all m equations, the end rows setting them to 0; each
    point evaluated in the symmetric form of the cubic on its knot interval."""
    t, y, x = (np.asarray(v, dtype=float) for v in (t, y, x))
    m = t.size
    h = np.diff(t)
    a = np.zeros((m, m))
    rhs = np.zeros(m)
    a[0, 0] = a[-1, -1] = 1.0
    for i in range(1, m - 1):
        a[i, i - 1 : i + 2] = h[i - 1], 2.0 * (h[i - 1] + h[i]), h[i]
        rhs[i] = 6.0 * ((y[i + 1] - y[i]) / h[i] - (y[i] - y[i - 1]) / h[i - 1])
    second = np.linalg.solve(a, rhs)
    j = np.clip(np.digitize(x, t) - 1, 0, m - 2)
    left, right, hj = x - t[j], t[j + 1] - x, h[j]
    return (
        (second[j] * right**3 + second[j + 1] * left**3) / (6.0 * hj)
        + (y[j] / hj - second[j] * hj / 6.0) * right
        + (y[j + 1] / hj - second[j + 1] * hj / 6.0) * left
    )


def mirrored_knots_loop(idx, x):
    """(knots, values) of EMD's envelope through (idx, x[idx]): the two
    outermost extrema at each end mirrored about sample 0 and n - 1, one at a
    time in Python lists, an extremum on an end not mirrored."""
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
    return knots, np.concatenate([left_v[::-1], v, right_v])


def imf_sum(decomposition):
    """The residue plus every IMF of an EMD decomposition, added one at a time."""
    total = decomposition.residue.copy()
    for imf in decomposition.imfs:
        total += imf
    return total


def energy(x):
    x = np.asarray(x, dtype=float)
    return float(x @ x)


def power_mean_fq(f2, q):
    """Fq by the direct power mean, mean(F2^(q/2))^(1/q); geometric mean at q = 0.

    Overflows or underflows where F2^(q/2) leaves the double range.
    """
    f2 = np.asarray(f2, dtype=float)
    with np.errstate(over="ignore", under="ignore", divide="ignore"):
        if q == 0:
            return float(np.exp(0.5 * np.mean(np.log(f2))))
        return float(np.mean(f2 ** (q / 2.0)) ** (1.0 / q))


def analytic_envelope_weights(x):
    """|analytic signal| from the full complex FFT and an explicit weight vector."""
    x = np.asarray(x, dtype=float)
    n = x.size
    weight = np.zeros(n)
    weight[0] = 1.0
    if n % 2 == 0:
        weight[n // 2] = 1.0
        weight[1 : n // 2] = 2.0
    else:
        weight[1 : (n + 1) // 2] = 2.0
    return np.abs(np.fft.ifft(np.fft.fft(x) * weight))


class SplitMix64:
    """SplitMix64, one scalar draw at a time in Python integers.

    The specification is the one frozen in ``mfsig.series``'s docstring.
    """

    def __init__(self, seed):
        self._state = seed & _MASK64

    def next_u64(self):
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def next_below(self, bound):
        limit = _MASK64 + 1 - ((_MASK64 + 1) % bound)
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound


def splitmix64_seed_with_first_output(r):
    """The seed whose first SplitMix64 output is r, by inverting the mix."""

    def unshift(y, s):
        x = y
        for _ in range(64 // s + 1):
            x = y ^ (x >> s)
        return x

    z = unshift(r, 31)
    z = unshift(z * pow(0x94D049BB133111EB, -1, 1 << 64) & _MASK64, 27)
    z = unshift(z * pow(0xBF58476D1CE4E5B9, -1, 1 << 64) & _MASK64, 30)
    return (z - 0x9E3779B97F4A7C15) & _MASK64


def fisher_yates_loop(n, seed):
    """Permutation of range(n): for i = n-1 .. 1, swap i with a draw below i + 1."""
    rng = SplitMix64(seed)
    idx = list(range(n))
    for i in range(n - 1, 0, -1):
        j = rng.next_below(i + 1)
        idx[i], idx[j] = idx[j], idx[i]
    return idx


def swap_loop(targets):
    """range(n) after swapping positions i and targets[i] for i = n-1 .. 1."""
    idx = list(range(len(targets)))
    for i in range(len(targets) - 1, 0, -1):
        j = targets[i]
        idx[i], idx[j] = idx[j], idx[i]
    return idx


# The kernels below are the library's earlier forms, kept as they were:
# the library now does the same arithmetic in fewer passes, so its results
# must equal theirs bit for bit (ln Fq, whose log-sum-exp shift moved,
# within rounding).


def segment_fluctuations_out_of_place(y, s, m, bidirectional=False):
    """F2 (..., k) of the profiles y (..., n) at scale s, order m, with a
    fresh array for the residual and for its square."""
    n = y.shape[-1]
    ns = n // s
    basis = _detrend_basis(s, m)
    rows = y.reshape(math.prod(y.shape[:-1]), n)
    starts = (0, n - ns * s) if bidirectional else (0,)
    f2 = np.empty((len(rows), len(starts), ns))
    block_rows = max(1, _BLOCK_ELEMENTS // max(n, 1))
    block_segments = max(1, _BLOCK_ELEMENTS // s)
    for r in range(0, len(rows), block_rows):
        slab = rows[r : r + block_rows]
        for t, a in enumerate(starts):
            for k in range(0, ns, block_segments):
                kb = min(block_segments, ns - k)
                seg = slab[:, a + k * s : a + (k + kb) * s].reshape(len(slab), kb, s)
                resid = seg - (seg @ basis) @ basis.T
                f2[r : r + block_rows, t, k : k + kb] = np.mean(resid**2, axis=-1)
    return f2.reshape(*y.shape[:-1], len(starts) * ns)


def log_fq_one_scale(f2, q_grid):
    """ln Fq (..., q) of one scale's F2 (..., k), shifted per q by the largest
    term; zero-variance segments excluded; a row without others raises."""
    f2 = np.asarray(f2, dtype=float)
    rows = f2.reshape(-1, f2.shape[-1])
    valid = rows > 0.0
    count = np.count_nonzero(valid, axis=-1)
    if np.any(count == 0):
        raise AnalysisError("all segments have zero residual variance")
    ln_f2 = np.log(rows, out=np.full(rows.shape, -np.inf), where=valid)
    ln_f2_neg_q = np.where(valid, ln_f2, np.inf)
    q_grid = np.asarray(q_grid, dtype=float)
    out = np.empty((q_grid.size, rows.shape[0]))
    out[:] = 0.5 * (np.sum(np.where(valid, ln_f2, 0.0), axis=-1) / count)
    log_count = np.log(count)
    block = max(1, _BLOCK_ELEMENTS // rows.size)
    for ln, sel in ((ln_f2_neg_q, q_grid < 0.0), (ln_f2, q_grid > 0.0)):
        qs = np.flatnonzero(sel)
        for start in range(0, qs.size, block):
            idx = qs[start : start + block]
            terms = 0.5 * q_grid[idx, np.newaxis, np.newaxis] * ln
            peak = terms.max(axis=-1, keepdims=True)
            lse = peak[..., 0] + np.log(np.sum(np.exp(terms - peak), axis=-1))
            out[idx] = (lse - log_count) / q_grid[idx, np.newaxis]
    return out.T.reshape(*f2.shape[:-1], q_grid.size)


def log_fq_scale_by_scale(f2_per_scale, scales, q_grid):
    """ln Fq (rows, q, scales), one log_fq_one_scale call per scale's F2
    (rows, k); the first failing scale's error is prefixed with the scale."""
    columns = []
    for s, f2 in zip(scales, f2_per_scale):
        try:
            columns.append(log_fq_one_scale(f2, q_grid))
        except AnalysisError as exc:
            exc.args = (f"scale {s}: {exc}",)
            raise
    return np.stack(columns, axis=-1)


def polyvander_basis(s, m):
    """The detrending basis at scale s, order m, from numpy.polynomial's
    Vandermonde matrix."""
    basis, _ = np.linalg.qr(np.polynomial.polynomial.polyvander(np.linspace(-1.0, 1.0, s), m))
    return basis


def unique_default_scales(n):
    """The default scales of a length-n series, np.unique dropping the
    repeats of the rounded grid."""
    grid = np.geomspace(DEFAULT_MIN_SCALE, n // 4, DEFAULT_N_SCALES)
    return np.unique(np.round(grid).astype(int))


def synthesis_step_four_wide(approx, detail):
    """One periodized synthesis level: each coefficient's four taps in one
    (..., k, 4) array, the later two rolled onto the next sample pair."""
    contrib = approx[..., None] * DEC_LO + detail[..., None] * DEC_HI
    pairs = contrib[..., :2] + np.roll(contrib[..., 2:], 1, axis=-2)
    return pairs.reshape(*pairs.shape[:-2], -1)


def dwt_rhythm_rows_per_level(windows, fs):
    """The DWT rhythm rows (..., 3, n) of windows (..., n), sorted by rhythm:
    a decomposition to each rhythm's own level, rebuilt from that level's
    details alone through every level below it."""
    n = windows.shape[-1]
    max_level = int(math.floor(math.log2(n))) - 2
    rows = []
    for name in sorted(RHYTHMS):
        band = RHYTHMS[name]
        level = dyadic_level_for_band(fs, band.low_hz, band.high_hz, max_level)
        coeffs = dwt(windows, level)
        x = np.zeros_like(coeffs.approx)
        for lvl in range(level, 0, -1):
            detail = coeffs.details[lvl - 1]
            x = synthesis_step_four_wide(x, detail if lvl == level else np.zeros_like(detail))
        rows.append(x[..., :n])
    return np.stack(rows, axis=-2)


def natural_spline_searchsorted(t, y, n):
    """Values at 0..n-1 of the natural cubic spline through (t, y), t spanning
    [0, n - 1]: second derivatives by parallel cyclic reduction, then each
    sample's knot interval found by searchsorted and its cubic's terms
    gathered per sample."""
    h = np.diff(t)
    slope = np.diff(y) / h
    lower, diag, upper = h[:-1].copy(), 2.0 * (h[:-1] + h[1:]), h[1:].copy()
    rhs = 6.0 * np.diff(slope)
    s = 1
    while s < diag.size:
        k_lo, k_hi = lower[s:] / diag[:-s], upper[:-s] / diag[s:]
        diag[s:] -= k_lo * upper[:-s]
        diag[:-s] -= k_hi * lower[s:]
        old = rhs.copy()
        rhs[s:] -= k_lo * old[:-s]
        rhs[:-s] -= k_hi * old[s:]
        lower[s:] = -k_lo * lower[:-s]
        upper[:-s] = -k_hi * upper[s:]
        s *= 2
    m2 = np.concatenate([[0.0], rhs / diag, [0.0]])
    x = np.arange(n, dtype=float)
    j = np.clip(np.searchsorted(t, x, side="right") - 1, 0, t.size - 2)
    dx = x - t[j]
    lo, hi = m2[j], m2[j + 1]
    curve = (0.5 * lo + (hi - lo) / (6.0 * h[j]) * dx) * dx
    return y[j] + (slope[j] - h[j] * (2.0 * lo + hi) / 6.0 + curve) * dx
