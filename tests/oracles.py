"""Independent reference implementations used only to cross-check the
library. Deliberately coded via different routes (explicit loops, normal
equations, polyfit) so agreement is evidence, not tautology; or, like
``extract_rhythm`` and ``envelope``, in the one-at-a-time form that the
library batches. Closed forms the library does not need live here too."""

import math

import numpy as np

from mfsig.bands import RHYTHMS, BandSpec, fft_bandpass
from mfsig.wavelet import dwt, dyadic_level_for_band, reconstruct_level

_MASK64 = (1 << 64) - 1
_LN2 = math.log(2.0)

# The residual below the stimulus bands: with them it partitions the spectrum.
SUB_BAND_FLOOR = BandSpec(0.0, 50.0, "sub50")


def normal_equations_residual_ms(segment, order):
    """Mean squared residual of a polynomial fit via normal equations.

    Centered integer abscissa keeps the normal equations well conditioned;
    the residual itself is invariant to the abscissa shift.
    """
    seg = np.asarray(segment, dtype=float)
    s = seg.size
    t = np.arange(s, dtype=float) - (s - 1) / 2.0
    a = np.vander(t, order + 1)
    coef = np.linalg.solve(a.T @ a, a.T @ seg)
    resid = seg - a @ coef
    return float(np.mean(resid * resid))


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
