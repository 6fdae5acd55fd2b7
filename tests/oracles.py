"""Independent reference implementations used only to cross-check the
library. Deliberately coded via different routes (explicit loops, normal
equations, polyfit) so agreement is evidence, not tautology."""

import numpy as np


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
