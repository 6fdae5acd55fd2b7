"""Frequency-domain band filtering, rhythm series, loudness.

All filters are brick-wall: FFT bins strictly outside the passband are
zeroed and the signal is inverse-transformed. Bands are half-open
[low, high) so adjacent bands partition the spectrum without double
counting; an open-ended band (high=None) runs to and includes Nyquist.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError
from .wavelet import dwt, dyadic_level_for_band, reconstruct_level


@dataclass(frozen=True)
class BandSpec:
    """Frequency band [low_hz, high_hz); high_hz=None means 'and above'."""

    low_hz: float
    high_hz: float | None
    name: str = ""

    def __post_init__(self):
        if self.low_hz < 0:
            raise ValueError(f"band low edge must be >= 0, got {self.low_hz}")
        if self.high_hz is not None and self.high_hz <= self.low_hz:
            raise ValueError(f"band {self.name}: high edge must exceed low edge")


# Stimulus bands used to split audio clips; band5 is open-ended to Nyquist.
STIMULUS_BANDS = (
    BandSpec(50.0, 1000.0, "band1"),
    BandSpec(1000.0, 2000.0, "band2"),
    BandSpec(2000.0, 3000.0, "band3"),
    BandSpec(3000.0, 4000.0, "band4"),
    BandSpec(4000.0, None, "band5"),
)


# EEG rhythms analyzed per window, keyed by name.
RHYTHMS = {
    "alpha": BandSpec(8.0, 13.0, "alpha"),
    "theta": BandSpec(4.0, 7.0, "theta"),
    "gamma": BandSpec(13.0, 30.0, "gamma"),
}


def _rfft_freqs(n: int, fs: float, bands: list[BandSpec]) -> np.ndarray:
    """The rfft bin frequencies of n samples at fs Hz, once n is checked to be
    long enough to band-pass; a band above Nyquist raises, with its index in
    ``series``."""
    if n < 16:
        raise AnalysisError(f"band-pass needs at least 16 samples, got {n}")
    nyquist = fs / 2.0
    for i, band in enumerate(bands):
        if band.low_hz >= nyquist:
            name = band.name or band.low_hz
            raise AnalysisError(f"band {name} starts at or above Nyquist ({nyquist} Hz)", series=i)
        if band.high_hz is not None and band.high_hz > nyquist:
            name = band.name or band.high_hz
            raise AnalysisError(f"band {name} exceeds Nyquist ({nyquist} Hz)", series=i)
    return np.fft.rfftfreq(n, d=1.0 / fs)


def _passband(freqs: np.ndarray, band: BandSpec) -> np.ndarray:
    """The bins of ``freqs`` inside [low, high)."""
    keep = freqs >= band.low_hz
    if band.high_hz is not None:
        keep &= freqs < band.high_hz
    return keep


def fft_bandpass(
    x: np.ndarray, fs: float, band: BandSpec, transition_hz: float = 0.0
) -> np.ndarray:
    """Band-pass the samples x, taken at fs Hz, in the frequency domain.

    With the default ``transition_hz=0`` this is an exact brick-wall:
    every bin outside [low, high) is zeroed. A positive transition width
    replaces each edge by a raised-cosine ramp of that width (centered on
    the edge), which trades edge exactness for less ringing; meant for
    audio that will be listened to, not for analysis. Output has the
    input's length and is real by construction.
    """
    freqs = _rfft_freqs(len(x), fs, [band])
    spec = np.fft.rfft(x)
    if transition_hz <= 0.0:
        spec[~_passband(freqs, band)] = 0.0
    else:
        spec *= _edge_ramp_up(freqs, band.low_hz, transition_hz)
        if band.high_hz is not None:
            spec *= 1.0 - _edge_ramp_up(freqs, band.high_hz, transition_hz)
    return np.fft.irfft(spec, len(x))


def _edge_ramp_up(freqs: np.ndarray, edge_hz: float, width_hz: float) -> np.ndarray:
    """Raised-cosine 0 -> 1 ramp of the given width centered on the edge."""
    lo, hi = edge_hz - width_hz / 2.0, edge_hz + width_hz / 2.0
    ramp = np.clip((freqs - lo) / (hi - lo), 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * ramp))


def split_bands(audio: np.ndarray, fs: float, transition_hz: float = 0.0) -> dict:
    """Split audio sampled at fs Hz into the five stimulus bands, keyed by band name."""
    if fs < 10_000:
        raise AnalysisError(f"band split needs >= 10 kHz sample rate, got {fs} Hz")
    return {band.name: fft_bandpass(audio, fs, band, transition_hz) for band in STIMULUS_BANDS}


def rhythm_series(windows: np.ndarray, fs: float, method: str, envelope: bool) -> np.ndarray:
    """The rhythm series of windows (..., n) sampled at fs Hz: (..., 3, n), a
    row per rhythm in sorted order.

    ``method="fft"`` masks one rfft of each window at each rhythm's exact
    band edges; ``"dwt"`` rebuilds each rhythm's nearest dyadic wavelet
    subband (at 256 Hz: 8-16 / 4-8 / 16-32 Hz). With ``envelope`` a row is
    the magnitude of the analytic signal. An AnalysisError's ``series`` is
    the first failing row of the flattened (..., 3) grid, or None when every
    row fails; a row that overflows on finite samples near the float limit
    raises one, not a numpy warning.
    """
    bands = [RHYTHMS[name] for name in sorted(RHYTHMS)]
    n = windows.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):
        if method == "fft":
            freqs = _rfft_freqs(n, fs, bands)
            keep = np.stack([_passband(freqs, band) for band in bands])
            spec = np.where(keep, np.fft.rfft(windows)[..., np.newaxis, :], 0.0)
            rows = _analytic_magnitude(spec, n) if envelope else np.fft.irfft(spec, n)
        elif method == "dwt":
            top = int(math.floor(math.log2(n))) - 2
            levels = [dyadic_level_for_band(fs, b.low_hz, b.high_hz, top) for b in bands]
            rows = np.stack([reconstruct_level(dwt(windows, lvl), lvl) for lvl in levels], axis=-2)
            if envelope:
                rows = _analytic_magnitude(np.fft.rfft(rows), n)
        else:
            raise ValueError(f"unknown rhythm extraction method: {method!r}")
    overflowed = ~np.isfinite(rows).all(axis=-1)
    if overflowed.any():
        raise AnalysisError(
            "rhythm filter overflowed: the window's samples are too large",
            series=int(np.argmax(overflowed)),
        )
    return rows


def _analytic_magnitude(spec: np.ndarray, n: int) -> np.ndarray:
    """|analytic signal| of the n-sample rows whose rffts are ``spec`` (Marple
    1999): positive bins doubled in place, DC and Nyquist kept, one ifft."""
    spec[..., 1 : (n + 1) // 2] *= 2.0
    return np.abs(np.fft.ifft(spec, n))


def rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x**2)))


def normalize(audio: np.ndarray, target_rms: float) -> np.ndarray:
    """Scale so the output RMS equals target_rms."""
    if target_rms <= 0:
        raise ValueError("target RMS must be positive")
    level = rms(audio)
    if level == 0.0:
        raise AnalysisError("cannot normalize an all-zero signal")
    return audio * (target_rms / level)
