"""Frequency-domain band filtering, rhythm extraction, envelope, loudness.

All filters are brick-wall: FFT bins strictly outside the passband are
zeroed and the signal is inverse-transformed. Bands are half-open
[low, high) so adjacent bands partition the spectrum without double
counting; an open-ended band (high=None) runs to and includes Nyquist.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import AnalysisError
from .series import TimeSeries


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

SUB_BAND_FLOOR = BandSpec(0.0, 50.0, "sub50")  # residual below the stimulus bands


# EEG rhythms analyzed per window, keyed by name.
RHYTHMS = {
    "alpha": BandSpec(8.0, 13.0, "alpha"),
    "theta": BandSpec(4.0, 7.0, "theta"),
    "gamma": BandSpec(13.0, 30.0, "gamma"),
}


def fft_bandpass(ts: TimeSeries, band: BandSpec, transition_hz: float = 0.0) -> TimeSeries:
    """Band-pass in the frequency domain.

    With the default ``transition_hz=0`` this is an exact brick-wall:
    every bin outside [low, high) is zeroed. A positive transition width
    replaces each edge by a raised-cosine ramp of that width (centered on
    the edge), which trades edge exactness for less ringing; meant for
    audio that will be listened to, not for analysis. Output has the
    input's length and is real by construction.
    """
    n = len(ts)
    if n < 16:
        raise AnalysisError(f"band-pass needs at least 16 samples, got {n}")
    nyquist = ts.sample_rate_hz / 2.0
    if band.low_hz >= nyquist:
        raise AnalysisError(
            f"band {band.name or band.low_hz} starts at or above Nyquist ({nyquist} Hz)"
        )
    if band.high_hz is not None and band.high_hz > nyquist:
        raise AnalysisError(f"band {band.name or band.high_hz} exceeds Nyquist ({nyquist} Hz)")
    freqs = np.fft.rfftfreq(n, d=1.0 / ts.sample_rate_hz)
    spec = np.fft.rfft(ts.samples)
    if transition_hz <= 0.0:
        keep = freqs >= band.low_hz
        if band.high_hz is not None:
            keep &= freqs < band.high_hz
        spec[~keep] = 0.0
    else:
        spec *= _edge_ramp_up(freqs, band.low_hz, transition_hz)
        if band.high_hz is not None:
            spec *= 1.0 - _edge_ramp_up(freqs, band.high_hz, transition_hz)
    return ts.with_samples(np.fft.irfft(spec, n))


def _edge_ramp_up(freqs: np.ndarray, edge_hz: float, width_hz: float) -> np.ndarray:
    """Raised-cosine 0 -> 1 ramp of the given width centered on the edge."""
    lo, hi = edge_hz - width_hz / 2.0, edge_hz + width_hz / 2.0
    ramp = np.clip((freqs - lo) / (hi - lo), 0.0, 1.0)
    return 0.5 * (1.0 - np.cos(np.pi * ramp))


def split_bands(audio: TimeSeries, transition_hz: float = 0.0) -> dict[str, TimeSeries]:
    """Split audio into the five stimulus bands, keyed by band name."""
    if audio.sample_rate_hz < 10_000:
        raise AnalysisError(
            f"band split needs >= 10 kHz sample rate, got {audio.sample_rate_hz} Hz"
        )
    return {band.name: fft_bandpass(audio, band, transition_hz) for band in STIMULUS_BANDS}


def extract_rhythm(eeg: TimeSeries, name: str, method: str = "fft") -> TimeSeries:
    """Band-limited signal of the named rhythm (a key of RHYTHMS).

    ``method="fft"`` applies the brick-wall filter at the rhythm's exact
    band edges. ``method="dwt"`` reconstructs the nearest dyadic wavelet
    subband instead, which only approximates the edges (at 256 Hz the
    dyadic bands are 8-16 / 4-8 / 16-32 Hz).
    """
    band = RHYTHMS[name]
    if method == "fft":
        return fft_bandpass(eeg, band)
    if method == "dwt":
        from .wavelet import dyadic_subband

        return dyadic_subband(eeg, band)
    raise ValueError(f"unknown rhythm extraction method: {method!r}")


def envelope(ts: TimeSeries) -> TimeSeries:
    """Amplitude envelope: magnitude of the analytic signal.

    Negative frequencies are suppressed in the frequency domain and the
    positive half doubled; the magnitude of the inverse transform is the
    instantaneous amplitude. Non-negative, same length as the input.
    DC and, for even n, the Nyquist bin of the real FFT keep weight 1.
    """
    n = len(ts)
    spec = np.fft.rfft(ts.samples)
    spec[1 : (n + 1) // 2] *= 2.0
    return ts.with_samples(np.abs(np.fft.ifft(spec, n)))


def rms(ts: TimeSeries) -> float:
    return float(np.sqrt(np.mean(ts.samples**2)))


def normalize(audio: TimeSeries, target_rms: float) -> TimeSeries:
    """Scale so the output RMS equals target_rms."""
    if target_rms <= 0:
        raise ValueError("target RMS must be positive")
    level = rms(audio)
    if level == 0.0:
        raise AnalysisError("cannot normalize an all-zero signal")
    return audio.with_samples(audio.samples * (target_rms / level))
