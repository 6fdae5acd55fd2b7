import numpy as np
import pytest

from mfsig.bands import (
    RHYTHMS,
    STIMULUS_BANDS,
    SUB_BAND_FLOOR,
    BandSpec,
    envelope,
    extract_rhythm,
    fft_bandpass,
    normalize,
    rms,
    split_bands,
)
from mfsig.errors import BandOutOfRangeError, SampleRateTooLowError, SilentInputError
from mfsig.series import TimeSeries
from mfsig.synth import tone, white_noise

from oracles import energy

BAND2 = STIMULUS_BANDS[1]

FS_AUDIO = 44100.0
# quarter-second clips hold whole cycles of all test tones, so no leakage
DUR = 0.25


class TestFftBandpass:
    def test_tone_inside_passband(self):
        ts = tone(1500, FS_AUDIO, DUR)
        out = fft_bandpass(ts, BAND2)
        assert energy(out.samples) >= 0.99 * energy(ts.samples)

    def test_tone_outside_rejected(self):
        ts = tone(500, FS_AUDIO, DUR)
        out = fft_bandpass(ts, BAND2)
        assert energy(out.samples) <= 1e-6 * energy(ts.samples)

    def test_mixture_keeps_only_inband_energy(self):
        mix = tone(500, FS_AUDIO, DUR).samples + tone(1500, FS_AUDIO, DUR).samples
        out = fft_bandpass(TimeSeries(mix, FS_AUDIO), BAND2)
        alone = energy(tone(1500, FS_AUDIO, DUR).samples)
        assert energy(out.samples) == pytest.approx(alone, rel=0.01)

    def test_output_real_same_length(self):
        ts = white_noise(1000, seed=1, sample_rate_hz=FS_AUDIO)
        out = fft_bandpass(ts, BAND2)
        assert out.samples.dtype == np.float64
        assert len(out) == len(ts)

    def test_band_above_nyquist_rejected(self):
        ts = white_noise(1000, seed=1, sample_rate_hz=100.0)
        with pytest.raises(BandOutOfRangeError):
            fft_bandpass(ts, BandSpec(10.0, 60.0, "too_high"))

    def test_idempotent(self):
        ts = white_noise(2048, seed=2, sample_rate_hz=FS_AUDIO)
        once = fft_bandpass(ts, BAND2)
        twice = fft_bandpass(once, BAND2)
        np.testing.assert_allclose(twice.samples, once.samples, atol=1e-12)

    def test_linear(self):
        x = white_noise(2048, seed=3, sample_rate_hz=FS_AUDIO)
        y = white_noise(2048, seed=4, sample_rate_hz=FS_AUDIO)
        a, b = 2.5, -1.25
        combined = fft_bandpass(x.with_samples(a * x.samples + b * y.samples), BAND2)
        separate = a * fft_bandpass(x, BAND2).samples + b * fft_bandpass(y, BAND2).samples
        np.testing.assert_allclose(combined.samples, separate, atol=1e-12)


class TestSplitBands:
    def test_white_noise_energy_proportional_to_bandwidth(self):
        ts = white_noise(2**17, seed=5, sample_rate_hz=FS_AUDIO)
        bands = split_bands(ts)
        total = energy(ts.samples)
        nyquist = FS_AUDIO / 2
        for spec in STIMULUS_BANDS:
            high = spec.high_hz if spec.high_hz is not None else nyquist
            expected = (high - spec.low_hz) / nyquist
            share = energy(bands[spec.name].samples) / total
            assert share == pytest.approx(expected, rel=0.05)

    def test_pure_tone_lands_in_band3(self):
        ts = tone(2500, FS_AUDIO, DUR)
        bands = split_bands(ts)
        total = energy(ts.samples)
        assert energy(bands["band3"].samples) >= 0.99 * total
        for name in ("band1", "band2", "band4", "band5"):
            assert energy(bands[name].samples) <= 1e-6 * total

    def test_sub50_content_in_no_band(self):
        # half-second clip: whole cycles of the 10 Hz tone, leakage-free
        t = np.arange(int(FS_AUDIO * 0.5)) / FS_AUDIO
        ts = TimeSeries(0.5 + np.sin(2 * np.pi * 10 * t), FS_AUDIO)
        bands = split_bands(ts)
        for name, band_ts in bands.items():
            assert energy(band_ts.samples) <= 1e-6 * energy(ts.samples)

    def test_low_sample_rate_rejected(self):
        ts = white_noise(4096, seed=6, sample_rate_hz=8000.0)
        with pytest.raises(SampleRateTooLowError):
            split_bands(ts)

    def test_parseval_partition(self):
        ts = white_noise(2**16, seed=7, sample_rate_hz=FS_AUDIO)
        total = energy(ts.samples)
        parts = [energy(b.samples) for b in split_bands(ts).values()]
        parts.append(energy(fft_bandpass(ts, SUB_BAND_FLOOR).samples))
        assert sum(parts) == pytest.approx(total, rel=1e-6)


class TestTaperedTransition:
    def test_tone_well_inside_band_unaffected(self):
        ts = tone(1500, FS_AUDIO, DUR)
        out = fft_bandpass(ts, BAND2, transition_hz=200.0)
        assert energy(out.samples) == pytest.approx(energy(ts.samples), rel=1e-6)

    def test_edge_tone_is_half_power(self):
        ts = tone(1000, FS_AUDIO, DUR)  # exactly on the band edge
        out = fft_bandpass(ts, BAND2, transition_hz=200.0)
        # raised cosine passes amplitude 1/2 at the edge center
        assert energy(out.samples) == pytest.approx(0.25 * energy(ts.samples), rel=1e-3)

    def test_far_out_tone_still_rejected(self):
        ts = tone(500, FS_AUDIO, DUR)
        out = fft_bandpass(ts, BAND2, transition_hz=200.0)
        assert energy(out.samples) <= 1e-6 * energy(ts.samples)

    def test_zero_width_is_brick_wall(self):
        ts = white_noise(2048, seed=13, sample_rate_hz=FS_AUDIO)
        np.testing.assert_array_equal(
            fft_bandpass(ts, BAND2, transition_hz=0.0).samples,
            fft_bandpass(ts, BAND2).samples,
        )


class TestExtractRhythm:
    def test_alpha_passes_10hz(self):
        ts = tone(10, 256, 8)
        assert energy(extract_rhythm(ts, "alpha").samples) >= 0.99 * energy(ts.samples)
        assert energy(extract_rhythm(ts, "theta").samples) <= 1e-6 * energy(ts.samples)

    def test_theta_passes_6hz(self):
        ts = tone(6, 256, 8)
        assert energy(extract_rhythm(ts, "theta").samples) >= 0.99 * energy(ts.samples)
        assert energy(extract_rhythm(ts, "alpha").samples) <= 1e-6 * energy(ts.samples)

    def test_alpha_share_of_white_noise(self):
        ts = white_noise(2**16, seed=8, sample_rate_hz=256.0)
        share = energy(extract_rhythm(ts, "alpha").samples) / energy(ts.samples)
        assert share == pytest.approx(5.0 / 128.0, rel=0.10)

    def test_dwt_method_returns_band_limited_signal(self):
        ts = white_noise(4096, seed=9, sample_rate_hz=256.0)
        out = extract_rhythm(ts, "alpha", method="dwt")
        assert len(out) == len(ts)
        # dyadic approximation targets the 8-16 Hz subband; the short
        # filter leaks into neighboring octaves but not far beyond
        spec = np.abs(np.fft.rfft(out.samples)) ** 2
        freqs = np.fft.rfftfreq(len(out), 1 / 256.0)
        assert spec[(freqs >= 4.0) & (freqs <= 32.0)].sum() / spec.sum() >= 0.9
        assert 8.0 <= freqs[np.argmax(spec)] <= 16.0

    def test_rhythm_band_definitions(self):
        assert (RHYTHMS["alpha"].low_hz, RHYTHMS["alpha"].high_hz) == (8.0, 13.0)
        assert (RHYTHMS["theta"].low_hz, RHYTHMS["theta"].high_hz) == (4.0, 7.0)
        assert (RHYTHMS["gamma"].low_hz, RHYTHMS["gamma"].high_hz) == (13.0, 30.0)


class TestEnvelope:
    def test_unit_tone_envelope_is_one(self):
        ts = tone(10, 256, 8)
        env = envelope(ts)
        k = int(0.02 * len(ts))
        assert np.abs(env.samples[k:-k] - 1.0).max() <= 0.02
        assert np.all(env.samples >= 0)

    def test_am_tone_recovers_modulator(self):
        fs = 256.0
        t = np.arange(int(8 * fs)) / fs
        modulator = 1.0 + 0.5 * np.cos(2 * np.pi * 1.0 * t)
        ts = TimeSeries(modulator * np.sin(2 * np.pi * 10.0 * t), fs)
        env = envelope(ts)
        k = int(0.02 * len(ts))
        err = np.sqrt(np.mean((env.samples[k:-k] - modulator[k:-k]) ** 2))
        assert err <= 0.03

    def test_zero_signal(self):
        env = envelope(TimeSeries(np.zeros(128), 256.0))
        assert np.all(env.samples == 0)


class TestNormalize:
    def test_scales_to_target(self):
        ts = TimeSeries(np.full(100, 0.5), 100.0)
        out = normalize(ts, 0.1)
        np.testing.assert_allclose(out.samples, 0.1, atol=1e-12)

    def test_identity_at_target(self):
        ts = white_noise(512, seed=10)
        out = normalize(ts, rms(ts))
        np.testing.assert_allclose(out.samples, ts.samples, atol=1e-12)

    def test_two_clips_reach_equal_rms(self):
        a = normalize(white_noise(512, seed=11), 0.2)
        b = normalize(white_noise(512, seed=12), 0.2)
        assert rms(a) == pytest.approx(rms(b), abs=1e-9)
        assert rms(a) == pytest.approx(0.2, abs=1e-9)

    def test_silent_input(self):
        with pytest.raises(SilentInputError):
            normalize(TimeSeries(np.zeros(64), 100.0), 0.1)
