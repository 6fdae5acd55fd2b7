import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfsig.bands import (
    RHYTHMS,
    STIMULUS_BANDS,
    BandSpec,
    fft_bandpass,
    normalize,
    rhythm_series,
    rms,
    split_bands,
)
from mfsig.errors import AnalysisError
from mfsig.synth import tone, white_noise

from oracles import (
    SUB_BAND_FLOOR,
    analytic_envelope_weights,
    dwt_rhythm_rows_per_level,
    energy,
    envelope,
    extract_rhythm,
)

BAND2 = STIMULUS_BANDS[1]
ROW = {name: i for i, name in enumerate(sorted(RHYTHMS))}


def rhythm(x, name, method="fft", with_envelope=False):
    """One rhythm's row of the rhythm series of a window at 256 Hz."""
    return rhythm_series(x, 256.0, method, with_envelope)[ROW[name]]

FS_AUDIO = 44100.0
# quarter-second clips hold whole cycles of all test tones, so no leakage
DUR = 0.25


class TestFftBandpass:
    def test_tone_inside_passband(self):
        x = tone(1500, FS_AUDIO, DUR)
        assert energy(fft_bandpass(x, FS_AUDIO, BAND2)) >= 0.99 * energy(x)

    def test_tone_outside_rejected(self):
        x = tone(500, FS_AUDIO, DUR)
        assert energy(fft_bandpass(x, FS_AUDIO, BAND2)) <= 1e-6 * energy(x)

    def test_mixture_keeps_only_inband_energy(self):
        mix = tone(500, FS_AUDIO, DUR) + tone(1500, FS_AUDIO, DUR)
        out = fft_bandpass(mix, FS_AUDIO, BAND2)
        alone = energy(tone(1500, FS_AUDIO, DUR))
        assert energy(out) == pytest.approx(alone, rel=0.01)

    def test_output_real_same_length(self):
        x = white_noise(1000, seed=1)
        out = fft_bandpass(x, FS_AUDIO, BAND2)
        assert out.dtype == np.float64
        assert out.shape == x.shape

    def test_band_above_nyquist_rejected(self):
        x = white_noise(1000, seed=1)
        with pytest.raises(AnalysisError, match="exceeds Nyquist"):
            fft_bandpass(x, 100.0, BandSpec(10.0, 60.0, "too_high"))

    def test_idempotent(self):
        once = fft_bandpass(white_noise(2048, seed=2), FS_AUDIO, BAND2)
        twice = fft_bandpass(once, FS_AUDIO, BAND2)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_linear(self):
        x = white_noise(2048, seed=3)
        y = white_noise(2048, seed=4)
        a, b = 2.5, -1.25
        combined = fft_bandpass(a * x + b * y, FS_AUDIO, BAND2)
        separate = a * fft_bandpass(x, FS_AUDIO, BAND2) + b * fft_bandpass(y, FS_AUDIO, BAND2)
        np.testing.assert_allclose(combined, separate, atol=1e-12)


class TestSplitBands:
    def test_white_noise_energy_proportional_to_bandwidth(self):
        x = white_noise(2**17, seed=5)
        bands = split_bands(x, FS_AUDIO)
        total = energy(x)
        nyquist = FS_AUDIO / 2
        for spec in STIMULUS_BANDS:
            high = spec.high_hz if spec.high_hz is not None else nyquist
            expected = (high - spec.low_hz) / nyquist
            share = energy(bands[spec.name]) / total
            assert share == pytest.approx(expected, rel=0.05)

    def test_pure_tone_lands_in_band3(self):
        x = tone(2500, FS_AUDIO, DUR)
        bands = split_bands(x, FS_AUDIO)
        total = energy(x)
        assert energy(bands["band3"]) >= 0.99 * total
        for name in ("band1", "band2", "band4", "band5"):
            assert energy(bands[name]) <= 1e-6 * total

    def test_sub50_content_in_no_band(self):
        # half-second clip: whole cycles of the 10 Hz tone, leakage-free
        t = np.arange(int(FS_AUDIO * 0.5)) / FS_AUDIO
        x = 0.5 + np.sin(2 * np.pi * 10 * t)
        for band in split_bands(x, FS_AUDIO).values():
            assert energy(band) <= 1e-6 * energy(x)

    def test_low_sample_rate_rejected(self):
        with pytest.raises(AnalysisError, match="band split needs >= 10 kHz sample rate"):
            split_bands(white_noise(4096, seed=6), 8000.0)

    def test_parseval_partition(self):
        x = white_noise(2**16, seed=7)
        parts = [energy(b) for b in split_bands(x, FS_AUDIO).values()]
        parts.append(energy(fft_bandpass(x, FS_AUDIO, SUB_BAND_FLOOR)))
        assert sum(parts) == pytest.approx(energy(x), rel=1e-6)


class TestTaperedTransition:
    def test_tone_well_inside_band_unaffected(self):
        x = tone(1500, FS_AUDIO, DUR)
        out = fft_bandpass(x, FS_AUDIO, BAND2, transition_hz=200.0)
        assert energy(out) == pytest.approx(energy(x), rel=1e-6)

    def test_edge_tone_is_half_power(self):
        x = tone(1000, FS_AUDIO, DUR)  # exactly on the band edge
        out = fft_bandpass(x, FS_AUDIO, BAND2, transition_hz=200.0)
        # raised cosine passes amplitude 1/2 at the edge center
        assert energy(out) == pytest.approx(0.25 * energy(x), rel=1e-3)

    def test_far_out_tone_still_rejected(self):
        x = tone(500, FS_AUDIO, DUR)
        out = fft_bandpass(x, FS_AUDIO, BAND2, transition_hz=200.0)
        assert energy(out) <= 1e-6 * energy(x)

    def test_zero_width_is_brick_wall(self):
        x = white_noise(2048, seed=13)
        np.testing.assert_array_equal(
            fft_bandpass(x, FS_AUDIO, BAND2, transition_hz=0.0), fft_bandpass(x, FS_AUDIO, BAND2)
        )


class TestExtractRhythm:
    def test_alpha_passes_10hz(self):
        x = tone(10, 256, 8)
        assert energy(rhythm(x, "alpha")) >= 0.99 * energy(x)
        assert energy(rhythm(x, "theta")) <= 1e-6 * energy(x)

    def test_theta_passes_6hz(self):
        x = tone(6, 256, 8)
        assert energy(rhythm(x, "theta")) >= 0.99 * energy(x)
        assert energy(rhythm(x, "alpha")) <= 1e-6 * energy(x)

    def test_alpha_share_of_white_noise(self):
        x = white_noise(2**16, seed=8)
        share = energy(rhythm(x, "alpha")) / energy(x)
        assert share == pytest.approx(5.0 / 128.0, rel=0.10)

    def test_dwt_method_returns_band_limited_signal(self):
        out = rhythm(white_noise(4096, seed=9), "alpha", method="dwt")
        assert len(out) == 4096
        # dyadic approximation targets the 8-16 Hz subband; the short
        # filter leaks into neighboring octaves but not far beyond
        spec = np.abs(np.fft.rfft(out)) ** 2
        freqs = np.fft.rfftfreq(len(out), 1 / 256.0)
        assert spec[(freqs >= 4.0) & (freqs <= 32.0)].sum() / spec.sum() >= 0.9
        assert 8.0 <= freqs[np.argmax(spec)] <= 16.0

    def test_rhythm_band_definitions(self):
        assert (RHYTHMS["alpha"].low_hz, RHYTHMS["alpha"].high_hz) == (8.0, 13.0)
        assert (RHYTHMS["theta"].low_hz, RHYTHMS["theta"].high_hz) == (4.0, 7.0)
        assert (RHYTHMS["gamma"].low_hz, RHYTHMS["gamma"].high_hz) == (13.0, 30.0)


class TestRhythmSeries:
    @pytest.mark.parametrize(
        "method, n",
        [("fft", 255), ("fft", 5120), ("dwt", 4104), ("dwt", 5120)],
    )
    @pytest.mark.parametrize("with_envelope", [False, True], ids=["band", "envelope"])
    def test_rows_match_one_rhythm_at_a_time(self, method, n, with_envelope):
        # bit for bit, but for the FFT envelope, which skips the band
        # signal's irfft and second rfft and so rounds differently
        x = white_noise(n, seed=n)
        rows = rhythm_series(x, 256.0, method, with_envelope)
        assert rows.shape == (3, n)
        for name, row in zip(sorted(RHYTHMS), rows):
            expected = extract_rhythm(x, 256.0, name, method)
            if with_envelope:
                expected = envelope(expected)
            if method == "fft" and with_envelope:
                tol = 1e-15 * np.abs(expected).max()
                np.testing.assert_allclose(row, expected, rtol=0, atol=tol)
            else:
                np.testing.assert_array_equal(row, expected)

    @given(
        n=st.integers(128, 6000).filter(lambda n: n % 32),
        windows=st.integers(1, 3),
        fs=st.sampled_from([128.0, 256.0, 512.0]),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(n=5120, windows=2, fs=256.0, seed=0)
    @settings(max_examples=40, deadline=None)
    def test_dwt_rows_equal_a_decomposition_per_level(self, n, windows, fs, seed):
        # the rhythms share a decomposition where their levels pad alike; each
        # row is still that of a decomposition to its own level alone
        x = np.random.default_rng(seed).standard_normal((windows, n))
        assert np.array_equal(rhythm_series(x, fs, "dwt", False), dwt_rhythm_rows_per_level(x, fs))

    @pytest.mark.parametrize("method", ["fft", "dwt"])
    def test_overflowing_row_is_named(self, method):
        x = white_noise(2048, seed=14)
        x[0] = 1e308
        with pytest.raises(AnalysisError, match="^rhythm filter overflowed: "):
            rhythm_series(x, 256.0, method, True)

    def test_too_short_window_names_no_row(self):
        message = "^band-pass needs at least 16 samples, got 8$"
        with pytest.raises(AnalysisError, match=message):
            rhythm_series(np.ones(8), 256.0, "fft", True)

    def test_dwt_checks_the_window_as_fft_does(self):
        with pytest.raises(AnalysisError, match="^band-pass needs at least 16 samples, got 8$"):
            rhythm_series(np.ones(8), 256.0, "dwt", True)
        with pytest.raises(AnalysisError, match=r"^band gamma exceeds Nyquist \(20.0 Hz\)$"):
            rhythm_series(white_noise(256, seed=15), 40.0, "dwt", False)

    def test_rhythm_above_nyquist_is_named(self):
        # at 40 Hz the 13-30 Hz gamma band passes Nyquist; alpha and theta do not
        message = r"^band gamma exceeds Nyquist \(20.0 Hz\)$"
        with pytest.raises(AnalysisError, match=message):
            rhythm_series(white_noise(256, seed=15), 40.0, "fft", False)

    @pytest.mark.parametrize("method, n", [("fft", 5120), ("dwt", 4104), ("dwt", 5120)])
    @pytest.mark.parametrize("with_envelope", [False, True], ids=["band", "envelope"])
    def test_stacked_windows_match_one_window_at_a_time(self, method, n, with_envelope):
        windows = np.stack([white_noise(n, seed=seed) for seed in range(4)])
        rows = rhythm_series(windows, 256.0, method, with_envelope)
        assert rows.shape == (4, 3, n)
        for window, window_rows in zip(windows, rows):
            np.testing.assert_array_equal(
                window_rows, rhythm_series(window, 256.0, method, with_envelope)
            )

    @pytest.mark.parametrize("method", ["fft", "dwt"])
    def test_overflowing_row_of_a_stack_is_named_by_its_flat_index(self, method):
        windows = np.stack([white_noise(2048, seed=seed) for seed in range(3)])
        windows[1, 0] = windows[2, 0] = 1e308
        with pytest.raises(AnalysisError, match="^rhythm filter overflowed: "):
            rhythm_series(windows, 256.0, method, True)

    def test_unknown_method(self):
        with pytest.raises(ValueError, match="unknown rhythm extraction method: 'iir'"):
            rhythm_series(white_noise(256, seed=16), 256.0, "iir", False)


class TestEnvelope:
    def test_unit_tone_envelope_is_one(self):
        env = rhythm(tone(10, 256, 8), "alpha", with_envelope=True)
        k = int(0.02 * len(env))
        assert np.abs(env[k:-k] - 1.0).max() <= 0.02
        assert np.all(env >= 0)

    def test_am_tone_recovers_modulator(self):
        # the carrier and both sidebands (9-11 Hz) lie inside the alpha band
        fs = 256.0
        t = np.arange(int(8 * fs)) / fs
        modulator = 1.0 + 0.5 * np.cos(2 * np.pi * 1.0 * t)
        env = rhythm(modulator * np.sin(2 * np.pi * 10.0 * t), "alpha", with_envelope=True)
        k = int(0.02 * len(env))
        err = np.sqrt(np.mean((env[k:-k] - modulator[k:-k]) ** 2))
        assert err <= 0.03

    def test_zero_signal(self):
        for method in ("fft", "dwt"):
            assert np.all(rhythm_series(np.zeros(128), 256.0, method, True) == 0)

    @pytest.mark.parametrize("n", [255, 256])
    def test_matches_full_fft_weight_oracle(self, n):
        x = white_noise(n, seed=n)
        rows = rhythm_series(x, 256.0, "fft", True)
        for name, row in zip(sorted(RHYTHMS), rows):
            band = extract_rhythm(x, 256.0, name)
            tol = 1e-12 * np.abs(band).max()
            np.testing.assert_allclose(row, analytic_envelope_weights(band), rtol=0, atol=tol)


class TestNormalize:
    def test_scales_to_target(self):
        np.testing.assert_allclose(normalize(np.full(100, 0.5), 0.1), 0.1, atol=1e-12)

    def test_identity_at_target(self):
        x = white_noise(512, seed=10)
        np.testing.assert_allclose(normalize(x, rms(x)), x, atol=1e-12)

    def test_two_clips_reach_equal_rms(self):
        a = normalize(white_noise(512, seed=11), 0.2)
        b = normalize(white_noise(512, seed=12), 0.2)
        assert rms(a) == pytest.approx(rms(b), abs=1e-9)
        assert rms(a) == pytest.approx(0.2, abs=1e-9)

    def test_silent_input(self):
        with pytest.raises(AnalysisError, match="cannot normalize an all-zero signal"):
            normalize(np.zeros(64), 0.1)
