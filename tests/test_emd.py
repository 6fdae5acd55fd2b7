import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfsig.emd import emd, emd_denoise, local_extrema
from mfsig.errors import AnalysisError
from mfsig.series import TimeSeries
from mfsig.synth import tone, white_noise

from oracles import imf_sum, local_extrema_loop

FS = 256.0


def rel_rms(a, b):
    return float(np.sqrt(np.mean((a - b) ** 2)) / np.sqrt(np.mean(b**2)))


class TestLocalExtrema:
    def test_simple_peak(self):
        maxima, minima = local_extrema(np.array([0.0, 1.0, 0.0, -1.0, 0.0]))
        assert maxima.tolist() == [1]
        assert minima.tolist() == [3]

    def test_plateau_midpoint(self):
        maxima, _ = local_extrema(np.array([0.0, 1.0, 1.0, 1.0, 0.0]))
        assert maxima.tolist() == [2]

    def test_monotonic_has_none(self):
        maxima, minima = local_extrema(np.arange(10.0))
        assert maxima.size == 0 and minima.size == 0

    @pytest.mark.parametrize(
        "x",
        [
            white_noise(5120, seed=7).samples,
            np.round(2.0 * white_noise(5120, seed=8).samples),  # plateaus
            np.repeat([0.0, 1.0, 0.0, 2.0], 50),  # steps
            np.full(64, 3.0),
            np.array([1.0, 2.0]),
        ],
        ids=["white", "rounded", "step", "constant", "two_samples"],
    )
    def test_matches_loop_oracle(self, x):
        for mine, ref in zip(local_extrema(x), local_extrema_loop(x)):
            assert mine.dtype == ref.dtype
            np.testing.assert_array_equal(mine, ref)


class TestEmd:
    def test_monotonic_ramp_gives_no_imfs(self):
        ts = TimeSeries(np.linspace(0, 5, 128), FS)
        result = emd(ts)
        assert result.n_imfs == 0
        np.testing.assert_array_equal(result.residue.samples, ts.samples)

    def test_two_tone_separation(self):
        t = np.arange(int(8 * FS)) / FS
        slow = np.sin(2 * np.pi * 2.0 * t)
        fast = np.sin(2 * np.pi * 40.0 * t)
        result = emd(TimeSeries(slow + fast, FS))
        corr_fast = np.corrcoef(result.imfs[0].samples, fast)[0, 1]
        assert corr_fast >= 0.95
        assert any(
            np.corrcoef(imf.samples, slow)[0, 1] >= 0.95 for imf in result.imfs
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_completeness(self, seed):
        ts = white_noise(1024, seed=seed, sample_rate_hz=FS)
        result = emd(ts)
        assert rel_rms(imf_sum(result), ts.samples) <= 1e-10

    def test_completeness_on_tones(self):
        ts = tone(5, FS, 4.0)
        result = emd(ts)
        assert rel_rms(imf_sum(result), ts.samples) <= 1e-10

    def test_too_short(self):
        with pytest.raises(AnalysisError, match="EMD needs >= 64 samples"):
            emd(TimeSeries(np.sin(np.arange(32.0)), FS))

    def test_first_imf_is_near_proper_mode(self):
        t = np.arange(int(8 * FS)) / FS
        ts = TimeSeries(np.sin(2 * np.pi * 2.0 * t) + np.sin(2 * np.pi * 40.0 * t), FS)
        x = emd(ts).imfs[0].samples
        maxima, minima = local_extrema(x)
        n_cross = np.count_nonzero(np.diff(np.sign(x[x != 0])) != 0)
        assert abs(maxima.size + minima.size - n_cross) <= 1


class TestEmdDenoise:
    @given(st.integers(0, 2**16), st.integers(-900, 900))
    @settings(max_examples=20, deadline=None)
    def test_commutes_with_power_of_two_scaling(self, seed, k):
        # sifting runs on the input rescaled exactly, so scaling commutes bit for bit
        ts = white_noise(512, seed=seed, sample_rate_hz=FS)
        scaled = emd_denoise(ts.with_samples(np.ldexp(ts.samples, k)), drop_imfs=[1, 2])
        np.testing.assert_array_equal(
            scaled.samples, np.ldexp(emd_denoise(ts, drop_imfs=[1, 2]).samples, k)
        )

    def test_mode_past_the_float_limit_is_an_error(self):
        # at max |x| = 1.7e308 the fastest IMF of this series overshoots the float range
        x = white_noise(512, seed=3, sample_rate_hz=FS).samples
        ts = TimeSeries(x / np.abs(x).max() * 1.7e308, FS)
        message = "^EMD overflowed: the input's samples are too large$"
        with pytest.raises(AnalysisError, match=message):
            emd_denoise(ts, drop_imfs=[1])

    def test_drop_nothing_is_identity(self):
        ts = white_noise(512, seed=3, sample_rate_hz=FS)
        out = emd_denoise(ts, drop_imfs=[])
        np.testing.assert_array_equal(out.samples, ts.samples)

    def test_drop_all_leaves_residue(self):
        t = np.arange(int(4 * FS)) / FS
        ts = TimeSeries(np.sin(2 * np.pi * 3 * t) + 0.01 * t, FS)
        decomposition = emd(ts)
        out = emd_denoise(ts, drop_imfs=list(range(1, decomposition.n_imfs + 1)))
        np.testing.assert_allclose(out.samples, decomposition.residue.samples, atol=1e-10)

    def test_bad_index(self):
        ts = white_noise(512, seed=4, sample_rate_hz=FS)
        for index in (0, 99):
            with pytest.raises(AnalysisError, match=f"IMF index {index} "):
                emd_denoise(ts, drop_imfs=[index])

    def test_stopping_at_dropped_imf_matches_full_decomposition(self):
        ts = white_noise(2048, seed=5, sample_rate_hz=FS)
        full = emd(ts)
        assert full.n_imfs > 1
        out = emd_denoise(ts, drop_imfs=[1])
        np.testing.assert_array_equal(out.samples, ts.samples - full.imfs[0].samples)

    def test_denoising_gain_on_jittered_sine(self):
        # Gain threshold frozen from an oracle run of this exact fixture:
        # dropping the fastest mode cut the RMS error 2.67x.
        t = np.arange(int(8 * FS)) / FS
        clean = np.sin(2 * np.pi * 2.0 * t)
        rng = np.random.default_rng(11)
        jitter = 0.05 * np.sin(2 * np.pi * 90.0 * t + 0.3) + 0.02 * rng.standard_normal(t.size)
        noisy = TimeSeries(clean + jitter, FS)
        denoised = emd_denoise(noisy, drop_imfs=[1])
        err_in = np.sqrt(np.mean((noisy.samples - clean) ** 2))
        err_out = np.sqrt(np.mean((denoised.samples - clean) ** 2))
        assert err_out <= 0.6 * err_in

    def test_dropping_imf_1_removes_fastest(self):
        t = np.arange(int(8 * FS)) / FS
        slow = np.sin(2 * np.pi * 2.0 * t)
        ts = TimeSeries(slow + 0.1 * np.sin(2 * np.pi * 60.0 * t), FS)
        out = emd_denoise(ts, drop_imfs=[1])
        assert np.sqrt(np.mean((out.samples - slow) ** 2)) <= 0.01
