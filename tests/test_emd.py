import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfsig import emd as emd_module
from mfsig.emd import _mirrored_envelope, _natural_spline, emd, emd_denoise, local_extrema
from mfsig.errors import AnalysisError
from mfsig.synth import tone, white_noise

from oracles import (
    imf_sum,
    local_extrema_loop,
    mirrored_knots_loop,
    natural_spline,
    natural_spline_searchsorted,
)

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
            white_noise(5120, seed=7),
            np.round(2.0 * white_noise(5120, seed=8)),  # plateaus
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


@st.composite
def spline_knots(draw):
    """(knots, values, n): strictly increasing integer knots, clustered or
    sparse, that span samples 0..n-1, some of them below 0 or past n - 1 as
    mirrored knots are."""
    m = draw(st.integers(2, 200))
    gaps = draw(st.lists(st.integers(1, 3) | st.integers(20, 400), min_size=m - 1, max_size=m - 1))
    t = np.concatenate([[0], np.cumsum(gaps)])
    first = draw(st.integers(0, int(t[-1]) - 1))
    last = draw(st.integers(first + 1, int(t[-1])))
    values = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(t.size)
    return (t - first).astype(float), values, last - first + 1


class TestNaturalSpline:
    @given(spline_knots())
    @example((np.array([0.0, 9.0]), np.array([1.0, -2.0]), 10))
    @example((np.array([-3.0, 0.0, 3.0]), np.array([1.0, 0.0, 1.0]), 1))
    @example((np.array([-4.0, -1.0, 1.0, 7.0]), np.array([0.5, 2.0, -1.0, 0.5]), 6))
    @settings(max_examples=100, deadline=None)
    def test_matches_dense_solve(self, knots):
        t, y, n = knots
        ref = natural_spline(t, y, np.arange(n))
        assert np.abs(_natural_spline(t, y, n) - ref).max() <= 1e-12 * np.abs(ref).max()

    @given(spline_knots(), st.floats(0.0, 0.99))
    @example((np.array([-3.0, 0.0, 3.0]), np.array([1.0, 0.0, 1.0]), 1), 0.0)
    @example((np.array([-4.0, -1.0, 1.0, 7.0]), np.array([0.5, 2.0, -1.0, 0.5]), 6), 0.5)
    @settings(max_examples=100, deadline=None)
    def test_equals_per_sample_searchsorted_evaluation(self, knots, shift):
        # integer knots as EMD's extrema are, and knots moved off the integers
        # (the ends stay put, so the knots still span the samples)
        t, y, n = knots
        t = np.concatenate([t[:1], t[1:-1] + shift * (np.diff(t[:-1]) > 1), t[-1:]])
        assert np.array_equal(_natural_spline(t, y, n), natural_spline_searchsorted(t, y, n))


@st.composite
def extrema_subsets(draw):
    """(idx, x): sorted unique indices into a window x of n samples, one, two
    or more of them, 0 and n - 1 among them when drawn, as a direct call
    may pass them though ``local_extrema`` never returns them."""
    n = draw(st.integers(4, 300))
    idx = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=min(n, 40), unique=True))
    x = np.random.default_rng(draw(st.integers(0, 2**32))).standard_normal(n)
    return np.array(sorted(idx), dtype=np.intp), x


class TestMirroredEnvelope:
    @given(extrema_subsets())
    @example((np.array([5]), np.arange(10.0)))
    @example((np.array([0, 9]), np.arange(10.0)))
    @example((np.array([0, 1, 8, 9]), np.arange(10.0)))
    @example((np.array([1, 4, 6, 8]), np.arange(10.0)))
    @settings(max_examples=200, deadline=None)
    def test_equals_the_list_and_loop_knots(self, case):
        idx, x = case
        expected = _natural_spline(*mirrored_knots_loop(idx, x), x.size)
        assert np.array_equal(_mirrored_envelope(idx, x), expected)


class TestEmd:
    def test_monotonic_ramp_gives_no_imfs(self):
        x = np.linspace(0, 5, 128)
        result = emd(x)
        assert result.n_imfs == 0
        np.testing.assert_array_equal(result.residue, x)

    def test_two_tone_separation(self):
        t = np.arange(int(8 * FS)) / FS
        slow = np.sin(2 * np.pi * 2.0 * t)
        fast = np.sin(2 * np.pi * 40.0 * t)
        result = emd(slow + fast)
        assert np.corrcoef(result.imfs[0], fast)[0, 1] >= 0.95
        assert any(np.corrcoef(imf, slow)[0, 1] >= 0.95 for imf in result.imfs)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_completeness(self, seed):
        x = white_noise(1024, seed=seed)
        assert rel_rms(imf_sum(emd(x)), x) <= 1e-10

    def test_completeness_on_tones(self):
        x = tone(5, FS, 4.0)
        assert rel_rms(imf_sum(emd(x)), x) <= 1e-10

    def test_too_short(self):
        with pytest.raises(AnalysisError, match="EMD needs >= 64 samples"):
            emd(np.sin(np.arange(32.0)))

    def test_no_imfs_asked_for(self):
        with pytest.raises(ValueError, match="^max_imfs must be >= 1$"):
            emd(white_noise(256, 1), max_imfs=0)

    def test_first_imf_is_near_proper_mode(self):
        t = np.arange(int(8 * FS)) / FS
        x = emd(np.sin(2 * np.pi * 2.0 * t) + np.sin(2 * np.pi * 40.0 * t)).imfs[0]
        maxima, minima = local_extrema(x)
        n_cross = np.count_nonzero(np.diff(np.sign(x[x != 0])) != 0)
        assert abs(maxima.size + minima.size - n_cross) <= 1

    def test_sifting_stops_when_the_candidate_runs_out_of_extrema(self, monkeypatch):
        # a seeded search found this input: its first sifting iteration leaves a
        # candidate with too few extrema to sift again, though the SD test asks for more
        rng = np.random.default_rng(346)
        t = np.linspace(0, 1, 64)
        x = np.sin(rng.uniform(2, 6) * np.pi * t) + 0.05 * rng.standard_normal(64) * t**4
        x = x + 5 * rng.uniform(-1, 1) * t**2
        calls = []
        original = emd_module._mirrored_envelope

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(emd_module, "_mirrored_envelope", counted)
        result = emd(x, max_imfs=1)
        assert len(calls) == 2  # one sifting iteration, two envelopes
        maxima, minima = local_extrema(result.imfs[0])
        assert maxima.size < 2 or minima.size < 2
        np.testing.assert_allclose(result.imfs[0] + result.residue, x, rtol=0, atol=1e-12)


class TestEmdDenoise:
    @given(st.integers(0, 2**16), st.integers(-900, 900))
    @settings(max_examples=20, deadline=None)
    def test_commutes_with_power_of_two_scaling(self, seed, k):
        # sifting runs on the input rescaled exactly, so scaling commutes bit for bit
        x = white_noise(512, seed=seed)
        scaled = emd_denoise(np.ldexp(x, k), drop_imfs=[1, 2])
        np.testing.assert_array_equal(scaled, np.ldexp(emd_denoise(x, drop_imfs=[1, 2]), k))

    def test_mode_past_the_float_limit_is_an_error(self):
        # at max |x| = 1.7e308 the fastest IMF of this series overshoots the float range
        x = white_noise(512, seed=3)
        message = "^EMD overflowed: the input's samples are too large$"
        with pytest.raises(AnalysisError, match=message):
            emd_denoise(x / np.abs(x).max() * 1.7e308, drop_imfs=[1])

    def test_drop_nothing_is_identity(self):
        x = white_noise(512, seed=3)
        np.testing.assert_array_equal(emd_denoise(x, drop_imfs=[]), x)

    def test_drop_all_leaves_residue(self):
        t = np.arange(int(4 * FS)) / FS
        x = np.sin(2 * np.pi * 3 * t) + 0.01 * t
        decomposition = emd(x)
        out = emd_denoise(x, drop_imfs=list(range(1, decomposition.n_imfs + 1)))
        np.testing.assert_allclose(out, decomposition.residue, atol=1e-10)

    def test_bad_index(self):
        x = white_noise(512, seed=4)
        for index in (0, 99):
            with pytest.raises(AnalysisError, match=f"IMF index {index} "):
                emd_denoise(x, drop_imfs=[index])

    def test_stopping_at_dropped_imf_matches_full_decomposition(self):
        x = white_noise(2048, seed=5)
        full = emd(x)
        assert full.n_imfs > 1
        np.testing.assert_array_equal(emd_denoise(x, drop_imfs=[1]), x - full.imfs[0])

    def test_one_extrema_search_per_sifting_iteration(self, monkeypatch):
        # emd's own search, which decides whether to sift, serves the first
        # iteration; each later iteration searches its candidate once
        calls = {"local_extrema": 0, "_mirrored_envelope": 0}

        def counted(name):
            original = getattr(emd_module, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(emd_module, name, wrapper)

        counted("local_extrema")
        counted("_mirrored_envelope")
        emd_denoise(white_noise(5120, seed=7), drop_imfs=[1])
        iterations = calls["_mirrored_envelope"] // 2  # two envelopes each
        assert iterations >= 2
        assert calls["local_extrema"] == iterations

    def test_denoising_gain_on_jittered_sine(self):
        # Gain threshold frozen from an oracle run of this exact fixture:
        # dropping the fastest mode cut the RMS error 2.67x.
        t = np.arange(int(8 * FS)) / FS
        clean = np.sin(2 * np.pi * 2.0 * t)
        rng = np.random.default_rng(11)
        jitter = 0.05 * np.sin(2 * np.pi * 90.0 * t + 0.3) + 0.02 * rng.standard_normal(t.size)
        noisy = clean + jitter
        denoised = emd_denoise(noisy, drop_imfs=[1])
        err_in = np.sqrt(np.mean((noisy - clean) ** 2))
        err_out = np.sqrt(np.mean((denoised - clean) ** 2))
        assert err_out <= 0.6 * err_in

    def test_dropping_imf_1_removes_fastest(self):
        t = np.arange(int(8 * FS)) / FS
        slow = np.sin(2 * np.pi * 2.0 * t)
        out = emd_denoise(slow + 0.1 * np.sin(2 * np.pi * 60.0 * t), drop_imfs=[1])
        assert np.sqrt(np.mean((out - slow) ** 2)) <= 0.01
