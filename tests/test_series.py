import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfsig.errors import EmptySeriesError, NonFiniteError
from mfsig.series import SplitMix64, TimeSeries, permutation, profile, shuffle
from mfsig.synth import white_noise

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def series(values, fs=1.0):
    return TimeSeries(np.asarray(values, dtype=float), fs)


class TestTimeSeries:
    def test_rejects_empty(self):
        with pytest.raises(EmptySeriesError):
            TimeSeries(np.array([]), 1.0)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            TimeSeries(np.ones(4), 0.0)

    def test_duration(self):
        assert series(np.zeros(512), fs=256.0).duration_s == 2.0


class TestProfile:
    def test_constant_series_is_zero(self):
        assert profile(series([1, 1, 1, 1])) == pytest.approx([0, 0, 0, 0])

    def test_alternating(self):
        assert profile(series([1, -1, 1, -1])) == pytest.approx([1, 0, 1, 0])

    def test_last_value_telescopes_to_zero(self):
        ts = white_noise(4096, seed=5)
        prof = profile(ts)
        scale = np.abs(prof).max()
        assert abs(prof[-1]) <= 1e-9 * max(scale, 1.0)

    def test_too_short(self):
        with pytest.raises(EmptySeriesError):
            profile(series([1.0]))

    def test_non_finite(self):
        with pytest.raises(NonFiniteError):
            profile(series([1.0, np.nan, 2.0]))

    @pytest.mark.parametrize("a", [2.0, -1.0])
    def test_linearity(self, a):
        ts = white_noise(500, seed=1)
        scaled = ts.with_samples(a * ts.samples)
        np.testing.assert_allclose(
            profile(scaled), a * profile(ts), atol=1e-9
        )


class TestShuffle:
    def test_length_one_identity(self):
        ts = series([3.5])
        assert shuffle(ts, seed=9).samples == pytest.approx([3.5])

    def test_frozen_seed42_permutation(self):
        # Reference trace computed once from an independent recoding of the
        # SplitMix64 + Fisher-Yates specification and frozen here.
        out = shuffle(series([1, 2, 3, 4, 5]), seed=42)
        assert out.samples.tolist() == [2.0, 3.0, 1.0, 5.0, 4.0]
        assert permutation(5, 42).tolist() == [1, 2, 0, 4, 3]
        assert permutation(8, 7).tolist() == [1, 4, 5, 2, 6, 0, 3, 7]

    def test_frozen_generator_output(self):
        assert SplitMix64(42).next_u64() == 13679457532755275413

    @given(st.lists(finite_floats, min_size=1, max_size=64), st.integers(0, 2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_is_permutation(self, values, seed):
        out = shuffle(series(values), seed)
        assert sorted(out.samples.tolist()) == sorted(float(v) for v in values)

    def test_deterministic(self):
        ts = white_noise(200, seed=4)
        assert np.array_equal(shuffle(ts, 77).samples, shuffle(ts, 77).samples)

    def test_inverse_permutation_recovers_input(self):
        ts = white_noise(300, seed=6)
        perm = permutation(len(ts), seed=13)
        shuffled = shuffle(ts, seed=13)
        np.testing.assert_array_equal(shuffled.samples[np.argsort(perm)], ts.samples)

    def test_preserves_moments_and_profile_endpoint(self):
        ts = white_noise(2048, seed=8)
        shuf = shuffle(ts, seed=1)
        assert np.mean(shuf.samples) == pytest.approx(np.mean(ts.samples))
        assert np.var(shuf.samples) == pytest.approx(np.var(ts.samples))
        assert abs(profile(shuf)[-1]) <= 1e-9 * np.abs(profile(shuf)).max()
