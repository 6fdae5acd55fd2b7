import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mfsig import series
from mfsig.errors import AnalysisError
from mfsig.series import _apply_swaps, _draws_below, _splitmix64, permutation, profile, shuffle
from mfsig.synth import white_noise

from memory import transient_peak
from oracles import SplitMix64, fisher_yates_loop, splitmix64_seed_with_first_output, swap_loop

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)

# swap targets 0 <= j[i] <= i of up to 300 steps
swap_targets = st.integers(0, 300).flatmap(
    lambda n: st.tuples(*(st.integers(0, i) for i in range(n)))
)


class TestProfile:
    def test_constant_series_is_zero(self):
        assert profile(np.ones(4)) == pytest.approx([0, 0, 0, 0])

    def test_alternating(self):
        assert profile(np.array([1.0, -1.0, 1.0, -1.0])) == pytest.approx([1, 0, 1, 0])

    def test_last_value_telescopes_to_zero(self):
        prof = profile(white_noise(4096, seed=5))
        scale = np.abs(prof).max()
        assert abs(prof[-1]) <= 1e-9 * max(scale, 1.0)

    def test_too_short(self):
        with pytest.raises(AnalysisError, match="profile needs at least 2 samples"):
            profile(np.array([1.0]))

    def test_non_finite(self):
        with pytest.raises(AnalysisError, match="non-finite value at index 1"):
            profile(np.array([1.0, np.nan, 2.0]))

    @pytest.mark.parametrize("a", [2.0, -1.0])
    def test_linearity(self, a):
        x = white_noise(500, seed=1)
        np.testing.assert_allclose(profile(a * x), a * profile(x), atol=1e-9)


class TestShuffle:
    def test_length_one_identity(self):
        assert shuffle(np.array([3.5]), seed=9).tolist() == [3.5]

    def test_frozen_seed42_permutation(self):
        # Reference trace computed once from an independent recoding of the
        # SplitMix64 + Fisher-Yates specification and frozen here.
        out = shuffle(np.array([1.0, 2.0, 3.0, 4.0, 5.0]), seed=42)
        assert out.tolist() == [2.0, 3.0, 1.0, 5.0, 4.0]
        assert permutation(5, 42).tolist() == [1, 2, 0, 4, 3]
        assert permutation(8, 7).tolist() == [1, 4, 5, 2, 6, 0, 3, 7]

    def test_frozen_generator_output(self):
        assert SplitMix64(42).next_u64() == 13679457532755275413
        assert _splitmix64(42, 0, 1).tolist() == [13679457532755275413]

    @staticmethod
    def rejecting_bounds():
        # near 2^63 about half the draws are rejected, so the stream shifts
        offsets = np.random.default_rng(11).integers(-(2**40), 2**40, size=300)
        return [2**63 + int(d) for d in offsets] + [1, 2, 2**63, 2**63 + 1, 2**64 - 1]

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, -3])
    def test_draws_below_match_scalar_oracle(self, seed):
        bounds = self.rejecting_bounds()
        rng = SplitMix64(seed)
        expected = [rng.next_below(b) for b in bounds]
        bounds = np.array(bounds, dtype=np.uint64)
        draws = _draws_below(seed, bounds)
        assert draws.tolist() == expected
        unrejected = _splitmix64(seed, 0, bounds.size) % bounds
        assert (draws != unrejected).sum() > 100

    @pytest.mark.parametrize("block", [4, 7])
    @pytest.mark.parametrize("seed", [0, 2**64 - 1, -3])
    def test_draws_across_block_edges(self, monkeypatch, block, seed):
        # Near 2^63 blocks end on a rejection; permutation(1000)'s bounds are
        # at most 1000, so none is rejected and every block ends unrejected.
        monkeypatch.setattr(series, "_DRAW_BLOCK", block)
        bounds = self.rejecting_bounds()
        rng = SplitMix64(seed)
        expected = [rng.next_below(b) for b in bounds]
        assert _draws_below(seed, np.array(bounds, dtype=np.uint64)).tolist() == expected
        assert permutation(1000, seed).tolist() == fisher_yates_loop(1000, seed)

    @pytest.mark.parametrize("bound", [3, 2**63 + 1, 2**64 - 1])
    @pytest.mark.parametrize("past_limit", [0, 1], ids=["highest_accepted", "lowest_rejected"])
    def test_draw_at_the_rejection_limit(self, bound, past_limit):
        first = 2**64 - 1 - 2**64 % bound + past_limit
        seed = splitmix64_seed_with_first_output(first)
        assert SplitMix64(seed).next_u64() == first
        draws = _draws_below(seed, np.array([bound, bound], dtype=np.uint64))
        rng = SplitMix64(seed)
        assert draws.tolist() == [rng.next_below(bound), rng.next_below(bound)]

    @given(st.integers(0, 300), st.integers(-(2**63), 2**64 - 1))
    @settings(max_examples=60, deadline=None)
    def test_permutation_matches_scalar_oracle(self, n, seed):
        assert permutation(n, seed).tolist() == fisher_yates_loop(n, seed)

    @pytest.mark.parametrize("seed", [1000, 1001, 1002])
    def test_full_size_permutation_matches_scalar_oracle(self, seed):
        # the surrogate seeds of the series benchmark at its length, 2^18
        assert permutation(2**18, seed).tolist() == fisher_yates_loop(2**18, seed)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_64_bit_indices_give_the_same_permutation(self, monkeypatch, seed):
        # the indices turn 64-bit from n = 2^31, too large for a test to run
        monkeypatch.setattr(series, "_index_dtype", lambda n: np.int64)
        assert permutation(1000, seed).tolist() == fisher_yates_loop(1000, seed)

    def test_full_size_permutation_memory(self):
        # the returned permutation is 8n of the 5 * 8n bytes
        n = 2**18
        perm, peak = transient_peak(lambda: permutation(n, 1000))
        assert perm.size == n
        assert peak <= 5 * 8 * n

    def test_permutation_too_large_for_its_sort_key(self):
        # the smallest n with n * n >= 2^63; refused before anything is allocated
        with pytest.raises(ValueError, match=r"n \* n < 2\^63 .*got n = 3037000500"):
            permutation(3_037_000_500, 0)

    @pytest.mark.parametrize(
        "target",
        [lambda i: max(i - 1, 0), lambda i: 0, lambda i: i, lambda i: i // 2],
        ids=["previous", "zero", "self", "half"],
    )
    def test_swaps_resolve_deep_chains(self, target):
        # "previous" chains every position through all 5000 steps
        j = [target(i) for i in range(5000)]
        assert _apply_swaps(np.array(j)).tolist() == swap_loop(j)

    @given(swap_targets)
    @settings(max_examples=100, deadline=None)
    def test_swaps_match_swap_loop(self, j):
        assert _apply_swaps(np.array(j, dtype=np.int64)).tolist() == swap_loop(j)

    @pytest.mark.parametrize("n", [0, 1, 17])
    def test_permutation_dtype_is_arange_dtype(self, n):
        perm = permutation(n, 5)
        assert perm.dtype == np.arange(n).dtype
        assert sorted(perm.tolist()) == list(range(n))

    @given(st.lists(finite_floats, min_size=1, max_size=64), st.integers(0, 2**64 - 1))
    @settings(max_examples=50, deadline=None)
    def test_is_permutation(self, values, seed):
        out = shuffle(np.array(values, dtype=float), seed)
        assert sorted(out.tolist()) == sorted(float(v) for v in values)

    def test_deterministic(self):
        x = white_noise(200, seed=4)
        assert np.array_equal(shuffle(x, 77), shuffle(x, 77))

    def test_inverse_permutation_recovers_input(self):
        x = white_noise(300, seed=6)
        perm = permutation(len(x), seed=13)
        np.testing.assert_array_equal(shuffle(x, seed=13)[np.argsort(perm)], x)

    def test_preserves_moments_and_profile_endpoint(self):
        x = white_noise(2048, seed=8)
        shuf = shuffle(x, seed=1)
        assert np.mean(shuf) == pytest.approx(np.mean(x))
        assert np.var(shuf) == pytest.approx(np.var(x))
        assert abs(profile(shuf)[-1]) <= 1e-9 * np.abs(profile(shuf)).max()
