import numpy as np
import pytest

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mfsig.errors import AnalysisError
from mfsig.mfdfa import (
    _BLOCK_ELEMENTS,
    DEFAULT_Q_GRID,
    MfdfaConfig,
    _detrend_basis,
    hurst_exponents,
    log_fluctuation_function,
    run_mfdfa,
    run_mfdfa_batch,
    segment_fluctuations,
)
from mfsig.series import profile
from mfsig.spectrum import fit_spectrum, singularity_spectrum
from mfsig.synth import cascade_hurst_oracle, white_noise

from memory import transient_peak
from oracles import (
    log_fq_scale_by_scale,
    normal_equations_residual_ms,
    plain_dfa_slope,
    power_mean_fq,
    segment_fluctuations_out_of_place,
)


class TestSegmentCount:
    @pytest.mark.parametrize("n,s,expected", [(1000, 100, 10), (1050, 100, 10), (5120, 16, 320)])
    def test_values(self, n, s, expected):
        y = np.arange(n, dtype=float) ** 2
        assert segment_fluctuations(y, s, 1).size == expected


def local_fluctuation(values, m):
    """F2 of a profile that is exactly one segment long."""
    y = np.asarray(values, dtype=float)
    (f2,) = segment_fluctuations(y, y.size, m)
    return f2


class TestLocalFluctuation:
    def test_exact_linear_segment(self):
        assert local_fluctuation(2.5 * np.arange(32) - 7.0, 1) <= 1e-18

    def test_constant_segment(self):
        for m in (1, 2, 3):
            assert local_fluctuation(np.full(24, 3.0), m) <= 1e-18

    def test_squares_vs_normal_equations(self):
        squares = (np.arange(1, 17, dtype=float)) ** 2
        mine = local_fluctuation(squares, 1)
        ref = normal_equations_residual_ms(squares, 1)
        assert mine == pytest.approx(ref, rel=1e-9)

    def test_degenerate_scale(self):
        with pytest.raises(AnalysisError, match="too small for polynomial order"):
            local_fluctuation(np.arange(3, dtype=float), 2)


def one_scale_log_fq(f2, q_grid):
    """ln Fq (..., q) of one scale's squared fluctuations f2 (..., k)."""
    return log_fluctuation_function(f2, [16], [np.shape(f2)[-1]], q_grid)[..., 0]


def fq_at(f2, q):
    """Fq of one q through the array function."""
    return float(np.exp(one_scale_log_fq(f2, [q])[0]))


# F2 values spread log-uniformly over 1e-300..1e300, the range in which
# negative q overflowed the direct power mean.
wide_f2 = st.lists(st.floats(-300.0, 300.0), min_size=1, max_size=64).map(
    lambda exps: 10.0 ** np.asarray(exps)
)


class TestQOrderMean:
    @pytest.mark.parametrize("q", [-2.0, 0.0, 2.0, 5.0])
    def test_constant_fluctuations_collapse(self, q):
        assert fq_at(np.full(8, 4.0), q) == pytest.approx(2.0)

    def test_q2_is_rms(self):
        f2 = np.array([1.0, 2.0, 3.0, 4.0])
        assert fq_at(f2, 2.0) == pytest.approx(np.sqrt(f2.mean()))

    def test_q0_log_average_by_hand(self):
        assert fq_at(np.array([1.0, np.e**2]), 0.0) == pytest.approx(np.exp(0.5), rel=1e-12)

    def test_all_degenerate(self):
        with pytest.raises(AnalysisError, match="all segments have zero residual variance"):
            one_scale_log_fq(np.zeros(4), np.array([2.0]))

    def test_zero_segments_excluded_and_counted(self):
        assert fq_at(np.array([0.0, 4.0, 0.0]), -2.0) == pytest.approx(2.0)
        # a profile that is flat over its first half: those segments have F2 == 0
        x = np.concatenate([np.zeros(2048), np.tile([1.0, -1.0], 1024)])
        result = run_mfdfa(x, MfdfaConfig(scales=np.array([16, 32])))
        assert result.zero_variance_segments == 2048 // 16 + 2048 // 32
        assert np.all(np.isfinite(result.log_fq))

    def test_rows_exclude_their_own_zero_segments(self):
        rng = np.random.default_rng(4)
        f2 = 10.0 ** rng.uniform(-300.0, 300.0, size=(3, 40))
        f2[0, ::3] = 0.0
        f2[2, 5:] = 0.0
        batch = one_scale_log_fq(f2, DEFAULT_Q_GRID)
        assert batch.shape == (3, DEFAULT_Q_GRID.size)
        for row, log_fq in zip(f2, batch):
            compacted = one_scale_log_fq(row[row > 0.0], DEFAULT_Q_GRID)
            np.testing.assert_allclose(log_fq, compacted, rtol=1e-12, atol=1e-12)

    def test_power_mean_monotone_in_q(self):
        rng = np.random.default_rng(3)
        f2 = rng.uniform(0.1, 5.0, size=40)
        vals = np.exp(one_scale_log_fq(f2, np.linspace(-5, 5, 41)))
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-9 * np.abs(vals[:-1]))

    @given(wide_f2)
    def test_monotone_and_finite_across_the_float_range(self, f2):
        log_fq = one_scale_log_fq(f2, DEFAULT_Q_GRID)
        assert np.all(np.isfinite(log_fq))
        assert np.all(np.diff(log_fq) >= -1e-12 * (1.0 + np.abs(log_fq[:-1])))

    @given(wide_f2)
    def test_matches_direct_power_mean_where_it_is_representable(self, f2):
        log_fq = one_scale_log_fq(f2, DEFAULT_Q_GRID)
        for q, mine in zip(DEFAULT_Q_GRID, log_fq):
            # the direct form is exact only while every term F2^(q/2) is a
            # normal double well away from overflow
            if np.all(np.abs(0.5 * q * np.log10(f2)) <= 300.0):
                ref = np.log(power_mean_fq(f2, q))
                assert mine == pytest.approx(ref, rel=1e-12, abs=1e-12)


class TestHurstFit:
    def test_exact_power_law(self):
        scales = np.array([16, 32, 64, 128, 256])
        q_grid = np.array([2.0])
        log_fq = np.log(scales.astype(float) ** 0.5)[np.newaxis, :]
        curve = hurst_exponents(log_fq, scales, q_grid)
        assert curve.h[0] == pytest.approx(0.5, abs=1e-12)
        assert curve.r2[0] == pytest.approx(1.0, abs=1e-12)

    def test_prefactor_does_not_affect_slope(self):
        scales = np.array([16, 32, 64, 128, 256])
        log_fq = np.log(3.0 * scales.astype(float) ** 0.8)[np.newaxis, :]
        curve = hurst_exponents(log_fq, scales, np.array([2.0]))
        assert curve.h[0] == pytest.approx(0.8, abs=1e-12)


class TestRunMfdfa:
    def test_white_noise_h2(self, white_result):
        assert white_result.h_at(2.0) == pytest.approx(0.5, abs=0.05)

    def test_fgn_h2_and_flatness(self, fgn_result):
        assert fgn_result.h_at(2.0) == pytest.approx(0.8, abs=0.05)
        spread = np.abs(fgn_result.h - fgn_result.h_at(2.0)).max()
        assert spread <= 0.15

    def test_cascade_h2_matches_closed_form(self, cascade_result):
        assert cascade_result.h_at(2.0) == pytest.approx(
            cascade_hurst_oracle(2.0, 0.75), abs=0.05
        )

    def test_too_short_input(self):
        with pytest.raises(AnalysisError, match="is shorter than 4 x max scale"):
            run_mfdfa(white_noise(100, seed=1), MfdfaConfig(scales=np.array([16, 32])))

    def test_amplitude_scaling_leaves_h_unchanged(self):
        x = white_noise(8192, seed=21)
        h1 = run_mfdfa(x).hurst.h
        h2 = run_mfdfa(3.7 * x).hurst.h
        np.testing.assert_allclose(h1, h2, atol=1e-9)

    @given(st.floats(-100.0, 100.0), st.floats(-5.0, 5.0))
    @settings(max_examples=40)
    def test_affine_map_leaves_h_unchanged(self, log10_c, offset):
        # x -> c*x + d with the offset in units of c, so c*x + d keeps the
        # precision of x; c spans 1e-100..1e100
        x = white_noise(4096, seed=24)
        c = 10.0**log10_c
        mapped = run_mfdfa(c * x + c * offset).h
        np.testing.assert_allclose(mapped, run_mfdfa(x).h, rtol=0, atol=1e-9)

    @given(st.integers(0, 2**16), st.integers(-900, 900))
    @settings(max_examples=30, deadline=None)
    def test_power_of_two_scaling_leaves_h_and_width_bit_identical(self, seed, k):
        # each profile is rescaled exactly, so F2 neither underflows (x * 2^-900
        # has F2 near 1e-542) nor overflows (x * 2^900, F2 near 1e+542)
        x = white_noise(1024, seed=seed)
        scaled = np.ldexp(x, k)
        result, result_scaled = run_mfdfa(x), run_mfdfa(scaled)
        np.testing.assert_array_equal(result_scaled.h, result.h)
        assert fit_spectrum(singularity_spectrum(result_scaled.hurst)).width == (
            fit_spectrum(singularity_spectrum(result.hurst)).width
        )
        np.testing.assert_allclose(
            result_scaled.log_fq, result.log_fq + k * np.log(2.0), rtol=0, atol=1e-12
        )

    def test_unidirectional_equals_bidirectional_on_exact_multiples(self):
        x = white_noise(4096, seed=22)
        scales = np.array([16, 32, 64, 128, 256, 512, 1024])
        uni = run_mfdfa(x, MfdfaConfig(scales=scales, bidirectional=False))
        bi = run_mfdfa(x, MfdfaConfig(scales=scales, bidirectional=True))
        np.testing.assert_allclose(uni.fq, bi.fq, rtol=1e-12)

    def test_q2_equals_plain_dfa(self):
        x = white_noise(8192, seed=23)
        scales = np.array([16, 32, 64, 128, 256, 512])
        result = run_mfdfa(x, MfdfaConfig(scales=scales, q_grid=np.array([0.0, 2.0])))
        ref = plain_dfa_slope(x, scales, order=1)
        assert result.h_at(2.0) == pytest.approx(ref, abs=1e-9)

    def test_power_mean_monotone_across_whole_grid(self, white_result):
        diffs = np.diff(white_result.fq, axis=0)
        assert np.all(diffs >= -1e-9 * np.abs(white_result.fq[:-1]))

    def test_json_shape(self, white_result):
        payload = white_result.to_json_dict()
        assert set(payload) >= {"scales", "q", "log_fq", "h", "r2"}
        assert len(payload["log_fq"]) == len(payload["q"])
        assert len(payload["log_fq"][0]) == len(payload["scales"])

    def test_csv_rows(self, white_result):
        rows = list(white_result.to_csv_rows())
        assert len(rows) == len(white_result.q_grid) * len(white_result.scales)


def flat_start_series(seed, n, flat):
    """Integer-valued series of exactly zero mean whose first ``flat`` samples
    are 0: its profile is exactly 0 there, so those segments have F2 == 0."""
    x = np.random.default_rng(seed).integers(-3, 4, n).astype(float)
    x[:flat] = 0.0
    x[-1] -= x.sum()
    return x


class TestRunMfdfaBatch:
    @given(
        st.lists(
            st.tuples(st.integers(0, 2**16), st.sampled_from((0.0, 0.1, 0.3, 0.5))),
            min_size=1,
            max_size=4,
        ),
        st.integers(256, 2048),
        st.integers(1, 3),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_each_row_matches_its_single_series_run(self, specs, n, m, bidirectional):
        series = [flat_start_series(seed, n, int(share * n)) for seed, share in specs]
        cfg = MfdfaConfig(detrend_order=m, bidirectional=bidirectional)
        batch = run_mfdfa_batch(np.stack(series), cfg)
        assert batch.log_fq.shape[0] == batch.zero_variance_segments.shape[0] == len(series)
        for i, ((_, share), x) in enumerate(zip(specs, series)):
            single = run_mfdfa(x, cfg)
            np.testing.assert_allclose(batch.log_fq[i], single.log_fq, rtol=0, atol=1e-12)
            np.testing.assert_allclose(batch.h[i], single.h, rtol=0, atol=1e-12)
            assert batch.hurst.monotone[i] == single.hurst.monotone
            assert batch.zero_variance_segments[i] == single.zero_variance_segments
            # at scale 16 alone, every forward segment inside the flat start has F2 == 0
            assert single.zero_variance_segments >= int(share * n) // 16

    def test_one_series_result_holds_one_series_values(self):
        result = run_mfdfa(white_noise(1024, seed=32))
        assert result.log_fq.shape == (len(result.q_grid), len(result.scales))
        assert result.h.shape == result.hurst.r2.shape == result.q_grid.shape
        assert type(result.zero_variance_segments) is int
        assert type(result.hurst.monotone) is bool

    def test_constant_middle_series_fails_the_batch(self):
        noise = white_noise(4096, seed=30)
        outer = [noise, noise[::-1]]
        constant = np.full(4096, 2.0)
        for x in outer:
            run_mfdfa(x)
        with pytest.raises(
            AnalysisError, match="^scale 16: all segments have zero residual variance$"
        ):
            run_mfdfa_batch(np.stack([outer[0], constant, outer[1]]))
        # two failing series: one error
        with pytest.raises(AnalysisError, match="^scale 16: "):
            run_mfdfa_batch(np.stack([outer[0], constant, constant]))
        # a non-finite series is named before any scale is walked
        nan = np.where(np.arange(4096) == 7, np.nan, 2.0)
        with pytest.raises(AnalysisError, match="non-finite value at index 7$"):
            run_mfdfa_batch(np.stack([outer[0], constant, nan]))
        # a length no scale grid fits fails the whole batch
        with pytest.raises(AnalysisError, match="supports no scales"):
            run_mfdfa_batch(np.stack([white_noise(41, seed=s) for s in (1, 2)]))

    def test_cached_bases_are_small_and_read_only(self):
        result = run_mfdfa(white_noise(2**16, seed=31))
        cached = 0
        for s in result.scales:
            basis = _detrend_basis(int(s), 1)
            if basis is _detrend_basis(int(s), 1):  # the same object: it is cached
                cached += 1
                assert not basis.flags.writeable
                assert basis.size <= _BLOCK_ELEMENTS // 8
            else:
                assert basis.size > _BLOCK_ELEMENTS // 8
        assert 0 < cached < len(result.scales)


def random_walk_profile(seed, n):
    return profile(white_noise(n, seed=seed))


class TestSegmentFluctuations:
    def test_bidirectional_doubles_segments(self):
        prof = profile(white_noise(1000, seed=2))
        uni = segment_fluctuations(prof, 64, 1, bidirectional=False)
        bi = segment_fluctuations(prof, 64, 1, bidirectional=True)
        assert uni.size == 15
        assert bi.size == 30

    def test_nonnegative(self):
        prof = profile(white_noise(1000, seed=2))
        assert np.all(segment_fluctuations(prof, 32, 1) >= 0)

    @given(
        st.integers(0, 2**16),
        st.integers(1, 3),
        st.integers(16, 256),
        st.booleans(),
        st.lists(st.floats(-1e3, 1e3), min_size=4, max_size=4),
    )
    @settings(max_examples=60)
    def test_polynomial_trend_is_invisible(self, seed, m, s, bidirectional, coef):
        # the kernel removes every polynomial of degree <= m from each segment
        y = random_walk_profile(seed, 4 * s + s // 3)
        t = np.arange(y.size) / y.size
        trended = y + np.polynomial.polynomial.polyval(t, coef[: m + 1])
        f2 = segment_fluctuations(y, s, m, bidirectional)
        f2_trended = segment_fluctuations(trended, s, m, bidirectional)
        tol = np.finfo(float).eps * np.max(np.abs(trended)) ** 2
        np.testing.assert_allclose(f2_trended, f2, rtol=0, atol=tol)

    @given(st.integers(0, 2**16), st.integers(1, 3), st.integers(16, 256))
    @settings(max_examples=60)
    def test_reversed_profile_reverses_bidirectional_f2(self, seed, m, s):
        # the forward tiling of the reversed profile is the backward tiling
        # of the profile, each segment read back to front
        y = random_walk_profile(seed, 4 * s + s // 3)
        f2 = segment_fluctuations(y, s, m, bidirectional=True)
        np.testing.assert_allclose(
            segment_fluctuations(y[::-1], s, m, bidirectional=True), f2[::-1], rtol=1e-9
        )

    @given(
        st.integers(0, 2**16),
        st.integers(1, 3),
        st.integers(16, 1024),
        st.integers(1, 3),
        st.booleans(),
    )
    @settings(max_examples=60)
    def test_every_segment_matches_normal_equations(self, seed, m, s, ns, bidirectional):
        n = ns * s + s // 2
        y = random_walk_profile(seed, n)
        starts = [k * s for k in range(ns)]
        if bidirectional:
            starts += [n - ns * s + k * s for k in range(ns)]
        ref = [normal_equations_residual_ms(y[a : a + s], m) for a in starts]
        np.testing.assert_allclose(segment_fluctuations(y, s, m, bidirectional), ref, rtol=1e-9)

    @staticmethod
    def tilings(y, s, bidirectional):
        """The segments of the profiles y (rows, n) at scale s, (rows, k, s)."""
        ns = y.shape[-1] // s
        starts = (0, y.shape[-1] - ns * s) if bidirectional else (0,)
        return np.concatenate([y[:, a : a + ns * s].reshape(len(y), ns, s) for a in starts], 1)

    @pytest.mark.parametrize("bidirectional", [False, True])
    @pytest.mark.parametrize(
        "rows,n,s",
        [(2, 2**17 + 5, 16), (2, 2**17, 2**16 + 3), (30, 5120, 16), (7, 5000, 17)],
        ids=["rows_longer_than_a_block", "segment_longer_than_a_block", "eeg_windows", "ragged"],
    )
    def test_batch_rows_equal_single_rows(self, rows, n, s, bidirectional):
        # F2 is formed in blocks of at most _BLOCK_ELEMENTS: of a long row's
        # segments, or of several short rows; either way a row's F2 is the
        # same bit for bit however many rows its batch has
        y = np.stack([random_walk_profile(seed, n) for seed in range(rows)])
        f2 = segment_fluctuations(y, s, 1, bidirectional)
        for row, row_f2 in zip(y, f2):
            np.testing.assert_array_equal(row_f2, segment_fluctuations(row, s, 1, bidirectional))
        ref = normal_equations_residual_ms(self.tilings(y, s, bidirectional), 1)
        np.testing.assert_allclose(f2, ref, rtol=1e-9)

    @pytest.mark.parametrize("rows,n", [(2, 2**17), (40, 5120)])
    def test_temporaries_stay_within_a_few_blocks(self, rows, n):
        y = np.stack([random_walk_profile(seed, n) for seed in range(rows)])
        segment_fluctuations(y, 16, 1, bidirectional=True)  # lazy imports and cached bases
        f2, peak = transient_peak(lambda: segment_fluctuations(y, 16, 1, bidirectional=True))
        assert peak <= f2.nbytes + 4 * _BLOCK_ELEMENTS * y.itemsize


class TestAgainstEarlierKernels:
    """The F2 and ln Fq kernels against their earlier forms in tests/oracles.py."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 3),
        m=st.integers(1, 3),
        s=st.integers(5, 300),
        k=st.integers(1, 40),
        extra=st.integers(0, 299),
        bidirectional=st.booleans(),
    )
    @example(seed=0, rows=2, m=1, s=16, k=2**12 + 3, extra=5, bidirectional=True)
    @example(seed=1, rows=1, m=2, s=2**16 + 3, k=2, extra=0, bidirectional=False)
    @settings(max_examples=60, deadline=None)
    def test_f2_equals_out_of_place_f2(self, seed, rows, m, s, k, extra, bidirectional):
        n = s * k + extra % s
        y = np.stack([random_walk_profile(seed + r, n) for r in range(rows)])
        mine = segment_fluctuations(y, s, m, bidirectional)
        assert np.array_equal(mine, segment_fluctuations_out_of_place(y, s, m, bidirectional))

    @given(
        seed=st.integers(0, 2**32 - 1),
        rows=st.integers(1, 4),
        lengths=st.lists(st.integers(1, 60), min_size=1, max_size=6),
        zero_share=st.sampled_from([0.0, 0.3, 0.9, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_log_fq_over_all_scales_matches_scale_by_scale(self, seed, rows, lengths, zero_share):
        rng = np.random.default_rng(seed)
        f2 = [10.0 ** rng.uniform(-300.0, 300.0, size=(rows, k)) for k in lengths]
        for block in f2:
            block[rng.random(block.shape) < zero_share] = 0.0
        scales = 16 + 3 * np.arange(len(lengths))
        args = (np.concatenate(f2, axis=-1), scales, lengths, DEFAULT_Q_GRID)
        try:
            ref = log_fq_scale_by_scale(f2, scales, DEFAULT_Q_GRID)
        except AnalysisError as exc:
            with pytest.raises(AnalysisError) as failure:
                log_fluctuation_function(*args)
            assert str(failure.value) == str(exc)
            return
        mine = log_fluctuation_function(*args)
        assert mine.shape == (rows, DEFAULT_Q_GRID.size, len(lengths))
        np.testing.assert_allclose(mine, ref, rtol=1e-12, atol=1e-12)

    def test_failure_is_located_at_the_first_failing_scale_and_row(self):
        f2 = [np.ones((3, 4)), np.ones((3, 5)), np.ones((3, 2))]
        f2[1][2] = 0.0
        f2[1][1] = 0.0
        f2[2][0] = 0.0
        with pytest.raises(
            AnalysisError, match="^scale 32: all segments have zero residual variance$"
        ):
            log_fluctuation_function(np.concatenate(f2, axis=-1), [16, 32, 64], [4, 5, 2], [2.0])


class TestConfig:
    def test_rejects_decreasing_scales(self):
        with pytest.raises(ValueError):
            MfdfaConfig(scales=np.array([64, 32]))

    def test_rejects_small_scale_for_order(self):
        x = white_noise(4096, seed=1)
        with pytest.raises(AnalysisError, match="cannot support a polynomial of order"):
            run_mfdfa(x, MfdfaConfig(detrend_order=3, scales=np.array([4, 64])))

    def test_default_q_grid_has_41_points(self, white_result):
        assert len(white_result.q_grid) == 41
        assert white_result.q_grid[0] == -5.0
        assert white_result.q_grid[-1] == 5.0

    def test_constant_series_has_no_usable_fluctuations(self):
        with pytest.raises(AnalysisError, match="all segments have zero residual variance"):
            run_mfdfa(np.full(4096, 2.0))
