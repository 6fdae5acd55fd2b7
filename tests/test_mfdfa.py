import numpy as np
import pytest

from mfsig.errors import (
    AllSegmentsDegenerateError,
    DegenerateFitError,
    InsufficientDataError,
    InsufficientScalesError,
)
from mfsig.mfdfa import (
    MfdfaConfig,
    hurst_exponents,
    q_order_mean,
    run_mfdfa,
    segment_fluctuations,
)
from mfsig.series import ProfileSeries, TimeSeries, profile
from mfsig.synth import cascade_hurst_oracle, white_noise

from oracles import normal_equations_residual_ms, plain_dfa_slope


class TestSegmentCount:
    @pytest.mark.parametrize("n,s,expected", [(1000, 100, 10), (1050, 100, 10), (5120, 16, 320)])
    def test_values(self, n, s, expected):
        prof = ProfileSeries(np.arange(n, dtype=float) ** 2)
        assert segment_fluctuations(prof, s, 1).size == expected


def local_fluctuation(values, m):
    """F2 of a profile that is exactly one segment long."""
    prof = ProfileSeries(values)
    (f2,) = segment_fluctuations(prof, len(prof), m)
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
        with pytest.raises(DegenerateFitError):
            local_fluctuation(np.arange(3, dtype=float), 2)


class TestQOrderMean:
    @pytest.mark.parametrize("q", [-2.0, 0.0, 2.0, 5.0])
    def test_constant_fluctuations_collapse(self, q):
        fq, n_zero, _ = q_order_mean(np.full(8, 4.0), q)
        assert fq == pytest.approx(2.0)
        assert n_zero == 0

    def test_q2_is_rms(self):
        f2 = np.array([1.0, 2.0, 3.0, 4.0])
        fq, _, _ = q_order_mean(f2, 2.0)
        assert fq == pytest.approx(np.sqrt(f2.mean()))

    def test_q0_log_average_by_hand(self):
        fq, _, _ = q_order_mean(np.array([1.0, np.e**2]), 0.0)
        assert fq == pytest.approx(np.exp(0.5), rel=1e-12)

    def test_all_degenerate(self):
        with pytest.raises(AllSegmentsDegenerateError):
            q_order_mean(np.zeros(4), 2.0)

    def test_zero_segments_excluded_and_counted(self):
        fq, n_zero, _ = q_order_mean(np.array([0.0, 4.0, 0.0]), -2.0)
        assert n_zero == 2
        assert fq == pytest.approx(2.0)

    def test_power_mean_monotone_in_q(self):
        rng = np.random.default_rng(3)
        f2 = rng.uniform(0.1, 5.0, size=40)
        qs = np.linspace(-5, 5, 41)
        vals = [q_order_mean(f2, q)[0] for q in qs]
        diffs = np.diff(vals)
        assert np.all(diffs >= -1e-9 * np.abs(vals[:-1]))


class TestHurstFit:
    def test_insufficient_usable_scales(self):
        scales = np.array([16, 32, 64])
        fq = np.array([[1.0, np.nan, np.inf]])
        with pytest.raises(InsufficientScalesError):
            hurst_exponents(fq, scales, np.array([2.0]))

    def test_exact_power_law(self):
        scales = np.array([16, 32, 64, 128, 256])
        q_grid = np.array([2.0])
        fq = (scales.astype(float) ** 0.5)[np.newaxis, :]
        curve = hurst_exponents(fq, scales, q_grid)
        assert curve.h[0] == pytest.approx(0.5, abs=1e-12)
        assert curve.r2[0] == pytest.approx(1.0, abs=1e-12)

    def test_prefactor_does_not_affect_slope(self):
        scales = np.array([16, 32, 64, 128, 256])
        fq = (3.0 * scales.astype(float) ** 0.8)[np.newaxis, :]
        curve = hurst_exponents(fq, scales, np.array([2.0]))
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
        ts = white_noise(100, seed=1)
        with pytest.raises(InsufficientDataError):
            run_mfdfa(ts, MfdfaConfig(scales=np.array([16, 32])))

    def test_amplitude_scaling_leaves_h_unchanged(self):
        ts = white_noise(8192, seed=21)
        scaled = ts.with_samples(3.7 * ts.samples)
        h1 = run_mfdfa(ts).hurst.h
        h2 = run_mfdfa(scaled).hurst.h
        np.testing.assert_allclose(h1, h2, atol=1e-9)

    def test_unidirectional_equals_bidirectional_on_exact_multiples(self):
        ts = white_noise(4096, seed=22)
        scales = np.array([16, 32, 64, 128, 256, 512, 1024])
        uni = run_mfdfa(ts, MfdfaConfig(scales=scales, bidirectional=False))
        bi = run_mfdfa(ts, MfdfaConfig(scales=scales, bidirectional=True))
        np.testing.assert_allclose(uni.fq, bi.fq, rtol=1e-12)

    def test_q2_equals_plain_dfa(self):
        ts = white_noise(8192, seed=23)
        scales = np.array([16, 32, 64, 128, 256, 512])
        result = run_mfdfa(ts, MfdfaConfig(scales=scales, q_grid=np.array([0.0, 2.0])))
        ref = plain_dfa_slope(ts.samples, scales, order=1)
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


class TestConfig:
    def test_rejects_decreasing_scales(self):
        with pytest.raises(ValueError):
            MfdfaConfig(scales=np.array([64, 32]))

    def test_rejects_small_scale_for_order(self):
        ts = white_noise(4096, seed=1)
        with pytest.raises(DegenerateFitError):
            run_mfdfa(ts, MfdfaConfig(detrend_order=3, scales=np.array([4, 64])))

    def test_default_q_grid_has_41_points(self, white_result):
        assert len(white_result.q_grid) == 41
        assert white_result.q_grid[0] == -5.0
        assert white_result.q_grid[-1] == 5.0

    def test_constant_series_has_no_usable_fluctuations(self):
        ts = TimeSeries(np.full(4096, 2.0), 1.0)
        with pytest.raises(AllSegmentsDegenerateError):
            run_mfdfa(ts)
