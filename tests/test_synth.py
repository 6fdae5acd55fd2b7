import math

import numpy as np
import pytest

from mfsig.errors import AnalysisError
from mfsig.spectrum import singularity_spectrum
from mfsig.synth import binomial_cascade, cascade_hurst_oracle, fgn, tone, white_noise

from oracles import (
    binomial_hurst_closed_form,
    cascade_alpha_limits,
    cascade_alpha_oracle,
    cascade_asymptotic_width,
    cascade_tau_oracle,
)


class TestBinomialCascade:
    def test_hand_expansion_k2(self):
        cells = binomial_cascade(2, 0.75)
        assert sorted(cells.tolist()) == pytest.approx([0.0625, 0.1875, 0.1875, 0.5625])
        assert cells.sum() == pytest.approx(1.0)

    @pytest.mark.parametrize("k,a", [(8, 0.6), (10, 0.75), (12, 0.9)])
    def test_measure_normalization(self, k, a):
        assert binomial_cascade(k, a).sum() == pytest.approx(1.0, abs=1e-12)

    def test_near_uniform_limit(self):
        cells = binomial_cascade(8, 0.500001)
        np.testing.assert_allclose(cells, 2.0**-8, rtol=1e-4)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            binomial_cascade(10, 0.7), binomial_cascade(10, 0.7)
        )

    def test_rejects_bad_multiplier(self):
        with pytest.raises(ValueError):
            binomial_cascade(10, 0.4)


class TestCascadeOracles:
    def test_h2_value(self):
        assert cascade_hurst_oracle(2.0, 0.75) == pytest.approx(0.8390, abs=1e-4)

    def test_matches_tau_route(self):
        for q in (-5.0, -1.5, 0.5, 2.0, 4.0):
            assert cascade_hurst_oracle(q, 0.75) == pytest.approx(
                binomial_hurst_closed_form(q, 0.75), rel=1e-12
            )

    def test_q0_continuous_limit(self):
        eps = 1e-7
        limit = 0.5 * (cascade_hurst_oracle(eps, 0.75) + cascade_hurst_oracle(-eps, 0.75))
        assert cascade_hurst_oracle(0.0, 0.75) == pytest.approx(limit, abs=1e-6)

    def test_asymptotic_width_is_log2_three(self):
        assert cascade_asymptotic_width(0.75) == pytest.approx(math.log2(3.0), abs=1e-12)

    def test_alpha_limits(self):
        lo, hi = cascade_alpha_limits(0.75)
        assert lo == pytest.approx(-math.log(0.75) / math.log(2))
        assert hi == pytest.approx(-math.log(0.25) / math.log(2))
        assert hi == pytest.approx(2.0)

    def test_monofractal_limit(self):
        for q in (-3.0, 1.0, 2.0):
            assert cascade_hurst_oracle(q, 0.5001) == pytest.approx(1.0, abs=1e-3)

    def test_tau_and_alpha_consistent(self):
        # alpha = d tau / dq, checked by central difference
        q, a, eps = 1.3, 0.8, 1e-6
        numeric = (cascade_tau_oracle(q + eps, a) - cascade_tau_oracle(q - eps, a)) / (2 * eps)
        assert cascade_alpha_oracle(q, a) == pytest.approx(numeric, abs=1e-8)


class TestFgn:
    def test_h_half_is_uncorrelated(self):
        x = fgn(2**16, hurst=0.5, seed=7)
        rho = np.corrcoef(x[:-1], x[1:])[0, 1]
        assert abs(rho) <= 0.02

    def test_deterministic_per_seed(self):
        np.testing.assert_array_equal(
            fgn(2048, 0.8, seed=5), fgn(2048, 0.8, seed=5)
        )
        assert not np.array_equal(fgn(2048, 0.8, seed=5), fgn(2048, 0.8, seed=6))

    def test_standardized(self):
        x = fgn(2**14, 0.7, seed=9)
        assert x.mean() == pytest.approx(0.0, abs=1e-12)
        assert x.std() == pytest.approx(1.0, abs=1e-12)

    def test_target_hurst_reached(self, fgn_result):
        assert fgn_result.h_at(2.0) == pytest.approx(0.8, abs=0.05)

    def test_monofractal_raw_alpha_spread_small(self):
        from mfsig.mfdfa import MfdfaConfig, run_mfdfa

        res = run_mfdfa(fgn(2**16, 0.5, seed=33), MfdfaConfig(bidirectional=True))
        assert singularity_spectrum(res.hurst).raw_width() <= 0.2

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            fgn(100, 0.8, seed=1)
        with pytest.raises(ValueError):
            fgn(2048, 1.1, seed=1)


class TestWhiteNoiseAndTone:
    def test_white_noise_variance(self):
        samples = white_noise(65536, seed=3)
        assert samples.var() == pytest.approx(1.0, rel=0.03)
        assert abs(samples.mean()) <= 0.02

    def test_tone_shape(self):
        x = tone(10, 256, 8, amplitude=1.0)
        assert len(x) == 2048
        assert np.abs(x).max() == pytest.approx(1.0, abs=1e-12)

    def test_tone_at_nyquist_rejected(self):
        with pytest.raises(AnalysisError, match="aliases at sample rate"):
            tone(128, 256, 1)
