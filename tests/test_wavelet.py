import numpy as np
import pytest

from mfsig.errors import AnalysisError
from mfsig.synth import white_noise
from mfsig.wavelet import DEC_HI, DEC_LO, dwt, dyadic_level_for_band, idwt, reconstruct_level

from oracles import convolution_decimation_step


def rel_rms(a, b):
    return float(np.sqrt(np.mean((a - b) ** 2)) / np.sqrt(np.mean(b**2)))


class TestFilters:
    def test_lowpass_sums_to_sqrt2(self):
        assert DEC_LO.sum() == pytest.approx(np.sqrt(2.0))

    def test_orthonormal(self):
        assert DEC_LO @ DEC_LO == pytest.approx(1.0)
        assert DEC_HI @ DEC_HI == pytest.approx(1.0)
        assert DEC_LO @ DEC_HI == pytest.approx(0.0, abs=1e-15)

    def test_highpass_kills_constants(self):
        assert DEC_HI.sum() == pytest.approx(0.0, abs=1e-15)


class TestRoundTrip:
    @pytest.mark.parametrize("n,levels", [(1024, 6), (1000, 3), (513, 2), (4096, 6)])
    def test_reconstruction(self, n, levels):
        x = white_noise(n, seed=n)
        back = idwt(dwt(x, levels))
        assert len(back) == n
        assert rel_rms(back, x) <= 1e-8

    def test_ten_random_fixtures(self):
        for seed in range(10):
            n = 700 + 137 * seed
            x = white_noise(n, seed=seed)
            assert rel_rms(idwt(dwt(x, 4)), x) <= 1e-8

    def test_constant_signal_details_vanish(self):
        coeffs = dwt(np.full(256, 2.5), 3)
        for detail in coeffs.details:
            assert np.abs(detail).max() <= 1e-12

    def test_too_many_levels(self):
        with pytest.raises(AnalysisError, match="levels exceed what a length-256 signal supports"):
            dwt(white_noise(256, seed=1), 7)  # floor(log2(256)) - 2 = 6


class TestImpulse:
    def test_single_level_equals_convolution_oracle(self):
        x = np.zeros(64)
        x[0] = 1.0
        coeffs = dwt(x, 1)
        ref_a, ref_d = convolution_decimation_step(x, DEC_LO, DEC_HI)
        np.testing.assert_allclose(coeffs.approx, ref_a, atol=1e-14)
        np.testing.assert_allclose(coeffs.details[0], ref_d, atol=1e-14)

    def test_impulse_coefficients_are_the_filter_taps(self):
        # decimation by 2 picks up even-offset taps for an impulse at 0 and
        # odd-offset taps for an impulse at 1; together they cover the filter
        collected_a, collected_d = [], []
        for pos in (0, 1):
            x = np.zeros(64)
            x[pos] = 1.0
            coeffs = dwt(x, 1)
            collected_a.extend(coeffs.approx[np.abs(coeffs.approx) > 1e-15])
            collected_d.extend(coeffs.details[0][np.abs(coeffs.details[0]) > 1e-15])
        np.testing.assert_allclose(np.sort(collected_a), np.sort(DEC_LO), atol=1e-14)
        np.testing.assert_allclose(np.sort(collected_d), np.sort(DEC_HI), atol=1e-14)


class TestSubbands:
    def test_dyadic_levels_at_256hz(self):
        assert dyadic_level_for_band(256.0, 8.0, 13.0, 8) == 4   # 8-16 Hz
        assert dyadic_level_for_band(256.0, 4.0, 7.0, 8) == 5    # 4-8 Hz
        assert dyadic_level_for_band(256.0, 13.0, 30.0, 8) == 3  # 16-32 Hz

    def test_levels_sum_back_to_signal(self):
        x = white_noise(512, seed=3)
        levels = 3
        coeffs = dwt(x, levels)
        parts = [reconstruct_level(coeffs, lvl) for lvl in range(1, levels + 1)]
        # remaining approximation: reconstruct with all details zeroed
        zeroed = dwt(x, levels)
        approx_only = idwt(
            type(zeroed)(
                approx=zeroed.approx,
                details=[np.zeros_like(d) for d in zeroed.details],
                original_length=zeroed.original_length,
            )
        )
        total = approx_only + np.sum(parts, axis=0)
        np.testing.assert_allclose(total, x, atol=1e-10)
