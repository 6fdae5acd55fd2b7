import json

import numpy as np
import pytest

from mfsig.errors import AnalysisError
from mfsig.mfdfa import HurstCurve, run_mfdfa
from mfsig.spectrum import SingularitySpectrum, fit_spectra, fit_spectrum, singularity_spectrum
from mfsig.synth import white_noise

from oracles import binomial_alpha_closed_form

Q_GRID = np.linspace(-5, 5, 41)


def curve(h_values, q_grid=Q_GRID):
    h = np.asarray(h_values, dtype=float)
    return HurstCurve(q_grid=q_grid, h=h, r2=np.ones_like(h), stderr=np.zeros_like(h))


def scaling_exponents(hurst):
    """tau(q) = q h(q) - 1."""
    return hurst.q_grid * hurst.h - 1.0


class TestScalingExponents:
    def test_cascade_tau_matches_closed_form(self, cascade_result):
        tau = scaling_exponents(cascade_result.hurst)
        expected = np.array(
            [-np.log(0.75**q + 0.25**q) / np.log(2) for q in cascade_result.q_grid]
        )
        assert np.abs(tau - expected).max() <= 0.1


class TestSingularitySpectrum:
    def test_monofractal_collapses(self):
        spec = singularity_spectrum(curve(np.full(41, 0.7)))
        np.testing.assert_allclose(spec.alpha, 0.7, atol=1e-12)
        np.testing.assert_allclose(spec.f, 1.0, atol=1e-12)

    def test_linear_h_symbolic(self):
        # h(q) = c - d q gives alpha = c - 2 d q and f = 1 - d q^2 exactly;
        # frozen point for c=1, d=0.05 at q=2: alpha=0.8, f=0.8.
        c, d = 1.0, 0.05
        spec = singularity_spectrum(curve(c - d * Q_GRID))
        np.testing.assert_allclose(spec.alpha, c - 2 * d * Q_GRID, atol=1e-12)
        np.testing.assert_allclose(spec.f, 1.0 - d * Q_GRID**2, atol=1e-12)
        i2 = np.flatnonzero(np.isclose(Q_GRID, 2.0))[0]
        assert spec.alpha[i2] == pytest.approx(0.8)
        assert spec.f[i2] == pytest.approx(0.8)

    def test_cascade_alpha_range_approaches_limits(self, cascade_result):
        spec = singularity_spectrum(cascade_result.hurst)
        assert spec.alpha.min() == pytest.approx(binomial_alpha_closed_form(5.0, 0.75), abs=0.15)
        assert spec.alpha.max() == pytest.approx(binomial_alpha_closed_form(-5.0, 0.75), abs=0.15)

    def test_needs_three_points(self):
        two = HurstCurve(
            q_grid=np.array([1.0, 2.0]), h=np.array([0.5, 0.4]),
            r2=np.ones(2), stderr=np.zeros(2),
        )
        with pytest.raises(AnalysisError, match="need at least 3 q points for derivatives"):
            singularity_spectrum(two)

    def test_tau_reconstruction_identity(self, cascade_result):
        spec = singularity_spectrum(cascade_result.hurst)
        tau = scaling_exponents(cascade_result.hurst)
        np.testing.assert_allclose(
            spec.q_grid * spec.alpha - spec.f, tau, atol=1e-9
        )

    def test_f_is_one_at_q_zero(self, fgn_result):
        spec = singularity_spectrum(fgn_result.hurst)
        i0 = np.flatnonzero(np.isclose(spec.q_grid, 0.0))[0]
        assert spec.f[i0] == pytest.approx(1.0, abs=1e-12)


def parabola_spectrum(a, b, alpha0=1.0, half_range=0.4, n=21):
    alpha = np.linspace(alpha0 - half_range, alpha0 + half_range, n)
    u = alpha - alpha0
    f = a * u**2 + b * u + 1.0
    return SingularitySpectrum(alpha=alpha, f=f, q_grid=np.linspace(-1, 1, n))


class TestFitSpectrum:
    def test_exact_symmetric_parabola_width_one(self):
        fit = fit_spectrum(parabola_spectrum(-4.0, 0.0))
        assert fit.a == pytest.approx(-4.0, abs=1e-9)
        assert fit.b == pytest.approx(0.0, abs=1e-9)
        assert fit.width == pytest.approx(1.0, abs=1e-9)
        assert fit.root_alpha_1 == pytest.approx(1.5, abs=1e-9)
        assert fit.root_alpha_2 == pytest.approx(0.5, abs=1e-9)

    def test_wider_parabola(self):
        fit = fit_spectrum(parabola_spectrum(-1.0, 0.0))
        assert fit.width == pytest.approx(2.0, abs=1e-9)

    def test_symmetric_input_gives_zero_asymmetry(self):
        fit = fit_spectrum(parabola_spectrum(-2.0, 0.0, alpha0=0.9))
        assert abs(fit.b) <= 1e-9

    def test_roots_are_zeros_of_fitted_parabola(self):
        fit = fit_spectrum(parabola_spectrum(-3.0, 0.4))
        for root in (fit.root_alpha_1, fit.root_alpha_2):
            u = root - fit.alpha0
            assert fit.a * u**2 + fit.b * u + 1.0 == pytest.approx(0.0, abs=1e-9)

    def test_width_nonnegative_and_consistent(self):
        fit = fit_spectrum(parabola_spectrum(-3.0, 0.4))
        assert fit.width >= 0
        assert fit.width == pytest.approx(fit.root_alpha_1 - fit.root_alpha_2)

    def test_degenerate_monofractal_width_zero(self):
        spec = SingularitySpectrum(
            alpha=np.full(5, 0.62), f=np.ones(5), q_grid=np.linspace(-1, 1, 5)
        )
        fit = fit_spectrum(spec)
        assert fit.monofractal_degenerate
        assert fit.width == 0.0

    def test_nonconcave_falls_back_to_raw_range(self):
        alpha = np.linspace(0.4, 0.8, 9)
        f = 2.0 * (alpha - 0.6) ** 2 + 0.5  # convex
        spec = SingularitySpectrum(alpha=alpha, f=f, q_grid=np.linspace(-1, 1, 9))
        fit = fit_spectrum(spec)
        assert not fit.concave
        assert fit.width == pytest.approx(0.4)

    def test_cascade_width_near_grid_closed_form(self, cascade_result):
        spec = singularity_spectrum(cascade_result.hurst)
        fit = fit_spectrum(spec)
        target = binomial_alpha_closed_form(-5.0, 0.75) - binomial_alpha_closed_form(5.0, 0.75)
        assert fit.width == pytest.approx(target, abs=0.25)

    def test_white_noise_width_small(self, white_result):
        fit = fit_spectrum(singularity_spectrum(white_result.hurst))
        assert fit.width <= 0.3

    def test_json_keys(self):
        payload = fit_spectrum(parabola_spectrum(-4.0, 0.0)).to_json_dict()
        assert set(payload) >= {"A", "B", "alpha0", "W"}
        assert payload["C"] == 1.0

    def test_one_spectrum_fit_holds_python_scalars(self):
        fit = fit_spectrum(parabola_spectrum(-4.0, 0.0))
        assert all(type(getattr(fit, k)) is float for k in ("a", "b", "alpha0", "width"))
        assert type(fit.concave) is bool and type(fit.monofractal_degenerate) is bool
        json.dumps(fit.to_json_dict())


def stacked(*spectra):
    return SingularitySpectrum(
        alpha=np.stack([s.alpha for s in spectra]),
        f=np.stack([s.f for s in spectra]),
        q_grid=spectra[0].q_grid,
    )


class TestFitSpectra:
    def test_rows_match_one_spectrum_at_a_time(self):
        n = 21
        alpha = np.linspace(0.4, 0.8, n)
        spectra = [
            parabola_spectrum(-4.0, 0.0),
            parabola_spectrum(-3.0, 0.4, alpha0=0.9),
            SingularitySpectrum(alpha, 2.0 * (alpha - 0.6) ** 2 + 0.5, np.linspace(-1, 1, n)),
            SingularitySpectrum(np.full(n, 0.62), np.ones(n), np.linspace(-1, 1, n)),
        ]
        fits = fit_spectra(stacked(*spectra))
        assert fits.concave.tolist() == [True, True, False, False]
        assert fits.monofractal_degenerate.tolist() == [False, False, False, True]
        for i, spec in enumerate(spectra):
            one = fit_spectrum(spec)
            for key, value in vars(one).items():
                assert getattr(fits, key)[i] == value, (i, key)

    def test_closed_form_matches_least_squares(self):
        # the 2 x 2 normal equations against an SVD least-squares solve
        rng = np.random.default_rng(7)
        for _ in range(20):
            alpha = np.sort(rng.uniform(0.2, 1.2, 41))
            f = -rng.uniform(0.5, 8.0) * (alpha - 0.7) ** 2 + rng.normal(0.0, 0.05, 41) + 1.0
            fit = fit_spectrum(SingularitySpectrum(alpha, f, Q_GRID))
            u = alpha - fit.alpha0
            (a, b), *_ = np.linalg.lstsq(np.column_stack([u**2, u]), f - 1.0, rcond=None)
            assert fit.a == pytest.approx(a, rel=1e-10, abs=1e-12)
            assert fit.b == pytest.approx(b, rel=1e-10, abs=1e-12)

    def test_row_with_too_few_alpha_points_is_named(self):
        good = parabola_spectrum(-4.0, 0.0, n=5)
        two_points = SingularitySpectrum(
            np.array([0.5, 0.5, 0.7, 0.7, 0.7]), np.ones(5), good.q_grid
        )
        with pytest.raises(AnalysisError, match="^need at least 3 distinct alpha points"):
            fit_spectra(stacked(good, two_points, two_points))


class TestAmplitudeInvariance:
    def test_width_invariant_under_scaling(self):
        x = white_noise(8192, seed=31)
        fit1 = fit_spectrum(singularity_spectrum(run_mfdfa(x).hurst))
        fit2 = fit_spectrum(singularity_spectrum(run_mfdfa(5.5 * x).hurst))
        assert fit1.width == pytest.approx(fit2.width, abs=1e-9)
