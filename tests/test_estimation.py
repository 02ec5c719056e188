"""Maximum-likelihood fitting, BIC selection, and the PACF reparameterization."""

import math
from dataclasses import replace

import numpy as np
import pytest

from lmpcast.arima import (
    DEFAULT_ORIGIN,
    ModelSpec,
    ParameterVector,
    ar_polynomial,
    log_likelihood,
    ma_polynomial,
    residuals,
    simulate,
)
from lmpcast.errors import DegenerateSeries, EstimationFailed, SeriesTooShort
from lmpcast.estimation import (
    BicTable,
    Diagnostics,
    FitOptions,
    _sample_partials,
    bic,
    coeffs_to_pacf,
    fit,
    fit_garch,
    grid_select,
    model_forecast,
    pacf_to_coeffs,
)
from lmpcast.garch import GarchParams, GarchSpec, forecast_variance
from lmpcast.lagpoly import LagPolynomial, is_stable
from lmpcast.series import UNITS_NONE, HourlySeries, _autocovariances, _durbin_levinson

FAST = FitOptions(restarts=1, seed=0)


def series(values):
    return HourlySeries(DEFAULT_ORIGIN, np.asarray(values, dtype=np.float64), UNITS_NONE)


class TestPacfMap:
    def test_order_one_identity(self):
        np.testing.assert_allclose(pacf_to_coeffs(np.array([0.5])), [0.5], atol=1e-14)

    def test_order_two_levinson(self):
        # Durbin-Levinson by hand: a = [r1*(1 - r2), r2]
        r1, r2 = 0.6, -0.3
        got = pacf_to_coeffs(np.array([r1, r2]))
        np.testing.assert_allclose(got, [r1 * (1 - r2), r2], atol=1e-14)

    def test_round_trip(self):
        rng = np.random.default_rng(70)
        for order in (1, 2, 3, 5):
            r = rng.uniform(-0.9, 0.9, size=order)
            coeffs = pacf_to_coeffs(r)
            np.testing.assert_allclose(coeffs_to_pacf(coeffs), r, atol=1e-10)

    def test_image_always_stable(self):
        rng = np.random.default_rng(71)
        for trial in range(50):
            r = rng.uniform(-0.999, 0.999, size=4)
            poly = LagPolynomial.from_factor_coefficients(pacf_to_coeffs(r))
            assert is_stable(poly).stable


class TestSamplePartials:
    """The Durbin-Levinson partial autocorrelations of the default first start,
    against SciPy's Toeplitz solve of the Yule-Walker equations stepped down to
    partial autocorrelations."""

    @pytest.mark.parametrize("spacing", [1, 24])
    @pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
    def test_equal_the_yule_walker_solve(self, order, spacing):
        from scipy.linalg import solve_toeplitz
        from scipy.signal import lfilter

        rng = np.random.default_rng(90 + order)
        ar = np.zeros(order * spacing + 1)
        ar[0] = 1.0
        ar[spacing::spacing] = -pacf_to_coeffs(rng.uniform(-0.8, 0.8, size=order))
        x = lfilter([1.0], ar, rng.normal(size=4000))
        g = _autocovariances(x, np.arange(order + 1) * spacing)
        want = coeffs_to_pacf(solve_toeplitz(g[:-1], g[1:]))
        np.testing.assert_allclose(_durbin_levinson(g), want, rtol=1e-10)
        np.testing.assert_allclose(_sample_partials(x, order, spacing), want, rtol=1e-10)

    def test_zeros_where_the_sample_cannot_give_them(self):
        constant = np.full(500, 3.0)
        assert _sample_partials(constant, 2).tolist() == [0.0, 0.0]
        assert _sample_partials(constant, 1, spacing=24).tolist() == [0.0]
        short = np.random.default_rng(96).normal(size=48)
        assert _sample_partials(short, 2, spacing=24).tolist() == [0.0, 0.0]
        assert _sample_partials(short, 1, spacing=48).tolist() == [0.0]
        assert _sample_partials(short, 0, spacing=24).shape == (0,)

    def test_breakdown_raises(self):
        # a unit lag-1 autocorrelation leaves no innovation variance for lag 2
        with pytest.raises(DegenerateSeries, match="lag 2"):
            _durbin_levinson([1.0, 1.0, 0.5])


class TestFit:
    def test_white_noise_closed_form(self):
        rng = np.random.default_rng(72)
        y = series(rng.normal(3.0, 2.0, size=500))
        fitted = fit(ModelSpec(constant=True), y, options=FAST)
        assert fitted.params.mu == pytest.approx(y.values.mean(), abs=1e-8)
        assert fitted.params.sigma2 == pytest.approx(y.values.var(), abs=1e-8)
        assert fitted.diagnostics == Diagnostics(converged=True, iterations=0, evaluations=1)

    def test_regression_only_closed_form(self):
        from lmpcast.arima import ExogenousMatrix

        rng = np.random.default_rng(87)
        x = rng.normal(size=400)
        y = series(2.5 + 1.5 * x + rng.normal(0.0, 0.5, size=400))
        exog = ExogenousMatrix((series(x),))
        fitted = fit(ModelSpec(exog_count=1), y, exog, options=FAST)
        X = np.column_stack([np.ones(400), x])
        coef, *_ = np.linalg.lstsq(X, y.values, rcond=None)
        assert fitted.params.mu == pytest.approx(coef[0], abs=1e-10)
        assert fitted.params.gamma[0] == pytest.approx(coef[1], abs=1e-10)
        resid = y.values - X @ coef
        assert fitted.params.sigma2 == pytest.approx(np.dot(resid, resid) / 400, rel=1e-12)
        assert fitted.diagnostics == Diagnostics(converged=True, iterations=0, evaluations=1)
        no_constant = fit(ModelSpec(exog_count=1, constant=False), y, exog, options=FAST)
        assert no_constant.params.mu == 0.0
        assert no_constant.params.gamma[0] == pytest.approx(np.dot(x, y.values) / np.dot(x, x), abs=1e-10)

    def test_ar1_matches_conditional_least_squares(self):
        spec = ModelSpec(p=1, constant=False)
        y = simulate(spec, ParameterVector(phi=(0.6,), sigma2=1.0), 2000, seed=73)
        v = y.values
        wbar = v.mean()
        cls_hat = (np.dot(v[1:], v[:-1]) + v[0] * wbar) / (np.dot(v[:-1], v[:-1]) + wbar**2)
        fitted = fit(spec, y, options=FAST)
        assert fitted.params.phi[0] == pytest.approx(cls_hat, abs=1e-4)

    def test_arma11_recovery(self):
        spec = ModelSpec(p=1, q=1, constant=True)
        params = ParameterVector(phi=(0.7,), theta=(0.3,), mu=0.0, sigma2=1.0)
        y = simulate(spec, params, 5000, seed=74)
        fitted = fit(spec, y, options=FAST)
        assert fitted.params.phi[0] == pytest.approx(0.7, abs=0.05)
        assert fitted.params.theta[0] == pytest.approx(0.3, abs=0.05)

    def test_deterministic(self):
        spec = ModelSpec(p=1, q=1, constant=True)
        y = simulate(spec, ParameterVector(phi=(0.5,), theta=(0.2,), mu=0.1, sigma2=1.0), 1000, seed=75)
        opts = FitOptions(restarts=3, seed=9)
        a = fit(spec, y, options=opts)
        b = fit(spec, y, options=opts)
        assert a.params == b.params
        assert a.loglik == b.loglik

    def test_reported_loglik_consistent(self):
        spec = ModelSpec(p=2, q=1, constant=True)
        y = simulate(spec, ParameterVector(phi=(0.5, 0.2), theta=(0.3,), mu=0.0, sigma2=1.5), 2000, seed=76)
        fitted = fit(spec, y, options=FAST)
        recomputed = log_likelihood(spec, fitted.params, y)
        assert fitted.loglik == pytest.approx(recomputed, abs=1e-9)

    def test_returned_params_stable(self):
        spec = ModelSpec(p=2, q=2, constant=True)
        # fit a deliberately overparameterized model on near-unit-root data
        y = simulate(ModelSpec(p=1), ParameterVector(phi=(0.97,), mu=0.0, sigma2=1.0), 1500, seed=77)
        fitted = fit(spec, y, options=FAST)
        assert is_stable(ar_polynomial(spec, fitted.params)).stable
        assert is_stable(ma_polynomial(spec, fitted.params)).stable

    def test_exog_coefficient_recovery(self):
        from lmpcast.arima import ExogenousMatrix, burn_in
        from lmpcast.series import HOUR, weekend_indicator

        spec = ModelSpec(p=1, exog_count=1, constant=True)
        params = ParameterVector(phi=(0.5,), mu=1.0, gamma=(4.0,), sigma2=1.0)
        n = 4000
        need = n + burn_in(spec)
        sim_exog = ExogenousMatrix(
            (weekend_indicator(DEFAULT_ORIGIN - (need - n) * HOUR, need),)
        )
        y = simulate(spec, params, n, exog=sim_exog, seed=78)
        fit_exog = ExogenousMatrix((weekend_indicator(y.start, n),))
        fitted = fit(spec, y, fit_exog, options=FAST)
        assert fitted.params.gamma[0] == pytest.approx(4.0, abs=0.2)
        assert fitted.params.phi[0] == pytest.approx(0.5, abs=0.05)

    def test_warm_start_reaches_the_cold_optimum_in_fewer_evaluations(self):
        spec = ModelSpec(p=1, q=2)
        truth = ParameterVector(phi=(0.9,), theta=(0.25, 0.1), mu=0.6, sigma2=1.0)
        y = simulate(spec, truth, 3000, seed=88)
        cold = fit(spec, y, options=FAST)
        warm = fit(spec, y, options=FAST, start=cold.params)
        assert cold.diagnostics.converged and warm.diagnostics.converged
        assert warm.loglik == pytest.approx(cold.loglik, abs=1e-6)
        assert warm.diagnostics.evaluations < cold.diagnostics.evaluations

    def test_warm_start_is_padded_or_truncated_in_pacf_coordinates(self):
        from lmpcast.estimation import _starting_vector, _unpack, coeffs_to_pacf

        start = ParameterVector(phi=(0.5, -0.2), theta=(0.3,), mu=1.0)
        w = np.zeros(100)
        # padding appends zero partial autocorrelations: the same polynomials
        wider = ModelSpec(p=3, q=2)
        shape = _unpack(wider, _starting_vector(wider, w, start))
        np.testing.assert_allclose(shape.phi, [0.5, -0.2, 0.0], atol=1e-12)
        np.testing.assert_allclose(shape.theta, [0.3, 0.0], atol=1e-12)
        # truncation keeps the leading partial autocorrelations
        narrower = ModelSpec(p=1)
        shape = _unpack(narrower, _starting_vector(narrower, w, start))
        np.testing.assert_allclose(shape.phi, coeffs_to_pacf(np.array(start.phi))[:1], atol=1e-12)
        assert shape.theta == []

    def test_fewer_working_hours_than_coefficients_rejected(self):
        # ARMA(5,5) needs six hours to filter at all, but ten to be determined
        y = series(np.random.default_rng(97).normal(size=8))
        with pytest.raises(SeriesTooShort, match="8 working hours cannot determine 10 AR/MA coefficients"):
            fit(ModelSpec(p=5, q=5), y, options=FAST)

    def test_starts_with_non_finite_innovations_fail(self):
        # every start of an overflowing working series is a failed start
        from lmpcast.estimation import _fit_shape

        w = np.random.default_rng(98).normal(size=200)
        w[50] = np.inf
        with np.errstate(all="ignore"), pytest.raises(EstimationFailed, match="no optimizer start produced"):
            _fit_shape(ModelSpec(p=1, q=1), w, None, np.zeros(2), FitOptions(restarts=2))

    def test_options_validation(self):
        with pytest.raises(ValueError):
            FitOptions(max_iterations=50)
        with pytest.raises(ValueError):
            FitOptions(tolerance=1e-3)
        with pytest.raises(ValueError):
            FitOptions(restarts=0)

    def test_negative_seed_rejected_naming_it(self):
        # a constant-only fit never draws from the seed, so the options must refuse it
        with pytest.raises(ValueError, match=r"seed = -1: expected a non-negative integer"):
            FitOptions(restarts=3, seed=-1)


class TestBic:
    def test_arithmetic(self):
        assert bic(0.0, 2, round(math.e**2)) == pytest.approx(
            2.0 * math.log(round(math.e**2)), abs=1e-12
        )
        assert bic(-10.0, 0, 100) == 20.0

    def test_exact_example(self):
        # n chosen so ln(n) = 2 exactly is impossible with integer n; check formula
        assert bic(1.5, 3, 50) == pytest.approx(-3.0 + 3.0 * math.log(50.0), abs=1e-12)

    def test_penalizes_irrelevant_parameter(self):
        spec1 = ModelSpec(p=1, q=1, constant=True)
        spec2 = ModelSpec(p=2, q=1, constant=True)
        params = ParameterVector(phi=(0.6,), theta=(0.3,), mu=0.0, sigma2=1.0)
        hits = 0
        for trial in range(50):
            y = simulate(spec1, params, 2000, seed=800 + trial)
            b1 = fit(spec1, y, options=FAST).bic
            b2 = fit(spec2, y, options=FAST).bic
            hits += b2 > b1
        assert hits >= 45


class TestBicTable:
    def test_best_is_minimum(self):
        table = BicTable(
            p_values=(1, 2), q_values=(1, 2),
            cells={(1, 1): 10.0, (1, 2): 8.0, (2, 1): 9.0, (2, 2): 11.0},
            failures={},
        )
        assert table.best() == (1, 2)

    def test_tie_prefers_smaller_order_sum_then_q(self):
        table = BicTable(
            p_values=(1, 2), q_values=(1, 2),
            cells={(1, 1): 5.0, (2, 2): 5.0, (1, 2): 7.0, (2, 1): 7.0},
            failures={},
        )
        assert table.best() == (1, 1)
        table2 = BicTable(
            p_values=(1, 2), q_values=(1, 2),
            cells={(1, 2): 5.0, (2, 1): 5.0, (1, 1): 7.0, (2, 2): 7.0},
            failures={},
        )
        assert table2.best() == (2, 1)  # equal p+q, smaller q wins

    def test_render_marks_failures(self):
        table = BicTable(
            p_values=(1,), q_values=(1, 2),
            cells={(1, 1): 3.25}, failures={(1, 2): "EstimationFailed: boom"},
        )
        text = table.render()
        assert "failed" in text
        assert "3.2" in text

    def test_empty_cells_raise(self):
        table = BicTable(p_values=(1,), q_values=(1,), cells={}, failures={(1, 1): "x"})
        with pytest.raises(EstimationFailed):
            table.best()


class TestGridSelect:
    def test_single_cell_grid(self):
        y = simulate(ModelSpec(p=1), ParameterVector(phi=(0.5,), mu=0.0, sigma2=1.0), 600, seed=79)
        chosen, table = grid_select(y, None, [2], [1], ModelSpec(p=1, constant=True), FAST)
        assert (chosen.p, chosen.q) == (2, 1)
        assert set(table.cells) == {(2, 1)}

    def test_chosen_cell_is_minimum(self):
        spec = ModelSpec(p=1, q=1, constant=True)
        y = simulate(spec, ParameterVector(phi=(0.7,), theta=(0.3,), mu=0.0, sigma2=1.0), 2000, seed=80)
        chosen, table = grid_select(y, None, range(1, 3), range(1, 3), spec, FAST)
        best_bic = table.cells[(chosen.p, chosen.q)]
        assert all(best_bic <= v for v in table.cells.values())

    def test_template_structure_preserved(self):
        from lmpcast.lagpoly import DifferenceSpec

        base = ModelSpec(p=1, q=1, P=1, Q=1, diff=DifferenceSpec(D=1, S=24), constant=True)
        y = simulate(
            ModelSpec(p=1, diff=DifferenceSpec(D=1, S=24)),
            ParameterVector(phi=(0.5,), mu=0.0, sigma2=1.0),
            1200,
            seed=81,
        )
        chosen, _ = grid_select(y, None, [1], [1], base, FAST)
        assert (chosen.P, chosen.Q, chosen.diff.D, chosen.diff.S) == (1, 1, 1, 24)


class TestFitGarch:
    def test_homoskedastic_scale(self):
        rng = np.random.default_rng(82)
        eps = series(rng.normal(0.0, 2.0, size=8000))
        params, _ = fit_garch(eps, GarchSpec(p=1, q=0), FAST)
        assert params.alpha0 + params.alpha[0] * 4.0 == pytest.approx(4.0, rel=0.05)

    def test_short_input_rejected(self):
        rng = np.random.default_rng(83)
        with pytest.raises(SeriesTooShort):
            fit_garch(series(rng.normal(size=50)), GarchSpec(p=1, q=1), FAST)

    def test_degenerate_input_rejected(self):
        with pytest.raises(EstimationFailed):
            fit_garch(series(np.zeros(200)), GarchSpec(p=1, q=1), FAST)

    def test_deterministic(self):
        rng = np.random.default_rng(84)
        eps = series(rng.normal(size=500))
        a = fit_garch(eps, GarchSpec(p=1, q=1), FitOptions(restarts=2, seed=3))
        b = fit_garch(eps, GarchSpec(p=1, q=1), FitOptions(restarts=2, seed=3))
        assert a == b


class TestModelForecast:
    def test_combined_variance_formula(self):
        self._check_combined_variance(
            ModelSpec(p=1, constant=True), ParameterVector(phi=(0.6,), mu=0.0, sigma2=1.0), 3000
        )

    def test_combined_variance_formula_far_mean_short_history(self):
        # the backcast of the first residuals still shows in the variance forecast
        self._check_combined_variance(
            ModelSpec(p=2, q=1), ParameterVector(phi=(0.5, 0.2), theta=(0.3,), mu=30.0, sigma2=1.0), 80
        )

    @staticmethod
    def _check_combined_variance(spec, params, n):
        # layered variance must equal sum over j < h of psi_j^2 * g(h - j)
        y = simulate(spec, params, n, seed=85)
        fitted = fit(spec, y, options=FAST)
        gparams = GarchParams(alpha0=0.1, alpha=(0.2,), beta=(0.7,))
        combined = replace(fitted, garch=(GarchSpec(p=1, q=1), gparams))
        out = model_forecast(combined, y, horizon=5)
        eps = residuals(spec, combined.params, y)
        gvar = forecast_variance(gparams, eps, 5)
        for h in range(1, 6):
            want = sum(out.psi[j] ** 2 * gvar[h - 1 - j] for j in range(h))
            assert out.variance[h - 1] == pytest.approx(want, abs=1e-12)

    def test_without_garch_matches_forecast(self):
        from lmpcast.arima import forecast

        spec = ModelSpec(p=1, q=1, constant=True)
        y = simulate(spec, ParameterVector(phi=(0.6,), theta=(0.2,), mu=0.0, sigma2=1.0), 1000, seed=86)
        fitted = fit(spec, y, options=FAST)
        direct = forecast(spec, fitted.params, y, horizon=4)
        via = model_forecast(fitted, y, horizon=4)
        np.testing.assert_array_equal(direct.mean.values, via.mean.values)
        np.testing.assert_array_equal(direct.variance, via.variance)
