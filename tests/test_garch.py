"""GARCH variance layer: recursion, likelihood, forecasting, two-stage fit."""

import math

import numpy as np
import pytest

from lmpcast import garch
from lmpcast.arima import DEFAULT_ORIGIN, ModelSpec, ParameterVector
from lmpcast.errors import InvalidParameters
from lmpcast.estimation import FitOptions, fit, fit_garch
from lmpcast.garch import (
    GarchParams,
    GarchSpec,
    attach_garch,
    conditional_variances,
    forecast_variance,
    forecast_variance_origins,
    garch_log_likelihood,
)
from lmpcast.series import UNITS_NONE, HourlySeries


def series(values):
    return HourlySeries(DEFAULT_ORIGIN, np.asarray(values, dtype=np.float64), UNITS_NONE)


def brute_variances(params, eps):
    """Plain-loop recursion with both presamples at the sample variance."""
    v0 = float(np.var(eps))
    p, q = len(params.alpha), len(params.beta)
    sig2 = []
    for t in range(len(eps)):
        v = params.alpha0
        for i, a in enumerate(params.alpha, start=1):
            v += a * (eps[t - i] ** 2 if t - i >= 0 else v0)
        for j, b in enumerate(params.beta, start=1):
            v += b * (sig2[t - j] if t - j >= 0 else v0)
        sig2.append(v)
    return np.array(sig2)


def expected_path_loop(alpha0, alpha, beta, eps2, past, horizon):
    """Step-by-step forecast recursion, one row per origin: a future squared
    residual enters as its expected value, the variance forecast for its step."""
    p, q = len(alpha), len(beta)
    eps2 = [eps2[:, i] for i in range(p)]
    past = [past[:, j] for j in range(q)]
    out = np.empty((eps2[0].shape[0], horizon))
    for h in range(horizon):
        step = np.full(out.shape[0], alpha0)
        for i in range(1, p + 1):
            step = step + alpha[i - 1] * eps2[-i]
        for j in range(1, q + 1):
            step = step + beta[j - 1] * past[-j]
        out[:, h] = step
        eps2.append(step)
        past.append(step)
    return out


def simulate_garch(alpha0, alpha1, beta1, n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=n + 500)
    sig2 = alpha0 / (1.0 - alpha1 - beta1)
    eps_prev = math.sqrt(sig2) * z[0]
    out = np.empty(n + 500)
    out[0] = eps_prev
    for t in range(1, n + 500):
        sig2 = alpha0 + alpha1 * eps_prev**2 + beta1 * sig2
        eps_prev = math.sqrt(sig2) * z[t]
        out[t] = eps_prev
    return out[500:]


class TestParams:
    def test_spec_needs_arch_term(self):
        with pytest.raises(ValueError):
            GarchSpec(p=0, q=1)

    def test_nonnegativity(self):
        with pytest.raises(InvalidParameters):
            GarchParams(alpha0=0.0, alpha=(0.1,), beta=())
        with pytest.raises(InvalidParameters):
            GarchParams(alpha0=0.1, alpha=(-0.1,), beta=())
        with pytest.raises(InvalidParameters):
            GarchParams(alpha0=0.1, alpha=(0.1,), beta=(-0.5,))

    def test_stationarity(self):
        with pytest.raises(InvalidParameters):
            GarchParams(alpha0=0.1, alpha=(0.5,), beta=(0.5,))
        params = GarchParams(alpha0=0.1, alpha=(0.2,), beta=(0.7,))
        assert params.persistence == pytest.approx(0.9)
        assert params.unconditional_variance == pytest.approx(1.0)


class TestConditionalVariances:
    def test_one_step_hand_example(self):
        # residuals [1, -1] have sample variance 1, so both presamples are 1:
        # sigma2_1 = 0.1 + 0.2 + 0.7 = 1.0 and sigma2_2 = 0.1 + 0.2*1 + 0.7*1
        params = GarchParams(alpha0=0.1, alpha=(0.2,), beta=(0.7,))
        out = conditional_variances(params, series([1.0, -1.0]))
        np.testing.assert_allclose(out.values, [1.0, 1.0], atol=1e-12)

    def test_degenerate_homoskedastic(self):
        params = GarchParams(alpha0=0.5, alpha=(0.0,), beta=(0.0,))
        rng = np.random.default_rng(50)
        out = conditional_variances(params, series(rng.normal(size=20)))
        np.testing.assert_allclose(out.values, np.full(20, 0.5), atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(51)
        eps = rng.normal(size=10)
        for params in (
            GarchParams(alpha0=0.1, alpha=(0.2,), beta=(0.7,)),
            GarchParams(alpha0=0.3, alpha=(0.1, 0.05), beta=()),
            GarchParams(alpha0=0.2, alpha=(0.15,), beta=(0.4, 0.2)),
        ):
            got = conditional_variances(params, series(eps))
            np.testing.assert_allclose(got.values, brute_variances(params, eps), atol=1e-10)

    def test_strictly_positive(self):
        rng = np.random.default_rng(52)
        params = GarchParams(alpha0=1e-8, alpha=(0.3,), beta=(0.6,))
        out = conditional_variances(params, series(rng.normal(size=500)))
        assert np.all(out.values > 0.0)

    def test_unconditional_variance_of_simulation(self):
        eps = simulate_garch(0.1, 0.2, 0.7, 100000, seed=53)
        assert np.var(eps) == pytest.approx(1.0, rel=0.05)


class TestLikelihood:
    def test_homoskedastic_reduces_to_gaussian(self):
        rng = np.random.default_rng(54)
        eps = rng.normal(size=50)
        params = GarchParams(alpha0=2.0, alpha=(0.0,), beta=())
        want = np.sum(-0.5 * np.log(2.0 * np.pi * 2.0) - eps**2 / 4.0)
        got = garch_log_likelihood(params, series(eps))
        assert got == pytest.approx(want, abs=1e-10)

    def test_three_observation_brute_force(self):
        eps = np.array([0.5, -1.5, 1.0])
        params = GarchParams(alpha0=0.2, alpha=(0.3,), beta=(0.4,))
        sig2 = brute_variances(params, eps)
        want = sum(
            -0.5 * math.log(2.0 * math.pi * s) - e * e / (2.0 * s)
            for e, s in zip(eps, sig2)
        )
        got = garch_log_likelihood(params, series(eps))
        assert got == pytest.approx(want, abs=1e-10)

    def test_true_params_beat_perturbed(self):
        params = GarchParams(alpha0=0.1, alpha=(0.2,), beta=(0.7,))
        wins = 0
        for trial in range(100):
            eps = series(simulate_garch(0.1, 0.2, 0.7, 5000, seed=600 + trial))
            at_true = garch_log_likelihood(params, eps)
            worse = max(
                garch_log_likelihood(GarchParams(alpha0=0.1, alpha=(0.05,), beta=(0.7,)), eps),
                garch_log_likelihood(GarchParams(alpha0=0.1, alpha=(0.35,), beta=(0.55,)), eps),
            )
            wins += at_true > worse
        assert wins >= 95


class TestForecastVariance:
    def test_homoskedastic(self):
        rng = np.random.default_rng(55)
        params = GarchParams(alpha0=0.7, alpha=(0.0,), beta=())
        out = forecast_variance(params, series(rng.normal(size=30)), 5)
        np.testing.assert_allclose(out, np.full(5, 0.7), atol=1e-12)

    def test_geometric_approach_to_limit(self):
        rng = np.random.default_rng(56)
        params = GarchParams(alpha0=0.1, alpha=(0.2,), beta=(0.7,))
        out = forecast_variance(params, series(rng.normal(size=200)), 20)
        gaps = out - 1.0
        for h in range(1, 20):
            assert gaps[h] == pytest.approx(0.9 * gaps[h - 1], abs=1e-12)

    def test_monotone_toward_limit(self):
        params = GarchParams(alpha0=0.1, alpha=(0.2,), beta=(0.7,))
        # large last shock puts current variance above the limit: decreasing
        high = forecast_variance(params, series([0.0] * 50 + [5.0]), 10)
        assert np.all(np.diff(high) <= 1e-12)
        low = forecast_variance(params, series([0.0] * 50 + [0.01]), 10)
        assert np.all(np.diff(low) >= -1e-12)

    def test_monte_carlo_ten_step(self):
        params = GarchParams(alpha0=0.1, alpha=(0.2,), beta=(0.7,))
        hist = simulate_garch(0.1, 0.2, 0.7, 300, seed=57)
        want = forecast_variance(params, series(hist), 10)
        # continue the recursion over 10^5 random futures from the same state
        sig2_hist = brute_variances(params, hist)
        rng = np.random.default_rng(58)
        paths = 100000
        z = rng.normal(size=(paths, 10))
        sig2 = np.full(paths, 0.1 + 0.2 * hist[-1] ** 2 + 0.7 * sig2_hist[-1])
        mc = np.empty(10)
        for h in range(10):
            if h > 0:
                sig2 = 0.1 + 0.2 * eps**2 + 0.7 * sig2
            eps = np.sqrt(sig2) * z[:, h]
            mc[h] = np.mean(eps**2)
        np.testing.assert_allclose(mc, want, rtol=0.05)


    @pytest.mark.parametrize(
        "params",
        [
            GarchParams(alpha0=0.2, alpha=(0.1, 0.5)),
            GarchParams(alpha0=0.1, alpha=(0.1, 0.3), beta=(0.2, 0.1)),
        ],
    )
    def test_monte_carlo_higher_orders(self, params):
        # lagged shocks and variances known at the origin must enter every
        # step they reach, not only the first
        hist = np.concatenate([simulate_garch(0.1, 0.2, 0.7, 300, seed=62), [5.0]])
        want = forecast_variance(params, series(hist), 5)
        sig2_hist = brute_variances(params, hist)
        p, q = len(params.alpha), len(params.beta)
        rng = np.random.default_rng(63)
        z = rng.normal(size=(200000, 5))
        shocks2 = [np.full(z.shape[0], e**2) for e in hist[-p:]]
        variances = [np.full(z.shape[0], v) for v in sig2_hist[len(hist) - q :]]
        mc = np.empty(5)
        for h in range(5):
            sig2 = params.alpha0 + sum(a * shocks2[-i] for i, a in enumerate(params.alpha, start=1))
            sig2 = sig2 + sum(b * variances[-j] for j, b in enumerate(params.beta, start=1))
            shocks2.append(sig2 * z[:, h] ** 2)
            variances.append(sig2)
            mc[h] = np.mean(shocks2[-1])
        np.testing.assert_allclose(want, mc, rtol=0.03)
        # the first-order shortcut misses the known lag-2 shock at step 2
        assert abs(want[1] - (params.alpha0 + params.persistence * want[0])) > 0.1 * want[1]


@pytest.mark.parametrize(
    "params",
    [
        GarchParams(alpha0=0.1, alpha=(0.2,), beta=(0.7,)),
        GarchParams(alpha0=0.2, alpha=(0.1, 0.5)),
        GarchParams(alpha0=0.1, alpha=(0.1, 0.3), beta=(0.2, 0.1)),
    ],
)
def test_many_origins_match_one_forecast_per_origin(params):
    # origin i's residuals are e[:end] + shift * r[:end]; ends 1 and 2 are
    # shorter than the lags, so the presample backcast enters too
    rng = np.random.default_rng(64)
    e = simulate_garch(0.1, 0.2, 0.7, 400, seed=65)
    r = 0.9 ** np.arange(400) * 3.0
    shifts = rng.normal(size=12)
    ends = np.array([1, 2, 3, 10, 50, 120, 200, 201, 333, 398, 399, 400])
    got = forecast_variance_origins(params, e, r, shifts, ends, 6)
    for row, shift, end in zip(got, shifts, ends):
        want = forecast_variance(params, series(e[:end] + shift * r[:end]), 6)
        np.testing.assert_allclose(row, want, rtol=1e-12, atol=0)


@pytest.mark.parametrize(
    "params",
    [
        GarchParams(alpha0=0.1, alpha=(0.2,), beta=(0.7,)),
        GarchParams(alpha0=0.2, alpha=(0.1, 0.5)),
        GarchParams(alpha0=0.1, alpha=(0.1, 0.3), beta=(0.2, 0.1)),
        GarchParams(alpha0=0.05, alpha=(0.15,), beta=(0.3, 0.2, 0.25)),
    ],
    ids=["garch11", "garch20", "garch22", "garch13"],
)
def test_filtered_path_matches_step_by_step_recursion(params):
    # the horizon runs shorter and longer than the lags, over 300 origins
    rng = np.random.default_rng(66)
    alpha, beta = np.asarray(params.alpha), np.asarray(params.beta)
    eps2 = rng.chisquare(1, size=(300, alpha.shape[0])) * rng.uniform(0.1, 10.0, size=(300, 1))
    past = rng.uniform(0.1, 10.0, size=(300, beta.shape[0]))
    for horizon in (1, 2, 24):
        want = expected_path_loop(params.alpha0, alpha, beta, eps2, past, horizon)
        got = garch._expected_path(params.alpha0, alpha, beta, eps2, past, horizon)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestAttachGarch:
    def arma_fit(self, values, seed=0):
        opts = FitOptions(restarts=1, seed=seed)
        return fit(ModelSpec(constant=True), series(values), options=opts)

    def test_iid_residuals_effectively_homoskedastic(self):
        # with alpha1 near 0 the likelihood is flat in beta1 (ridge), so the
        # identified content is: negligible ARCH effect and a variance path
        # that stays near the sample variance
        rng = np.random.default_rng(59)
        fitted = self.arma_fit(rng.normal(size=10000))
        combined = attach_garch(fitted, GarchSpec(p=1, q=1))
        _, gparams = combined.garch
        assert gparams.alpha[0] < 0.1
        v = np.var(fitted.residuals.values)
        path = conditional_variances(gparams, fitted.residuals).values
        assert np.max(np.abs(path - v)) / v < 0.15
        assert gparams.unconditional_variance == pytest.approx(v, rel=0.1)

    def test_point_forecasts_unchanged(self):
        from lmpcast.estimation import model_forecast

        eps = simulate_garch(0.1, 0.2, 0.7, 2000, seed=60)
        y = series(np.cumsum(np.zeros_like(eps)) + eps + 3.0)
        fitted = fit(ModelSpec(q=1, constant=True), y, options=FitOptions(restarts=1, seed=1))
        combined = attach_garch(fitted, GarchSpec(p=1, q=1))
        plain = model_forecast(fitted, y, horizon=6)
        layered = model_forecast(combined, y, horizon=6)
        assert np.array_equal(plain.mean.values, layered.mean.values)
        assert not np.allclose(plain.variance, layered.variance)

    @pytest.mark.parametrize("options", [FitOptions(restarts=1), FitOptions(restarts=1, tolerance=1e-300),
                                         FitOptions(restarts=3)], ids=["default_tolerance", "tolerance_1e-300",
                                                                       "restarts_3"])
    def test_no_arch_effect_is_the_constant_variance_model(self, options):
        # on these draws alpha ends at 0, where the QML is flat along beta:
        # the ridge point the search stops on (beta 0.793, 0.937 and 0.841
        # under these settings) means nothing, so the fit reports constant
        # variance at the mean squared residual, where that QML peaks
        eps = series(np.random.default_rng(59).normal(size=10_000))
        params, diagnostics = fit_garch(eps, GarchSpec(1, 1), options)
        assert (params.alpha, params.beta) == ((0.0,), (0.0,))
        assert params.alpha0 == pytest.approx(np.mean(eps.values**2), rel=1e-12)
        assert "garch_beta_unidentified" in diagnostics.boundary_flags
        assert "garch_alpha_at_zero" in diagnostics.boundary_flags
        path = conditional_variances(params, eps).values
        assert np.array_equal(path, np.full(len(eps), params.alpha0))
        for scale in (0.999, 1.001):
            nearby = GarchParams(alpha0=scale * params.alpha0, alpha=(0.0,), beta=(0.0,))
            assert garch_log_likelihood(nearby, eps) < garch_log_likelihood(params, eps)

    def test_an_arch_effect_keeps_beta(self):
        params, diagnostics = fit_garch(series(simulate_garch(0.1, 0.1, 0.8, 10_000, seed=61)), GarchSpec(1, 1),
                                        FitOptions(restarts=1))
        assert params.alpha[0] > 0.05 and params.beta[0] > 0.5
        assert "garch_beta_unidentified" not in diagnostics.boundary_flags

    def test_parameter_recovery(self):
        eps = simulate_garch(0.1, 0.1, 0.8, 10000, seed=61)
        fitted = self.arma_fit(eps, seed=2)
        combined = attach_garch(fitted, GarchSpec(p=1, q=1))
        _, gparams = combined.garch
        assert gparams.alpha0 == pytest.approx(0.1, abs=0.05)
        assert gparams.alpha[0] == pytest.approx(0.1, abs=0.05)
        assert gparams.beta[0] == pytest.approx(0.8, abs=0.08)
