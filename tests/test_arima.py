"""Seasonal ARIMA(X) engine: likelihood, simulation, forecasting.

The load-bearing checks compare the vectorized recursions against
brute-force pure-Python reimplementations of the same model equations
(expanded independently with numpy.polymul), so a shared bug in the fast
path cannot hide.
"""

import math
import re
from datetime import datetime, timezone

import numpy as np
import pytest

from lmpcast.arima import (
    DEFAULT_ORIGIN,
    ExogenousMatrix,
    ModelSpec,
    ParameterVector,
    burn_in,
    check_conforms,
    forecast,
    forecast_origins,
    log_likelihood,
    residuals,
    simulate,
)
from lmpcast.errors import (
    AlignmentError,
    MissingExogenousFuture,
    SeriesTooShort,
    UnstableParameters,
)
from lmpcast.estimation import Diagnostics, FitOptions, assemble_fit, fit, model_forecast
from lmpcast.lagpoly import DifferenceSpec
from lmpcast.series import HOUR, UNITS_NONE, HourlySeries, weekend_indicator


def series(values, start=DEFAULT_ORIGIN):
    return HourlySeries(start, np.asarray(values, dtype=np.float64), UNITS_NONE)


# ---------------------------------------------------------------------------
# brute-force oracle: the model equations written as plain loops

def expand(factors, spacings):
    """Dense coefficients of a product of (1 - a1 B^s - a2 B^2s - ...) factors."""
    dense = np.array([1.0])
    for coeffs, s in zip(factors, spacings):
        factor = np.zeros(len(coeffs) * s + 1)
        factor[0] = 1.0
        for i, a in enumerate(coeffs, start=1):
            factor[i * s] = -a
        dense = np.polymul(dense, factor)
    return dense


def oracle_setup(spec, params):
    S = spec.diff.S
    ar = expand([params.phi, params.Phi], [1, S])
    ma = expand([params.theta, params.Theta], [1, S])
    diff = expand(
        [[1.0]] * spec.diff.d + [[1.0]] * spec.diff.D,
        [1] * spec.diff.d + [S] * spec.diff.D,
    )
    return ar, ma, diff


def oracle_difference(diff, y):
    k = len(diff) - 1
    return np.array(
        [sum(diff[j] * y[t - j] for j in range(k + 1)) for t in range(k, len(y))]
    )


def oracle_innovations(ar, ma, w, mu, xg):
    """Residual recursion: presample w backcast with the sample mean, presample eps 0."""
    wbar = w.mean()
    eps = np.zeros(len(w))
    for t in range(len(w)):
        v = sum(ar[j] * (w[t - j] if t - j >= 0 else wbar) for j in range(len(ar)))
        rhs = v - mu - xg[t]
        eps[t] = rhs - sum(ma[j] * eps[t - j] for j in range(1, len(ma)) if t - j >= 0)
    return eps


def oracle_forecast(ar, ma, diff, y_hist, eps_hist, mu, xg_future, horizon):
    """Recurse the working equation with future eps = 0, then undo differencing."""
    w = list(oracle_difference(diff, y_hist))
    eps = [0.0] * (len(y_hist) - len(w)) + list(eps_hist)  # align eps to w grid
    eps = eps[-len(w):]
    y = list(y_hist)
    out = []
    for i in range(horizon):
        t = len(w)
        val = mu + xg_future[i]
        val -= sum(ar[j] * w[t - j] for j in range(1, len(ar)))
        # appended zeros stand in for unknown future innovations
        val += sum(ma[j] * eps[t - j] for j in range(1, len(ma)))
        w.append(val)
        eps.append(0.0)
        level = val - sum(diff[j] * y[len(y) - j] for j in range(1, len(diff)))
        y.append(level)
        out.append(level)
    return np.array(out)


def oracle_psi(ar, ma, diff, horizon):
    """Impulse response of ma(B) / (ar(B) * diff(B)) by long division."""
    denom = np.polymul(ar, diff)
    psi = []
    for t in range(horizon):
        val = ma[t] if t < len(ma) else 0.0
        val -= sum(denom[j] * psi[t - j] for j in range(1, min(t, len(denom) - 1) + 1))
        psi.append(val)
    return np.array(psi)


SARIMA_SPEC = ModelSpec(p=1, q=1, P=1, Q=1, diff=DifferenceSpec(d=0, D=1, S=24))
SARIMA_PARAMS = ParameterVector(
    phi=(0.5,), Phi=(0.3,), theta=(0.2,), Theta=(0.4,), mu=0.1, sigma2=1.0
)


class TestAgainstBruteForce:
    def test_residuals_match_oracle_arma(self):
        rng = np.random.default_rng(20)
        spec = ModelSpec(p=2, q=1)
        params = ParameterVector(phi=(0.5, -0.2), theta=(0.3,), mu=0.4, sigma2=1.0)
        y = series(rng.normal(size=60))
        ar, ma, diff = oracle_setup(spec, params)
        want = oracle_innovations(ar, ma, y.values, params.mu, np.zeros(60))
        got = residuals(spec, params, y)
        np.testing.assert_allclose(got.values, want, atol=1e-10)

    def test_residuals_match_oracle_sarima(self):
        rng = np.random.default_rng(21)
        y = series(rng.normal(size=120))
        ar, ma, diff = oracle_setup(SARIMA_SPEC, SARIMA_PARAMS)
        w = oracle_difference(diff, y.values)
        want = oracle_innovations(ar, ma, w, SARIMA_PARAMS.mu, np.zeros(len(w)))
        got = residuals(SARIMA_SPEC, SARIMA_PARAMS, y)
        assert got.start == y.start + 24 * HOUR
        np.testing.assert_allclose(got.values, want, atol=1e-10)

    def test_loglik_matches_oracle(self):
        rng = np.random.default_rng(22)
        y = series(rng.normal(size=120))
        ar, ma, diff = oracle_setup(SARIMA_SPEC, SARIMA_PARAMS)
        w = oracle_difference(diff, y.values)
        eps = oracle_innovations(ar, ma, w, SARIMA_PARAMS.mu, np.zeros(len(w)))
        want = sum(
            -0.5 * math.log(2.0 * math.pi * 1.0) - e * e / 2.0 for e in eps
        )
        got = log_likelihood(SARIMA_SPEC, SARIMA_PARAMS, y)
        assert got == pytest.approx(want, abs=1e-9)

    def test_forecast_mean_matches_oracle_sarima(self):
        rng = np.random.default_rng(23)
        y = series(rng.normal(size=150))
        ar, ma, diff = oracle_setup(SARIMA_SPEC, SARIMA_PARAMS)
        eps = residuals(SARIMA_SPEC, SARIMA_PARAMS, y)
        want = oracle_forecast(
            ar, ma, diff, y.values, eps.values, SARIMA_PARAMS.mu, np.zeros(30), 30
        )
        got = forecast(SARIMA_SPEC, SARIMA_PARAMS, y, horizon=30)
        assert got.mean.start == y.end
        np.testing.assert_allclose(got.mean.values, want, atol=1e-9)

    def test_forecast_variance_matches_oracle_psi(self):
        rng = np.random.default_rng(24)
        y = series(rng.normal(size=150))
        ar, ma, diff = oracle_setup(SARIMA_SPEC, SARIMA_PARAMS)
        psi = oracle_psi(ar, ma, diff, 30)
        got = forecast(SARIMA_SPEC, SARIMA_PARAMS, y, horizon=30)
        np.testing.assert_allclose(got.psi, psi, atol=1e-10)
        np.testing.assert_allclose(
            got.variance, SARIMA_PARAMS.sigma2 * np.cumsum(psi**2), atol=1e-10
        )


class TestLogLikelihood:
    def test_white_noise_at_zero(self):
        n = 128
        spec = ModelSpec(constant=True)
        params = ParameterVector(mu=0.0, sigma2=1.0)
        got = log_likelihood(spec, params, series(np.zeros(n)))
        assert got == pytest.approx(-(n / 2.0) * math.log(2.0 * math.pi), abs=1e-10)

    def test_ar1_argmax_matches_least_squares(self):
        # conditional least squares has a closed-form phi-hat; the likelihood
        # argmax differs only through the single backcast term, O(1/n)
        rng = np.random.default_rng(25)
        spec = ModelSpec(p=1, constant=False)
        y = simulate(spec, ParameterVector(phi=(0.6,), sigma2=1.0), 2000, seed=26)
        v = y.values
        cls_hat = np.dot(v[1:], v[:-1]) / np.dot(v[:-1], v[:-1])
        wbar = v.mean()
        exact_hat = (np.dot(v[1:], v[:-1]) + v[0] * wbar) / (np.dot(v[:-1], v[:-1]) + wbar**2)
        assert abs(exact_hat - cls_hat) < 1e-4

        def ll(phi):
            return log_likelihood(spec, ParameterVector(phi=(phi,), sigma2=1.0), y)

        assert ll(exact_hat) > ll(exact_hat - 1e-3)
        assert ll(exact_hat) > ll(exact_hat + 1e-3)

    def test_true_params_beat_perturbed(self):
        spec = ModelSpec(p=1, constant=False)
        wins = 0
        for trial in range(100):
            y = simulate(spec, ParameterVector(phi=(0.5,), sigma2=1.0), 2000, seed=100 + trial)
            at_true = log_likelihood(spec, ParameterVector(phi=(0.5,), sigma2=1.0), y)
            worse = max(
                log_likelihood(spec, ParameterVector(phi=(0.3,), sigma2=1.0), y),
                log_likelihood(spec, ParameterVector(phi=(0.7,), sigma2=1.0), y),
            )
            wins += at_true > worse
        assert wins >= 95

    def test_zero_padding_invariance(self):
        rng = np.random.default_rng(27)
        y = series(rng.normal(size=300))
        base = log_likelihood(
            ModelSpec(p=1, q=1), ParameterVector(phi=(0.5,), theta=(0.3,), mu=0.1, sigma2=1.0), y
        )
        padded_ar = log_likelihood(
            ModelSpec(p=2, q=1),
            ParameterVector(phi=(0.5, 0.0), theta=(0.3,), mu=0.1, sigma2=1.0),
            y,
        )
        padded_seasonal = log_likelihood(
            ModelSpec(p=1, q=1, P=1),
            ParameterVector(phi=(0.5,), Phi=(0.0,), theta=(0.3,), mu=0.1, sigma2=1.0),
            y,
        )
        assert abs(base - padded_ar) < 1e-10
        assert abs(base - padded_seasonal) < 1e-10

    def test_profile_locally_concave(self):
        spec = ModelSpec(p=1, constant=False)
        hits = 0
        for trial in range(20):
            y = simulate(spec, ParameterVector(phi=(0.6,), sigma2=1.0), 5000, seed=300 + trial)

            def ll(phi):
                return log_likelihood(spec, ParameterVector(phi=(phi,), sigma2=1.0), y)

            hits += ll(0.6) > 0.5 * (ll(0.58) + ll(0.62))
        assert hits >= 18

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            log_likelihood(SARIMA_SPEC, SARIMA_PARAMS, series(np.zeros(30)))

    def test_unstable_rejected(self):
        with pytest.raises(UnstableParameters):
            log_likelihood(
                ModelSpec(p=1),
                ParameterVector(phi=(1.2,), mu=0.0, sigma2=1.0),
                series(np.zeros(50)),
            )

    def test_check_conforms_shape(self):
        with pytest.raises(ValueError):
            check_conforms(ModelSpec(p=2), ParameterVector(phi=(0.5,), mu=0.0, sigma2=1.0))
        with pytest.raises(ValueError):
            check_conforms(ModelSpec(p=1), ParameterVector(phi=(0.5,), mu=0.1, sigma2=-1.0))


class TestResidualProperties:
    def test_white_noise_model_returns_adjusted_series(self):
        rng = np.random.default_rng(28)
        y = series(rng.normal(size=50))
        out = residuals(ModelSpec(constant=True), ParameterVector(mu=0.25, sigma2=1.0), y)
        np.testing.assert_allclose(out.values, y.values - 0.25, atol=1e-12)

    def test_mean_near_zero_at_true_params(self):
        spec = ModelSpec(p=1, q=1)
        params = ParameterVector(phi=(0.6,), theta=(0.2,), mu=0.0, sigma2=1.0)
        y = simulate(spec, params, 4000, seed=29)
        eps = residuals(spec, params, y).values
        assert abs(eps.mean()) < 3.0 / math.sqrt(len(eps))

    def test_whiteness_at_true_params(self):
        from lmpcast.series import sample_acf

        spec = ModelSpec(p=1, q=1)
        params = ParameterVector(phi=(0.6,), theta=(0.2,), mu=0.0, sigma2=1.0)
        y = simulate(spec, params, 4000, seed=30)
        eps = residuals(spec, params, y)
        acf = sample_acf(eps, 20)
        band = 2.0 / math.sqrt(len(eps))
        inside = sum(1 for k in range(1, 21) if abs(acf[k]) < band)
        assert inside >= 17


class TestSimulate:
    def test_white_noise_moments(self):
        y = simulate(ModelSpec(constant=True), ParameterVector(mu=0.0, sigma2=1.0), 10000, seed=31)
        assert abs(y.values.mean()) < 0.03
        assert abs(y.values.var() - 1.0) < 0.05

    def test_deterministic(self):
        spec = ModelSpec(p=1, q=2)
        params = ParameterVector(phi=(0.7,), theta=(0.2, 0.1), mu=0.0, sigma2=2.0)
        a = simulate(spec, params, 500, seed=32)
        b = simulate(spec, params, 500, seed=32)
        assert np.array_equal(a.values, b.values)
        c = simulate(spec, params, 500, seed=33)
        assert not np.array_equal(a.values, c.values)

    def test_ar1_acf(self):
        from lmpcast.series import sample_acf

        y = simulate(ModelSpec(p=1), ParameterVector(phi=(0.7,), mu=0.0, sigma2=1.0), 10000, seed=34)
        assert abs(sample_acf(y, 1)[1] - 0.7) < 0.03

    def test_intercept_gives_process_mean(self):
        # mu is the intercept: process mean is mu / (1 - phi)
        y = simulate(ModelSpec(p=1), ParameterVector(phi=(0.5,), mu=1.0, sigma2=1.0), 20000, seed=35)
        assert abs(y.values.mean() - 2.0) < 0.05

    def test_unstable_rejected(self):
        with pytest.raises(UnstableParameters):
            simulate(ModelSpec(p=1), ParameterVector(phi=(1.01,), mu=0.0, sigma2=1.0), 100)

    def test_negative_seed_rejected_naming_it(self):
        with pytest.raises(ValueError, match=r"seed = -1: expected a non-negative integer"):
            simulate(ModelSpec(p=1), ParameterVector(phi=(0.5,), mu=0.0, sigma2=1.0), 100, seed=-1)

    def test_seasonal_integration_levels(self):
        # with D=1 the simulated level series has a persistent daily pattern:
        # seasonal differences of the output are the stationary core process
        spec = ModelSpec(p=1, diff=DifferenceSpec(D=1, S=24))
        params = ParameterVector(phi=(0.5,), mu=0.0, sigma2=1.0)
        y = simulate(spec, params, 2000, seed=36)
        w = y.values[24:] - y.values[:-24]
        assert abs(w.mean()) < 0.2
        # lag-1 acf of the differenced series matches AR(1)
        wc = w - w.mean()
        acf1 = np.dot(wc[1:], wc[:-1]) / np.dot(wc, wc)
        assert abs(acf1 - 0.5) < 0.05

    def test_exog_shifts_output(self):
        spec = ModelSpec(exog_count=1, constant=True)
        params = ParameterVector(mu=0.0, gamma=(5.0,), sigma2=0.01)
        n = 1000
        need = n + burn_in(spec)
        start = DEFAULT_ORIGIN
        exog = ExogenousMatrix(
            (weekend_indicator(start - need * HOUR + n * HOUR, need),)
        )
        y = simulate(spec, params, n, exog=exog, seed=37, start=start)
        ind = weekend_indicator(start, n).values
        on = y.values[ind == 1.0].mean()
        off = y.values[ind == 0.0].mean()
        assert abs(on - off - 5.0) < 0.1


class TestForecast:
    def test_white_noise_mean_is_mu(self):
        rng = np.random.default_rng(38)
        y = series(rng.normal(size=50))
        out = forecast(ModelSpec(constant=True), ParameterVector(mu=1.5, sigma2=2.0), y, horizon=6)
        assert np.all(out.mean.values == 1.5)
        assert np.all(out.variance == 2.0)

    def test_ar1_one_step_exact(self):
        rng = np.random.default_rng(39)
        y = series(rng.normal(size=50))
        params = ParameterVector(phi=(0.7,), mu=0.3, sigma2=1.0)
        out = forecast(ModelSpec(p=1), params, y, horizon=1)
        assert out.mean.values[0] == pytest.approx(0.3 + 0.7 * y.values[-1], abs=1e-12)

    def test_ar1_three_step_variances(self):
        rng = np.random.default_rng(40)
        y = series(rng.normal(size=50))
        params = ParameterVector(phi=(0.7,), mu=0.0, sigma2=1.0)
        out = forecast(ModelSpec(p=1), params, y, horizon=3)
        np.testing.assert_allclose(out.variance, [1.0, 1.49, 1.7301], atol=1e-12)

    def test_ar1_monte_carlo_variance(self):
        # forecast-error variance vs direct simulation of the recursion
        params = ParameterVector(phi=(0.7,), mu=0.2, sigma2=1.0)
        y = series([0.1, 0.5])
        out = forecast(ModelSpec(p=1), params, y, horizon=3)
        rng = np.random.default_rng(41)
        paths = 100000
        eps = rng.normal(size=(paths, 3))
        level = np.full(paths, 0.5)
        errors = np.empty((paths, 3))
        for h in range(3):
            level = 0.2 + 0.7 * level + eps[:, h]
            errors[:, h] = level
        mc_var = errors.var(axis=0)
        np.testing.assert_allclose(mc_var, out.variance, rtol=0.02)

    def test_mean_converges_to_process_mean(self):
        rng = np.random.default_rng(42)
        y = series(rng.normal(size=100))
        params = ParameterVector(phi=(0.7,), mu=0.3, sigma2=1.0)
        out = forecast(ModelSpec(p=1), params, y, horizon=200)
        assert abs(out.mean.values[-1] - 1.0) < 1e-3

    def test_variance_monotone_and_converges(self):
        rng = np.random.default_rng(43)
        y = series(rng.normal(size=100))
        params = ParameterVector(phi=(0.7,), theta=(0.2,), mu=0.0, sigma2=1.0)
        out = forecast(ModelSpec(p=1, q=1), params, y, horizon=200)
        assert np.all(np.diff(out.variance) >= -1e-12)
        # process variance of ARMA(1,1): sigma2 * (1 + (phi-theta)^2/(1-phi^2))
        limit = 1.0 + (0.7 - 0.2) ** 2 / (1.0 - 0.49)
        assert out.variance[-1] == pytest.approx(limit, rel=1e-3)

    def test_exog_future_enters_mean(self):
        spec = ModelSpec(exog_count=1, constant=True)
        params = ParameterVector(mu=1.0, gamma=(10.0,), sigma2=1.0)
        hist = series(np.ones(30))
        exog_hist = ExogenousMatrix((series(np.zeros(30)),))
        fut = ExogenousMatrix((series([0.0, 1.0], start=hist.end),))
        out = forecast(spec, params, hist, exog_history=exog_hist, exog_future=fut, horizon=2)
        np.testing.assert_allclose(out.mean.values, [1.0, 11.0], atol=1e-12)

    def test_custom_innovation_variances(self):
        rng = np.random.default_rng(44)
        y = series(rng.normal(size=60))
        params = ParameterVector(phi=(0.7,), mu=0.0, sigma2=1.0)
        base = forecast(ModelSpec(p=1), params, y, horizon=3)
        paths = forecast_origins(ModelSpec(p=1), params, y, None, [len(y)], 3)
        plan = np.array([[1.0, 1.5, 0.5]])
        # means untouched, variances scale with the per-step innovation plan
        np.testing.assert_array_equal(paths.mean[0], base.mean.values)
        np.testing.assert_array_equal(paths.variance(params.sigma2)[0], base.variance)
        np.testing.assert_allclose(paths.variance(2.0 * plan), 2.0 * paths.variance(plan), atol=1e-12)


# ---------------------------------------------------------------------------
# regressor mistakes, crossed with every public entry point

PLAIN = ModelSpec(p=1)
ARMAX = ModelSpec(p=1, exog_count=1)
HISTORY = series(np.sin(np.arange(48) / 5.0))
STEPS = 3


def regressors(start, hours, columns=1):
    return ExogenousMatrix(tuple(weekend_indicator(start, hours) for _ in range(columns)))


RIGHT_HISTORY = regressors(HISTORY.start, 48)
RIGHT_FUTURE = regressors(HISTORY.end, STEPS)
ENTRIES = ("fit", "residuals", "log_likelihood", "simulate", "forecast_origins", "forecast", "model_forecast")
FUTURE_ENTRIES = ("forecast", "model_forecast")


def call_entry(entry, spec, history_exog, future_exog):
    """Run one entry point on HISTORY with the given regressor windows.

    ``simulate`` draws the 38 hours after the 10-hour burn-in on HISTORY's
    calendar, so a right history window ends where its output ends and covers
    the burn-in; ``forecast_origins`` takes the history window alone.
    """
    params = ParameterVector(phi=(0.5,), mu=0.1, gamma=(2.0,) * spec.exog_count)
    if entry == "fit":
        return fit(spec, HISTORY, history_exog, FitOptions(restarts=1))
    if entry == "residuals":
        return residuals(spec, params, HISTORY, history_exog)
    if entry == "log_likelihood":
        return log_likelihood(spec, params, HISTORY, history_exog)
    if entry == "simulate":
        burn = burn_in(spec)
        return simulate(spec, params, 48 - burn, history_exog, start=HISTORY.start + burn * HOUR)
    if entry == "forecast_origins":
        return forecast_origins(spec, params, HISTORY, history_exog, [48], STEPS)
    if entry == "forecast":
        return forecast(spec, params, HISTORY, history_exog, future_exog, STEPS)
    right = RIGHT_HISTORY if spec.exog_count else None
    fitted = assemble_fit(spec, params, HISTORY, right, Diagnostics(converged=True, iterations=0))
    return model_forecast(fitted, HISTORY, history_exog, future_exog, STEPS)


NOT_PLAIN = (ValueError, "spec has no exogenous terms but exog was supplied")
NONE_GIVEN = (ValueError, "spec requires 1 exogenous columns, none supplied")
TWO_COLUMNS = (ValueError, "spec requires 1 exogenous columns, got 2")
OFF_CALENDAR = {
    "*": (AlignmentError, "exogenous matrix must share the target series calendar"),
    "simulate": (AlignmentError, "exogenous window must end at .* and hold at least 48 hours"),
    "forecast_origins": (AlignmentError, "regressors must start with the series and cover it"),
}
# name: (spec, history window, future window, entry points that take the mistake,
#        (exception, message) by entry point, "*" for the rest)
MISTAKES = {
    "plain_spec_history": (PLAIN, RIGHT_HISTORY, None, ENTRIES, {"*": NOT_PLAIN}),
    "plain_spec_future": (PLAIN, None, RIGHT_FUTURE, FUTURE_ENTRIES, {"*": NOT_PLAIN}),
    "none_for_armax": (ARMAX, None, None, ENTRIES, {"*": NONE_GIVEN}),
    "two_history_columns": (ARMAX, regressors(HISTORY.start, 48, 2), RIGHT_FUTURE, ENTRIES, {"*": TWO_COLUMNS}),
    "two_future_columns": (ARMAX, RIGHT_HISTORY, regressors(HISTORY.end, STEPS, 2), FUTURE_ENTRIES,
                           {"*": TWO_COLUMNS}),
    "history_hour_late": (ARMAX, regressors(HISTORY.start + HOUR, 48), RIGHT_FUTURE, ENTRIES, OFF_CALENDAR),
    "history_hour_short": (ARMAX, regressors(HISTORY.start, 47), RIGHT_FUTURE, ENTRIES, OFF_CALENDAR),
    "future_hour_late": (ARMAX, RIGHT_HISTORY, regressors(HISTORY.end + HOUR, STEPS), FUTURE_ENTRIES,
                         {"*": (AlignmentError, "future exogenous window must start at the end of the history")}),
    "future_hour_short": (ARMAX, RIGHT_HISTORY, regressors(HISTORY.end, STEPS - 1), FUTURE_ENTRIES,
                          {"*": (MissingExogenousFuture, "future regressors cover 2 hours, horizon needs 3")}),
    "no_future": (ARMAX, RIGHT_HISTORY, None, FUTURE_ENTRIES,
                  {"*": (MissingExogenousFuture, "future regressors cover 0 hours, horizon needs 3")}),
}


@pytest.mark.parametrize(
    "mistake, entry",
    [(name, entry) for name, (*_, entries, _) in MISTAKES.items() for entry in entries],
)
def test_regressor_mistake_fails_early(mistake, entry):
    spec, history_exog, future_exog, _, expected = MISTAKES[mistake]
    error, message = expected.get(entry, expected["*"])
    with pytest.raises(error) as caught:
        call_entry(entry, spec, history_exog, future_exog)
    assert type(caught.value) is error
    assert re.fullmatch(message, str(caught.value))


@pytest.mark.parametrize("entry", ENTRIES)
@pytest.mark.parametrize("spec", [PLAIN, ARMAX], ids=["plain", "armax"])
def test_right_regressors_pass_every_entry_point(spec, entry):
    if spec.exog_count:
        call_entry(entry, spec, RIGHT_HISTORY, RIGHT_FUTURE)
    else:
        call_entry(entry, spec, None, None)
