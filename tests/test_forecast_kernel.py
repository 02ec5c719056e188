"""The one-pass forecast kernel against the per-origin path it replaced.

``per_origin_forecast`` is the forecast the backtest used to make at every
origin: transform the whole history, difference and filter it, recurse the
working equation and integrate back to levels with per-sample loops, invert
the log and reconstruct. The kernel must agree with it to 1e-9 at every
origin and step; only the rounding of the per-origin backcast mean differs.
Its integration loop, ``integrate_loop``, is also the reference for the
filter that integrates levels in the kernel.
"""

import tracemalloc

import numpy as np
import pytest
from scipy.signal import lfilter

from lmpcast import arima, backtest
from lmpcast.arima import ModelSpec, ParameterVector, ar_polynomial, ma_polynomial, residuals
from lmpcast.backtest import (
    ModelForecasts,
    PipelineConfig,
    _ahead,
    _prices,
    exog_window,
    fit_pipeline,
    improvement_index,
    mae,
    model_forecasts,
    pipeline_forecast,
    restore_pipeline_fit,
    rolling_backtest,
    transform_target,
)
from lmpcast.dataio import MarketDataset, SynthConfig, synth_market
from lmpcast.estimation import FitOptions
from lmpcast.garch import GarchParams, GarchSpec, forecast_variance
from lmpcast.lagpoly import DifferenceSpec, apply_array, difference_polynomial, integrate_array, multiply
from lmpcast.series import ClipBounds, HourlySeries, LogOffset

TOL = 1e-9

SEASONAL = DifferenceSpec(D=1, S=24)


def market(length, seed):
    config = SynthConfig(
        delta_spec=ModelSpec(p=1, q=2),
        delta_params=ParameterVector(phi=(0.9,), theta=(0.25, 0.1), mu=0.6, sigma2=1.0),
        dalmp_spec=ModelSpec(p=1, P=1, diff=DifferenceSpec(S=24)),
        dalmp_params=ParameterVector(phi=(0.6,), Phi=(0.5,), mu=7.0, sigma2=9.0),
        length=length,
        weekend_effect=6.0,
        spike_rate=0.008,
        seed=seed,
    )
    return synth_market(config)


def integrate_loop(diff, presample, poly):
    """Per-sample inversion ``y_t = diff_t - sum_{h>=1} coeff(h) * y_{t-h}`` of one row."""
    k = poly.degree
    m = diff.shape[0]
    ext = np.empty(k + m)
    ext[:k] = presample
    lags = [(lag, coeff) for lag, coeff in poly.coefficients.items() if lag > 0]
    for t in range(m):
        acc = diff[t]
        for lag, coeff in lags:
            acc -= coeff * ext[k + t - lag]
        ext[k + t] = acc
    return ext[k:]


def per_origin_forecast(config, fitted, history, dalmp_future, horizon):
    """One origin's price forecasts and variances, re-deriving the whole history."""
    spec, params = fitted.spec, fitted.params
    modeled = transform_target(config, history)
    exog_history = exog_window(config, history.dalmp)
    eps = residuals(spec, params, modeled, exog_history).values
    diff_poly = difference_polynomial(spec.diff)
    k = diff_poly.degree
    w = apply_array(diff_poly, modeled.values)
    u_fut = None
    if spec.exog_count:
        exog_future = exog_window(config, dalmp_future.window(0, horizon))
        joined = np.concatenate([exog_history.columns[0].values[len(history) - k :],
                                 exog_future.columns[0].values])
        u_fut = apply_array(diff_poly, joined)

    ar = ar_polynomial(spec, params)
    ma = ma_polynomial(spec, params)
    k_ar = ar.degree
    m = w.shape[0]
    w_ext = np.concatenate([np.full(k_ar, w.mean()), w, np.zeros(horizon)])
    for s in range(horizon):
        t = k_ar + m + s
        acc = params.mu
        if u_fut is not None:
            acc += u_fut[s] * params.gamma[0]
        for lag, coeff in ar.coefficients.items():
            if lag > 0:
                acc -= coeff * w_ext[t - lag]
        for lag, coeff in ma.coefficients.items():
            if lag > s:
                acc += coeff * eps[m + s - lag]
        w_ext[t] = acc
    w_fut = w_ext[k_ar + m :]
    mean = integrate_loop(w_fut, modeled.values[-k:], diff_poly) if k else w_fut

    impulse = np.zeros(horizon)
    impulse[0] = 1.0
    psi = lfilter(ma.dense(), multiply(ar, diff_poly).dense(), impulse)
    if fitted.garch is None:
        s2 = np.full(horizon, params.sigma2)
    else:
        resid = HourlySeries(modeled.start, eps, modeled.units)
        s2 = forecast_variance(fitted.garch[1], resid, horizon)
    variance = np.array([np.sum(psi[:h][::-1] ** 2 * s2[:h]) for h in range(1, horizon + 1)])

    point = mean
    if config.log_offset is not None:
        if config.lognormal_correction:
            point = point + 0.5 * variance
        point = np.exp(point) - config.log_offset.c
    if config.kind in ("arma_delta", "armax_delta"):
        point = dalmp_future.values[:horizon] - point
    return point, variance


def per_origin_backtest(config, fitted, data, n_train, horizon):
    """The old fit-once loop: one full forecast per origin, steps cut at the data end."""
    n_test = len(data) - n_train
    out = np.full((n_test, horizon), np.nan)
    for origin in range(n_test):
        n = n_train + origin
        steps = horizon if config.kind == "sarima_rtlmp" else min(horizon, len(data) - n)
        future = data.dalmp.window(n, steps) if steps <= len(data) - n else None
        out[origin, :steps], _ = per_origin_forecast(config, fitted, data.window(0, n), future, steps)
    return out


def kernel_backtest(config, fitted, data, n_train, horizon):
    """The same forecasts from one shared filter pass, turned into prices in one step."""
    origins = np.arange(n_train, len(data))
    block = model_forecasts(
        config, fitted, data.window(0, len(data) - 1), data.dalmp, origins, horizon
    )
    return _prices(config, block.mean, block.variance, _ahead(data.dalmp.values, origins, horizon))


@pytest.mark.parametrize(
    "diff, exact",
    [
        (DifferenceSpec(d=1), True),
        (DifferenceSpec(d=2), False),
        (DifferenceSpec(D=1, S=24), True),
        (DifferenceSpec(d=1, D=1, S=24), False),
    ],
)
def test_filter_integration_matches_loop(diff, exact):
    # one lag: the filter adds the same two terms as the loop, so the result
    # is bit-equal; more lags sum in another order, which rounds differently
    # at the scale of the levels, not of each (possibly near-zero) result
    poly = difference_polynomial(diff)
    rng = np.random.default_rng(11)
    steps = rng.normal(size=(6, 80))
    presample = 50.0 + rng.normal(size=(6, poly.degree)).cumsum(axis=1)
    want = np.array([integrate_loop(row, past, poly) for row, past in zip(steps, presample)])
    scale = np.abs(want).max()
    for got, ref in ((integrate_array(steps, presample, poly.dense()), want),
                     (integrate_array(steps[2], presample[2], poly.dense()), want[2])):
        if exact:
            assert np.array_equal(got, ref)
        else:
            np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * scale)


CLIP = ClipBounds(ub=22.0, lb=-4.0)
LOG = LogOffset(c=1000.0)
ARMA = ParameterVector(phi=(0.85,), theta=(0.3, 0.1), mu=1.036, sigma2=2e-6)
ARMAX = ParameterVector(phi=(0.85,), theta=(0.3, 0.1), mu=1.03, gamma=(0.004,), sigma2=2e-6)
SARIMA = ParameterVector(
    phi=(0.5, 0.1), Phi=(0.3,), theta=(0.2,), Theta=(0.992,), mu=0.0, sigma2=0.01
)
GARCH11 = (GarchSpec(1, 1), GarchParams(alpha0=2e-7, alpha=(0.15,), beta=(0.75,)))
GARCH21 = (GarchSpec(2, 1), GarchParams(alpha0=2e-7, alpha=(0.1, 0.2), beta=(0.5,)))

CASES = {
    "arma": (PipelineConfig("arma_delta", ModelSpec(p=1, q=2), CLIP, LOG), ARMA, None),
    "arma_lognormal": (
        PipelineConfig("arma_delta", ModelSpec(p=1, q=2), CLIP, LOG, lognormal_correction=True),
        ARMA,
        None,
    ),
    "armax_garch": (
        PipelineConfig("armax_delta", ModelSpec(p=1, q=2, exog_count=1), CLIP, LOG, GARCH11[0]),
        ARMAX,
        GARCH11,
    ),
    "armax_garch_lognormal": (
        PipelineConfig(
            "armax_delta", ModelSpec(p=1, q=2, exog_count=1), CLIP, LOG, GARCH21[0],
            lognormal_correction=True,
        ),
        ARMAX,
        GARCH21,
    ),
    "sarima": (
        PipelineConfig(
            "sarima_rtlmp", ModelSpec(p=2, q=1, P=1, Q=1, diff=SEASONAL), log_offset=LOG
        ),
        SARIMA,
        None,
    ),
    "arima_d1_D1": (
        PipelineConfig(
            "sarima_rtlmp",
            ModelSpec(p=1, q=1, Q=1, diff=DifferenceSpec(d=1, D=1, S=24), constant=False),
        ),
        ParameterVector(phi=(0.4,), theta=(0.3,), Theta=(0.6,), sigma2=4.0),
        None,
    ),
    "sarimax": (
        PipelineConfig(
            "sarimax_rtlmp",
            ModelSpec(p=1, Q=1, diff=SEASONAL, exog_count=1),
            log_offset=LOG,
            lognormal_correction=True,
        ),
        ParameterVector(phi=(0.6,), Theta=(0.5,), mu=0.001, gamma=(0.8,), sigma2=1e-4),
        None,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_kernel_matches_per_origin_path(name):
    config, params, garch = CASES[name]
    data = market(560, seed=3)
    n_train, horizon = 500, 12
    fitted = restore_pipeline_fit(config, data.window(0, n_train), params, garch)
    want = per_origin_backtest(config, fitted, data, n_train, horizon)
    got = kernel_backtest(config, fitted, data, n_train, horizon)
    # the last origins' horizons run past the data: no day-ahead price, no forecast
    assert np.array_equal(np.isnan(got), np.isnan(want))
    assert np.isnan(want).any() == (config.kind != "sarima_rtlmp")
    known = ~np.isnan(want)
    np.testing.assert_allclose(got[known], want[known], rtol=0, atol=TOL)


def test_near_unit_seasonal_ma_on_short_history():
    # with Theta near 1 the backcast term barely decays over a short history,
    # so every origin's own backcast mean has to reach its innovations
    config = PipelineConfig(
        "sarima_rtlmp", ModelSpec(p=1, Q=1, diff=SEASONAL), log_offset=LogOffset(c=30.0)
    )
    params = ParameterVector(phi=(0.3,), Theta=(0.998,), mu=0.002, sigma2=0.02)
    data = market(150, seed=4)
    n_train, horizon = 60, 30
    fitted = restore_pipeline_fit(config, data.window(0, n_train), params)
    want = per_origin_backtest(config, fitted, data, n_train, horizon)
    got = kernel_backtest(config, fitted, data, n_train, horizon)
    np.testing.assert_allclose(got, want, rtol=0, atol=TOL)
    # the origins' backcast means differ by far more than the tolerance
    paths = arima.forecast_origins(
        config.spec, params, transform_target(config, data.window(0, 149)), None,
        np.arange(n_train, 150), horizon,
    )
    assert np.ptp(paths.backcast) > 1e6 * TOL


def test_garch_variances_follow_each_origins_backcast():
    # as above, the origins' residuals differ by their backcast terms, and
    # each origin's GARCH variance forecast must see its own residuals
    config = PipelineConfig(
        "sarima_rtlmp", ModelSpec(p=1, Q=1, diff=SEASONAL), log_offset=LogOffset(c=30.0),
        garch=GarchSpec(2, 1),
    )
    params = ParameterVector(phi=(0.3,), Theta=(0.998,), mu=0.002, sigma2=0.02)
    garch = (GarchSpec(2, 1), GarchParams(alpha0=1e-3, alpha=(0.1, 0.2), beta=(0.5,)))
    data = market(150, seed=4)
    fitted = restore_pipeline_fit(config, data.window(0, 60), params, garch)
    origins = np.arange(60, 150)
    block = model_forecasts(config, fitted, data.window(0, 149), data.dalmp, origins, 5)
    want = np.array([
        per_origin_forecast(config, fitted, data.window(0, n), None, 5)[1] for n in origins
    ])
    np.testing.assert_allclose(block.variance, want, rtol=1e-9, atol=0)


@pytest.mark.parametrize("name", ["armax_garch", "sarima"])
def test_pipeline_forecast_matches_per_origin_path(name):
    config, params, garch = CASES[name]
    data = market(540, seed=5)
    history = data.window(0, 500)
    fitted = restore_pipeline_fit(config, history, params, garch)
    future = data.dalmp.window(500, 8)
    prices, variance = pipeline_forecast(config, fitted, history, future, 8)
    want_prices, want_variance = per_origin_forecast(config, fitted, history, future, 8)
    np.testing.assert_allclose(prices.values, want_prices, rtol=0, atol=TOL)
    np.testing.assert_allclose(variance, want_variance, rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", ["armax_garch", "sarima"])
def test_pipeline_forecast_reads_a_given_modeled_row(name):
    config, params, garch = CASES[name]
    data = market(540, seed=5)
    fitted = restore_pipeline_fit(config, data.window(0, 500), params, garch)
    block = model_forecasts(config, fitted, data.window(0, 520), data.dalmp, [490, 500, 510], 8)
    history, future = data.window(0, 500), data.dalmp.window(500, 8)
    row = ModelForecasts(block.mean[1:2], block.variance[1:2])
    prices, variance = pipeline_forecast(config, fitted, history, future, 6, row)
    want_prices, want_variance = pipeline_forecast(config, fitted, history, future, 6)
    np.testing.assert_allclose(prices.values, want_prices.values, rtol=0, atol=TOL)
    np.testing.assert_allclose(variance, want_variance, rtol=1e-12, atol=0)
    with pytest.raises(ValueError, match="one origin's row"):
        pipeline_forecast(config, fitted, history, future, 6, block)
    with pytest.raises(ValueError, match="at least 8 steps"):
        short = ModelForecasts(block.mean[1:2, :5], block.variance[1:2, :5])
        pipeline_forecast(config, fitted, history, future, 8, short)


@pytest.mark.parametrize("name", ["arma", "armax_garch", "sarima", "sarimax"])
def test_rolling_report_matches_per_origin_refits(name, monkeypatch):
    # every refit is recorded, each origin's prices are rebuilt from its own
    # fit by the per-origin path, which re-derives the whole history, and
    # scored as the report scores them; the report forecasts each origin
    # from its refit's own residuals, through a GARCH layer and seasonal
    # differencing alike
    config = CASES[name][0]
    data = market(508, seed=9)
    n_train, n_test, horizon = 500, 8, 3
    train, test = data.window(0, n_train), data.window(n_train, n_test)
    fits = []

    def recording(config, history, options, start=None):
        fitted = fit_pipeline(config, history, options, start)
        fits.append(fitted)
        return fitted

    monkeypatch.setattr(backtest, "fit_pipeline", recording)
    report = rolling_backtest(
        config, train, test, horizon, refit="rolling", options=FitOptions(restarts=1, max_iterations=300)
    )
    assert len(fits) == n_test
    forecasts = np.full((n_test, horizon), np.nan)
    for origin, fitted in enumerate(fits):
        steps = min(horizon, n_test - origin)
        history = data.window(0, n_train + origin)
        future = test.dalmp.window(origin, steps)
        forecasts[origin, :steps], _ = per_origin_forecast(config, fitted, history, future, steps)
    for step in range(1, horizon + 1):
        n_terms = n_test - step + 1
        actual = test.rtlmp.window(step - 1, n_terms)
        forecast = actual.with_values(forecasts[:n_terms, step - 1])
        index, _ = improvement_index(actual, forecast, test.dalmp.window(step - 1, n_terms))
        assert report.improvement[step - 1] == pytest.approx(index, rel=0, abs=TOL)
        assert report.mae[step - 1] == pytest.approx(mae(actual, forecast), rel=0, abs=TOL)


@pytest.mark.parametrize("name", ["arma", "armax_garch", "sarima"])
def test_a_backtest_transforms_each_fitted_history_once(name, monkeypatch):
    # one transform per fit, which the fit makes of its own history, and
    # one of the whole history for the forecasts: a rolling refit origin
    # does not transform its history a second time to forecast from it
    config = CASES[name][0]
    data = market(508, seed=9)
    n_train, n_test = 500, 8
    train, test = data.window(0, n_train), data.window(n_train, n_test)
    calls = []
    real = transform_target

    def counting(config, dataset):
        calls.append(len(dataset.dalmp))
        return real(config, dataset)

    monkeypatch.setattr(backtest, "transform_target", counting)
    options = FitOptions(restarts=1, max_iterations=300)
    reports = {}
    for refit in ("fit-once", "rolling"):
        calls.clear()
        reports[refit] = rolling_backtest(config, train, test, 3, refit=refit, options=options)
        # the fits' histories, then the whole history the origins see
        fitted = [n_train + origin for origin in range(reports[refit].fits)]
        assert sorted(calls) == sorted(fitted + [n_train + n_test - 1])
    assert reports["fit-once"].fits == 1 and reports["rolling"].fits == n_test


@pytest.mark.parametrize("name", ["armax_garch", "sarima"])
def test_forecast_from_given_innovations_matches_the_filtered_history(name):
    # a fit's residuals are its history's innovations: handed over, they
    # replace the filter pass, up to the rounding of the backcast mean
    config, params, garch = CASES[name]
    data = market(540, seed=5)
    history = data.window(0, 500)
    fitted = restore_pipeline_fit(config, history, params, garch)
    eps = fitted.residuals.values
    want = model_forecasts(config, fitted, history, data.dalmp, [500], 8)
    got = model_forecasts(config, fitted, history, data.dalmp, [500], 8, eps)
    np.testing.assert_allclose(got.mean, want.mean, rtol=0, atol=TOL)
    np.testing.assert_allclose(got.variance, want.variance, rtol=1e-9, atol=0)
    modeled, exog = transform_target(config, data), exog_window(config, data.dalmp)
    paths = arima.forecast_origins(config.spec, params, modeled, exog, [500], 8, eps)
    np.testing.assert_array_equal(paths.innovations(0), eps)
    with pytest.raises(ValueError, match=f"shape \\({len(eps) - 1},\\), the origin's history has {len(eps)} "):
        arima.forecast_origins(config.spec, params, modeled, exog, [500], 8, eps[1:])
    with pytest.raises(ValueError, match="a single origin, got 2 origins"):
        arima.forecast_origins(config.spec, params, modeled, exog, [499, 500], 8, eps)


def test_fit_once_filters_innovations_a_fixed_number_of_times(monkeypatch):
    calls = []
    original = arima._innovations

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(arima, "_innovations", counting)
    config, _, _ = CASES["armax_garch"]
    data = market(520, seed=6)
    options = FitOptions(restarts=1, seed=0, max_iterations=200)
    counts = []
    for n_test in (5, 20):
        calls.clear()
        rolling_backtest(config, data.window(0, 400), data.window(400, n_test), 3, options=options)
        counts.append(len(calls))
    assert counts[0] == counts[1]


def test_last_test_hour_is_never_transformed():
    # delta = -2000 cannot take ln(x + 1000); only a forecast conditioning on
    # that hour would need it, and no origin does
    data = market(420, seed=7)
    rt = data.rtlmp.values.copy()
    rt[-1] = data.dalmp.values[-1] + 2000.0
    data = MarketDataset(data.dalmp, data.rtlmp.with_values(rt), data.node)
    config = PipelineConfig("arma_delta", ModelSpec(p=1), log_offset=LOG)
    report = rolling_backtest(
        config, data.window(0, 400), data.window(400, 20), 2, options=FitOptions(restarts=1)
    )
    assert report.n_origins == 20


def test_memory_stays_linear_in_history():
    # an origins x history intermediate would take 2000 * 20000 * 8 B = 320 MB
    config, params, _ = CASES["arma"]
    data = market(20001, seed=8)
    fitted = restore_pipeline_fit(config, data.window(0, 18000), params)
    tracemalloc.start()
    try:
        block = model_forecasts(
            config, fitted, data.window(0, 20000), data.dalmp, np.arange(18000, 20000), 12
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block.mean.shape == block.variance.shape == (2000, 12)
    assert peak < 32e6
