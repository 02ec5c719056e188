"""Acceptance suite for the forecasting toolkit.

One test per criterion; run ``pytest -v tests/test_acceptance.py`` to get a
single PASSED/FAILED line for each. Each test also prints a verdict with
the measured numbers (visible with ``-s`` or on failure). Criteria with a
stated time budget assert on wall-clock runtime too.
"""

import json
import math
import time
from datetime import datetime, timezone

import numpy as np
import pytest

from lmpcast.arima import (
    DEFAULT_ORIGIN,
    ModelSpec,
    ParameterVector,
    forecast,
    log_likelihood,
    simulate,
)
from lmpcast.backtest import (
    PipelineConfig,
    fit_pipeline,
    improvement_index,
    pipeline_forecast,
    rolling_backtest,
)
from lmpcast.cli import main
from lmpcast.dataio import MarketDataset, SynthConfig, synth_market
from lmpcast.estimation import BicTable, FitOptions, fit, fit_garch, grid_select
from lmpcast.garch import GarchParams, GarchSpec, attach_garch, conditional_variances
from lmpcast.lagpoly import (
    DifferenceSpec,
    LagPolynomial,
    apply,
    difference_polynomial,
    integrate,
    multiply,
)
from lmpcast.series import (
    UNITS_PRICE,
    ClipBounds,
    HourlySeries,
    LogOffset,
    delta_lmp,
    inverse_log_transform,
    log_transform,
    reconstruct_rtlmp,
)

MONDAY = datetime(2015, 1, 5, tzinfo=timezone.utc)


def series(values, start=MONDAY, units=UNITS_PRICE):
    return HourlySeries(start, np.asarray(values, dtype=float), units)


def dyadic(values):
    """Snap to the 2^-20 grid, where subtraction identities are bit-exact."""
    return np.round(np.asarray(values) * 2.0**20) / 2.0**20


def test_criterion_1_operator_algebra():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)

    specs = [
        DifferenceSpec(d=1),
        DifferenceSpec(d=2),
        DifferenceSpec(D=1, S=24),
        DifferenceSpec(d=1, D=1, S=24),
    ]
    worst_round_trip = 0.0
    for spec in specs:
        # prices at finite precision: re-integration after d=2 differencing
        # amplifies rounding through its repeated unit root, but on the
        # dyadic grid every intermediate is exactly representable
        y = series(dyadic(rng.normal(50.0, 10.0, 400)))
        poly = difference_polynomial(spec)
        k = poly.degree
        w = apply(poly, y)
        back = integrate(w, y.window(0, k), spec)
        err = float(np.max(np.abs(back.values - y.values[k:])))
        worst_round_trip = max(worst_round_trip, err)
        assert err < 1e-12

    worst_compose = 0.0
    for _ in range(10):
        a = LagPolynomial.from_factor_coefficients(rng.uniform(-0.6, 0.6, 2))
        b = LagPolynomial.from_factor_coefficients(rng.uniform(-0.6, 0.6, 1), spacing=24)
        y = series(rng.normal(0.0, 1.0, 300))
        combined = apply(multiply(a, b), y)
        sequential = apply(b, apply(a, y))
        err = float(np.max(np.abs(combined.values - sequential.values)))
        worst_compose = max(worst_compose, err)
        assert err < 1e-12

    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0
    print(
        f"criterion 1 PASS: difference/integrate round trip {worst_round_trip:.2e}, "
        f"composition {worst_compose:.2e}, {elapsed:.3f}s"
    )


def test_criterion_2_differential_identity():
    rng = np.random.default_rng(102)
    n = 100_000
    da = series(dyadic(rng.normal(35.0, 12.0, n)))
    rt = series(dyadic(rng.normal(33.0, 15.0, n)))
    delta = delta_lmp(da, rt)
    back = reconstruct_rtlmp(da, delta)
    assert np.array_equal(back.values, rt.values)

    prices = series(rng.uniform(20.0, 80.0, n))
    offset = LogOffset(c=30.0)
    round_trip = inverse_log_transform(log_transform(prices, offset), offset)
    rel = float(np.max(np.abs(round_trip.values - prices.values) / prices.values))
    assert rel < 1e-12
    print(
        f"criterion 2 PASS: reconstruction bit-exact on {n} points, "
        f"log round trip {rel:.2e} relative"
    )


def test_criterion_3_likelihood_oracle():
    n = 500
    zeros = series(np.zeros(n), units="dimensionless")
    got = log_likelihood(ModelSpec(), ParameterVector(mu=0.0, sigma2=1.0), zeros)
    want = -(n / 2.0) * math.log(2.0 * math.pi)
    assert got == pytest.approx(want, abs=1e-10)

    rng = np.random.default_rng(103)
    eps = rng.normal(0.0, 1.5, 10)
    worst = 0.0
    for params in (
        GarchParams(alpha0=0.1, alpha=(0.2,), beta=(0.7,)),
        GarchParams(alpha0=0.5, alpha=(0.3,), beta=()),
        GarchParams(alpha0=0.2, alpha=(0.1, 0.1), beta=(0.5,)),
    ):
        got_var = conditional_variances(params, series(eps, units="dimensionless")).values
        # independent plain-loop recursion, presamples at the sample variance
        v0 = float(np.var(eps))
        want_var = []
        for t in range(10):
            v = params.alpha0
            for i, a in enumerate(params.alpha, start=1):
                v += a * (eps[t - i] ** 2 if t - i >= 0 else v0)
            for j, b in enumerate(params.beta, start=1):
                v += b * (want_var[t - j] if t - j >= 0 else v0)
            want_var.append(v)
        err = float(np.max(np.abs(got_var - np.array(want_var))))
        worst = max(worst, err)
        assert err < 1e-10
    print(
        f"criterion 3 PASS: white-noise log-likelihood exact to 1e-10, "
        f"variance recursion {worst:.2e}"
    )


def test_criterion_4_parameter_recovery():
    spec = ModelSpec(p=1, q=1)
    truth = ParameterVector(phi=(0.7,), theta=(0.3,), mu=0.0, sigma2=1.0)
    y = simulate(spec, truth, 5000, seed=4)
    t0 = time.perf_counter()
    fitted = fit(spec, y, options=FitOptions(restarts=2, seed=0))
    arma_time = time.perf_counter() - t0
    assert arma_time < 30.0
    assert fitted.params.phi[0] == pytest.approx(0.7, abs=0.05)
    assert fitted.params.theta[0] == pytest.approx(0.3, abs=0.05)

    # simulate a GARCH(1,1) series-by the textbook recursion, long burn-in
    alpha0, alpha1, beta1 = 0.1, 0.1, 0.8
    rng = np.random.default_rng(61)
    z = rng.normal(size=10_500)
    sig2 = alpha0 / (1.0 - alpha1 - beta1)
    eps = np.empty(10_500)
    eps[0] = math.sqrt(sig2) * z[0]
    for t in range(1, 10_500):
        sig2 = alpha0 + alpha1 * eps[t - 1] ** 2 + beta1 * sig2
        eps[t] = math.sqrt(sig2) * z[t]
    resid = series(eps[500:], units="dimensionless")
    t0 = time.perf_counter()
    gparams, _ = fit_garch(resid, GarchSpec(p=1, q=1), FitOptions(restarts=1, seed=0))
    garch_time = time.perf_counter() - t0
    assert garch_time < 30.0
    assert gparams.alpha0 == pytest.approx(0.1, abs=0.05)
    assert gparams.alpha[0] == pytest.approx(0.1, abs=0.05)
    assert gparams.beta[0] == pytest.approx(0.8, abs=0.08)
    print(
        f"criterion 4 PASS: ARMA(1,1) ({fitted.params.phi[0]:.3f}, "
        f"{fitted.params.theta[0]:.3f}) in {arma_time:.1f}s; GARCH(1,1) "
        f"({gparams.alpha0:.3f}, {gparams.alpha[0]:.3f}, {gparams.beta[0]:.3f}) "
        f"in {garch_time:.1f}s"
    )


def test_criterion_5_order_selection():
    spec = ModelSpec(p=1, q=2)
    truth = ParameterVector(phi=(0.9,), theta=(0.25, 0.1), mu=0.6, sigma2=1.0)
    options = FitOptions(restarts=1, seed=0)
    t0 = time.perf_counter()
    hits = 0
    for seed in range(50):
        y = simulate(spec, truth, 5000, seed=seed)
        chosen, _ = grid_select(y, None, range(1, 6), range(1, 6), ModelSpec(), options)
        hits += (chosen.p, chosen.q) == (1, 2)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600.0
    assert hits >= 40

    # 5x5 BIC surface transcribed from a full-scale selection run on two
    # years of hourly differential data; the minimum sits at (1, 2)
    surface = [
        [-68875.1, -69085.5, -69067.3, -68905.7, -69056.9],
        [-69073.0, -69065.4, -69082.9, -68292.3, -69008.0],
        [-69063.2, -69050.2, -68988.3, -69069.4, -69067.6],
        [-69084.7, -69024.4, -69042.1, -69034.2, -68958.5],
        [-69078.4, -68944.7, -69062.7, -69031.2, -69014.0],
    ]
    table = BicTable(
        p_values=range(1, 6),
        q_values=range(1, 6),
        cells={
            (p, q): surface[p - 1][q - 1] for p in range(1, 6) for q in range(1, 6)
        },
    )
    assert table.best() == (1, 2)
    assert table.cells[(1, 2)] == -69085.5
    print(
        f"criterion 5 PASS: grid picked (1,2) in {hits}/50 replications "
        f"({elapsed:.0f}s); transcribed surface minimum (1,2) = -69085.5"
    )


def test_criterion_6_forecast_calibration():
    spec = ModelSpec(p=1, constant=True)
    params = ParameterVector(phi=(0.7,), mu=0.0, sigma2=1.0)
    history = series([0.1, 0.5], units="dimensionless")
    result = forecast(spec, params, history, horizon=3)
    want = [1.0, 1.0 + 0.7**2, 1.0 + 0.7**2 + 0.7**4]
    np.testing.assert_allclose(result.variance, want, rtol=0.0, atol=1e-12)

    # Monte Carlo continuation of the same AR(1) from the same history
    rng = np.random.default_rng(106)
    paths = 100_000
    eps = rng.normal(0.0, 1.0, (paths, 3))
    y = np.full(paths, history.values[-1])
    mc_var = []
    for h in range(3):
        y = 0.7 * y + eps[:, h]
        mc_var.append(float(y.var()))
    for h in range(3):
        assert mc_var[h] == pytest.approx(result.variance[h], rel=0.02)

    flat = forecast(
        ModelSpec(),
        ParameterVector(mu=3.25, sigma2=2.0),
        series([1.0, 2.0], units="dimensionless"),
        horizon=200,
    )
    assert np.all(flat.mean.values == 3.25)
    mc_text = "/".join(f"{v:.4f}" for v in mc_var)
    print(
        f"criterion 6 PASS: AR(1) variances exact vs impulse weights, "
        f"Monte Carlo {mc_text} within 2%, flat model pinned at its mean"
    )


def test_criterion_7_metric_contract():
    index, excluded = improvement_index(
        series([10.0, 20.0]), series([11.0, 21.0]), series([12.0, 24.0])
    )
    assert index == 62.5
    assert excluded == 0

    config = SynthConfig(
        delta_spec=ModelSpec(p=1, q=2),
        delta_params=ParameterVector(phi=(0.9,), theta=(0.25, 0.1), mu=0.6, sigma2=1.0),
        dalmp_spec=ModelSpec(p=1),
        dalmp_params=ParameterVector(phi=(0.6,), mu=7.0, sigma2=9.0),
        length=400,
        start=MONDAY,
        seed=107,
    )
    data = synth_market(config)
    train, test = data.window(0, 352), data.window(352, 48)
    base = rolling_backtest(PipelineConfig(kind="baseline"), train, test, 3)
    oracle = rolling_backtest(PipelineConfig(kind="oracle"), train, test, 3)
    assert base.improvement == (0.0, 0.0, 0.0)
    assert oracle.improvement == (100.0, 100.0, 100.0)

    # pin the realized price to the day-ahead price at one test hour; the
    # steps covering that hour must each exclude exactly one term
    da = [30.0, 31.0, 32.0, 33.0, 30.0, 29.0, 35.0, 31.0]
    rt = [28.0, 30.0, 31.0, 35.0, 27.0, 26.0, 35.0, 29.0]
    pinned = MarketDataset(series(da), series(rt), "T")
    report = rolling_backtest(
        PipelineConfig(kind="baseline"), pinned.window(0, 4), pinned.window(4, 4), 2
    )
    assert report.excluded == (1, 1)
    print(
        "criterion 7 PASS: hand example 62.5%, baseline 0%, oracle 100%, "
        "exclusion counts (1, 1) as constructed"
    )


def test_criterion_8_synthetic_benchmark():
    t0 = time.perf_counter()
    config = SynthConfig(
        delta_spec=ModelSpec(p=1, q=2),
        delta_params=ParameterVector(phi=(0.9,), theta=(0.25, 0.1), mu=0.6, sigma2=1.0),
        dalmp_spec=ModelSpec(p=1, P=1, diff=DifferenceSpec(S=24)),
        dalmp_params=ParameterVector(phi=(0.6,), Phi=(0.5,), mu=7.0, sigma2=9.0),
        length=4320,
        weekend_effect=6.0,
        spike_rate=0.008,
        start=DEFAULT_ORIGIN,
        seed=123,
    )
    data = synth_market(config)
    train, test = data.window(0, 3600), data.window(3600, 480)
    options = FitOptions(restarts=1, seed=7)
    clip = ClipBounds(ub=22.0, lb=-4.0)
    log_offset = LogOffset(c=1000.0)

    arma = PipelineConfig(
        kind="arma_delta", spec=ModelSpec(p=1, q=2), clip=clip, log_offset=log_offset
    )
    armax = PipelineConfig(
        kind="armax_delta",
        spec=ModelSpec(p=1, q=2, exog_count=1),
        clip=clip,
        log_offset=log_offset,
    )
    armax_garch = PipelineConfig(
        kind="armax_delta",
        spec=ModelSpec(p=1, q=2, exog_count=1),
        clip=clip,
        log_offset=log_offset,
        garch=GarchSpec(p=1, q=1),
    )
    sarima = PipelineConfig(
        kind="sarima_rtlmp",
        spec=ModelSpec(p=2, q=1, P=1, Q=1, diff=DifferenceSpec(D=1, S=24)),
        log_offset=log_offset,
    )

    report_arma = rolling_backtest(arma, train, test, 3, options=options)
    report_armax = rolling_backtest(armax_garch, train, test, 3, options=options)
    report_sarima = rolling_backtest(sarima, train, test, 3, options=options)

    # (a) differential pipelines beat day-ahead parity
    assert report_arma.improvement[0] > 0.0
    assert report_armax.improvement[0] > 0.0
    # (b) improvement decays with horizon
    assert report_arma.improvement[0] > report_arma.improvement[1] > report_arma.improvement[2]
    assert report_armax.improvement[0] > report_armax.improvement[1] > report_armax.improvement[2]
    # (c) modeling the real-time price directly scores below the
    # differential route
    assert report_sarima.improvement[0] < report_arma.improvement[0]

    # (d) the variance layer changes reported variances, never the points
    fitted_plain = fit_pipeline(armax, train, options)
    combined = attach_garch(fitted_plain, GarchSpec(p=1, q=1), options)
    future_da = test.dalmp.window(0, 3)
    points_plain, var_plain = pipeline_forecast(armax, fitted_plain, train, future_da, 3)
    points_layered, var_layered = pipeline_forecast(
        armax_garch, combined, train, future_da, 3
    )
    assert np.array_equal(points_plain.values, points_layered.values)
    assert not np.allclose(var_plain, var_layered)
    report_armax_plain = rolling_backtest(armax, train, test, 3, options=options)
    assert report_armax.improvement == report_armax_plain.improvement

    elapsed = time.perf_counter() - t0
    assert elapsed < 900.0

    def fmt(report):
        return "/".join(f"{v:.2f}" for v in report.improvement)

    print(
        f"criterion 8 PASS: I(arma)={fmt(report_arma)} I(armax+garch)="
        f"{fmt(report_armax)} I(sarima)={fmt(report_sarima)}; variance layer "
        f"left points bit-identical ({elapsed:.0f}s)"
    )


def test_criterion_9_determinism(tmp_path):
    config = {
        "pipeline": "arma_delta",
        "clip": {"ub": 22.0, "lb": -4.0},
        "log_offset": 1000.0,
        "order": {"p": 1, "d": 0, "q": 2},
        "test_start": "2001-01-26T00:00Z",
        "horizon": 2,
        "seed": 123,
        "fit": {"restarts": 1},
        "synth": {"length": 720},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    rolling_path = tmp_path / "rolling.json"
    # the last day only: one refit per origin
    rolling = {**config, "refit": "rolling", "test_start": "2001-01-30T00:00Z"}
    rolling_path.write_text(json.dumps(rolling), encoding="utf-8")

    outputs = {}
    for run in ("a", "b"):
        data = tmp_path / f"data_{run}.csv"
        model = tmp_path / f"model_{run}.json"
        report = tmp_path / f"report_{run}.json"
        rolling = tmp_path / f"rolling_{run}.json"
        fc = tmp_path / f"forecast_{run}.csv"
        argv = ["--config", str(config_path)]
        assert main(["synth", *argv, "--out", str(data)]) == 0
        assert main(["fit", *argv, "--data", str(data), "--out", str(model)]) == 0
        assert main(["backtest", *argv, "--data", str(data), "--out", str(report)]) == 0
        assert main(
            ["backtest", "--config", str(rolling_path), "--data", str(data), "--out", str(rolling)]
        ) == 0
        assert main(
            ["forecast", *argv, "--model", str(model), "--data", str(data),
             "--out", str(fc)]
        ) == 0
        outputs[run] = [p.read_bytes() for p in (data, model, report, rolling, fc)]
    names = ["dataset", "model artifact", "backtest report", "rolling-refit report", "forecast"]
    for name, first, second in zip(names, outputs["a"], outputs["b"]):
        assert first == second, f"{name} differs between identical runs"
    print(
        "criterion 9 PASS: dataset, model artifact, backtest report, rolling-refit "
        "report, and forecast byte-identical across two runs"
    )
