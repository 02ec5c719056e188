"""Tests for pipelines, the improvement index, and rolling-origin evaluation."""

import json
from dataclasses import replace
from datetime import datetime, timezone

import numpy as np
import pytest

from lmpcast import backtest, estimation
from lmpcast.arima import ModelSpec, ParameterVector
from lmpcast.backtest import (
    BacktestReport,
    PipelineConfig,
    compare_models,
    exog_window,
    fit_pipeline,
    improvement_index,
    mae,
    pipeline_forecast,
    restore_pipeline_fit,
    rolling_backtest,
    transform_target,
)
from lmpcast.dataio import MarketDataset, SynthConfig, synth_market
from lmpcast.errors import AlignmentError, AllTermsExcluded, MismatchedWindows
from lmpcast.estimation import FitOptions
from lmpcast.garch import GarchSpec
from lmpcast.series import (
    HOUR,
    UNITS_PRICE,
    ClipBounds,
    HourlySeries,
    LogOffset,
    delta_lmp,
    log_transform,
    weekend_indicator,
)

MONDAY = datetime(2015, 1, 5, tzinfo=timezone.utc)

FAST = FitOptions(restarts=1, seed=0)


def series(values, start=MONDAY):
    return HourlySeries(start, np.asarray(values, dtype=float), UNITS_PRICE)


def market(da, rt, start=MONDAY):
    return MarketDataset(series(da, start), series(rt, start), "T")


def bench_market(length, seed):
    """Small instance of the synthetic benchmark market."""
    config = SynthConfig(
        delta_spec=ModelSpec(p=1, q=2),
        delta_params=ParameterVector(phi=(0.9,), theta=(0.25, 0.1), mu=0.6, sigma2=1.0),
        dalmp_spec=ModelSpec(p=1),
        dalmp_params=ParameterVector(phi=(0.6,), mu=7.0, sigma2=9.0),
        length=length,
        weekend_effect=6.0,
        spike_rate=0.008,
        start=MONDAY,
        seed=seed,
    )
    return synth_market(config)


class TestImprovementIndex:
    def test_hand_example(self):
        # ratios 1/2 and 1/4, mean 0.375, so 62.5% improvement
        actual = series([10.0, 20.0])
        forecast = series([11.0, 21.0])
        dalmp = series([12.0, 24.0])
        index, excluded = improvement_index(actual, forecast, dalmp)
        assert index == pytest.approx(62.5, abs=1e-12)
        assert excluded == 0

    def test_baseline_terms_below_epsilon_are_excluded_and_counted(self):
        actual = series([10.0, 20.0, 30.0])
        dalmp = series([12.0, 20.0, 34.0])
        forecast = series([11.0, 99.0, 32.0])
        # middle term has zero baseline error; its huge forecast error
        # must not leak into the mean
        index, excluded = improvement_index(actual, forecast, dalmp)
        assert excluded == 1
        assert index == pytest.approx((1.0 - 0.5) * 100.0, abs=1e-12)

    def test_all_terms_excluded_raises(self):
        actual = series([10.0, 20.0])
        with pytest.raises(AllTermsExcluded):
            improvement_index(actual, series([11.0, 21.0]), actual)

    def test_baseline_forecast_scores_exactly_zero(self):
        rng = np.random.default_rng(3)
        actual = series(rng.normal(30.0, 5.0, 200))
        dalmp = series(rng.normal(30.0, 5.0, 200))
        index, _ = improvement_index(actual, dalmp, dalmp)
        assert index == 0.0

    def test_perfect_forecast_scores_exactly_hundred(self):
        rng = np.random.default_rng(4)
        actual = series(rng.normal(30.0, 5.0, 200))
        dalmp = series(actual.values + rng.normal(0.0, 2.0, 200) + 5.0)
        index, _ = improvement_index(actual, actual, dalmp)
        assert index == 100.0

    def test_scale_invariance(self):
        # scaling by a power of two is exact in binary floats, so the
        # ratios and the index are bit-identical
        rng = np.random.default_rng(5)
        actual = rng.normal(30.0, 5.0, 100)
        forecast = actual + rng.normal(0.0, 1.0, 100)
        dalmp = actual + rng.normal(0.0, 3.0, 100) + 1.0
        base, _ = improvement_index(series(actual), series(forecast), series(dalmp))
        scaled, _ = improvement_index(
            series(2.0 * actual), series(2.0 * forecast), series(2.0 * dalmp)
        )
        assert scaled == base

    def test_epsilon_must_be_positive(self):
        actual = series([10.0, 20.0])
        with pytest.raises(ValueError):
            improvement_index(actual, actual, series([12.0, 24.0]), epsilon=0.0)

    def test_misaligned_inputs_rejected(self):
        actual = series([10.0, 20.0])
        shifted = series([11.0, 21.0], start=MONDAY + HOUR)
        with pytest.raises(AlignmentError):
            improvement_index(actual, shifted, series([12.0, 24.0]))


class TestMae:
    def test_hand_example(self):
        assert mae(series([0.0, 0.0]), series([1.0, -3.0])) == pytest.approx(2.0)

    def test_misaligned_inputs_rejected(self):
        with pytest.raises(AlignmentError):
            mae(series([0.0]), series([1.0], start=MONDAY + HOUR))


class TestPipelineConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown pipeline kind"):
            PipelineConfig(kind="lstm")

    def test_degenerate_kinds_take_no_model(self):
        with pytest.raises(ValueError):
            PipelineConfig(kind="baseline", spec=ModelSpec(p=1))
        with pytest.raises(ValueError):
            PipelineConfig(kind="oracle", garch=GarchSpec(p=1, q=1))

    def test_model_kinds_require_spec(self):
        with pytest.raises(ValueError):
            PipelineConfig(kind="arma_delta")

    def test_exog_count_must_match_kind(self):
        with pytest.raises(ValueError):
            PipelineConfig(kind="armax_delta", spec=ModelSpec(p=1))
        with pytest.raises(ValueError):
            PipelineConfig(kind="arma_delta", spec=ModelSpec(p=1, exog_count=1))

    def test_lognormal_correction_requires_log_transform(self):
        with pytest.raises(ValueError):
            PipelineConfig(
                kind="arma_delta", spec=ModelSpec(p=1), lognormal_correction=True
            )

    def test_log_offset_must_cover_clip_lower_bound(self):
        # clipped prices reach lb, and ln(lb + c) needs lb + c > 0
        for lb in (-30.0, -100.0):
            with pytest.raises(ValueError, match="lb \\+ c > 0"):
                PipelineConfig(
                    kind="arma_delta",
                    spec=ModelSpec(p=1),
                    clip=ClipBounds(ub=100.0, lb=lb),
                    log_offset=LogOffset(c=30.0),
                )
        PipelineConfig(
            kind="arma_delta",
            spec=ModelSpec(p=1),
            clip=ClipBounds(ub=100.0, lb=-29.0),
            log_offset=LogOffset(c=30.0),
        )


class TestTransforms:
    def test_delta_kind_models_differential(self):
        data = market([30.0, 40.0], [25.0, 45.0])
        config = PipelineConfig(kind="arma_delta", spec=ModelSpec(p=1))
        target = transform_target(config, data)
        np.testing.assert_allclose(target.values, [5.0, -5.0])

    def test_rtlmp_kind_models_price_directly(self):
        data = market([30.0, 40.0], [25.0, 45.0])
        config = PipelineConfig(kind="sarima_rtlmp", spec=ModelSpec(p=1))
        np.testing.assert_allclose(transform_target(config, data).values, [25.0, 45.0])

    def test_clip_applies_before_log(self):
        data = market([150.0, 40.0], [0.0, 0.0])
        config = PipelineConfig(
            kind="arma_delta",
            spec=ModelSpec(p=1),
            clip=ClipBounds(ub=100.0, lb=-20.0),
            log_offset=LogOffset(c=30.0),
        )
        target = transform_target(config, data)
        np.testing.assert_allclose(target.values, np.log([130.0, 70.0]))

    def test_exog_window_by_kind(self):
        da = series(np.linspace(20.0, 40.0, 48))
        plain = PipelineConfig(kind="arma_delta", spec=ModelSpec(p=1))
        assert exog_window(plain, da) is None

        weekday = PipelineConfig(kind="armax_delta", spec=ModelSpec(p=1, exog_count=1))
        exog = exog_window(weekday, da)
        np.testing.assert_array_equal(
            exog.columns[0].values, weekend_indicator(da.start, 48).values
        )

        priced = PipelineConfig(
            kind="sarimax_rtlmp",
            spec=ModelSpec(p=1, exog_count=1),
            log_offset=LogOffset(c=30.0),
        )
        exog = exog_window(priced, da)
        np.testing.assert_allclose(
            exog.columns[0].values, log_transform(da, LogOffset(c=30.0)).values
        )


class TestFitAndRestore:
    def test_restore_matches_fit_exactly(self):
        data = bench_market(600, seed=11)
        config = PipelineConfig(
            kind="arma_delta",
            spec=ModelSpec(p=1, q=1),
            clip=ClipBounds(ub=22.0, lb=-4.0),
            log_offset=LogOffset(c=1000.0),
        )
        fitted = fit_pipeline(config, data, FAST)
        restored = restore_pipeline_fit(config, data, fitted.params)
        assert restored.params == fitted.params
        assert restored.loglik == pytest.approx(fitted.loglik, abs=1e-12)
        assert restored.bic == pytest.approx(fitted.bic, abs=1e-12)
        assert restored.n_effective == fitted.n_effective
        np.testing.assert_array_equal(restored.residuals.values, fitted.residuals.values)

    def test_degenerate_kinds_cannot_fit_or_restore(self):
        data = bench_market(200, seed=12)
        config = PipelineConfig(kind="baseline")
        with pytest.raises(ValueError):
            fit_pipeline(config, data, FAST)
        with pytest.raises(ValueError):
            restore_pipeline_fit(config, data, ParameterVector(mu=0.0))


class TestPipelineForecast:
    def test_baseline_returns_dalmp_with_zero_variance(self):
        data = bench_market(240, seed=13)
        history, future = data.window(0, 200), data.window(200, 40)
        prices, variance = pipeline_forecast(
            PipelineConfig(kind="baseline"), None, history, future.dalmp, 6
        )
        np.testing.assert_array_equal(prices.values, future.dalmp.values[:6])
        assert prices.start == history.end
        np.testing.assert_array_equal(variance, np.zeros(6))

    def test_zero_differential_forecast_reproduces_dalmp(self):
        # a delta model pinned at mu = 0 forecasts no differential, so the
        # price forecast must equal the published day-ahead price exactly
        data = bench_market(240, seed=14)
        history, future = data.window(0, 200), data.window(200, 40)
        config = PipelineConfig(kind="arma_delta", spec=ModelSpec())
        fitted = restore_pipeline_fit(
            config, history, ParameterVector(mu=0.0, sigma2=1.0)
        )
        prices, _ = pipeline_forecast(config, fitted, history, future.dalmp, 8)
        np.testing.assert_array_equal(prices.values, future.dalmp.values[:8])

    def test_future_dalmp_alignment_enforced(self):
        data = bench_market(240, seed=15)
        history, future = data.window(0, 200), data.window(200, 40)
        config = PipelineConfig(kind="arma_delta", spec=ModelSpec(p=1))
        fitted = fit_pipeline(config, history, FAST)
        with pytest.raises(AlignmentError):
            pipeline_forecast(config, fitted, history, None, 4)
        with pytest.raises(AlignmentError):
            # starts one hour late
            pipeline_forecast(config, fitted, history, future.dalmp.window(1, 6), 4)
        with pytest.raises(AlignmentError):
            # too short for the horizon
            pipeline_forecast(config, fitted, history, future.dalmp.window(0, 3), 4)

    def test_sarima_kind_needs_no_future_dalmp(self):
        data = bench_market(400, seed=16)
        history = data.window(0, 360)
        config = PipelineConfig(
            kind="sarima_rtlmp", spec=ModelSpec(p=1), log_offset=LogOffset(c=1000.0)
        )
        fitted = fit_pipeline(config, history, FAST)
        prices, variance = pipeline_forecast(config, fitted, history, None, 5)
        assert len(prices) == 5
        assert prices.start == history.end
        assert np.all(variance > 0.0)

    def test_oracle_kind_rejected(self):
        data = bench_market(240, seed=17)
        with pytest.raises(ValueError, match="oracle"):
            pipeline_forecast(
                PipelineConfig(kind="oracle"), None, data.window(0, 200),
                data.dalmp.window(200, 10), 4,
            )

    def test_model_kind_requires_fitted(self):
        data = bench_market(240, seed=18)
        config = PipelineConfig(kind="arma_delta", spec=ModelSpec(p=1))
        with pytest.raises(ValueError):
            pipeline_forecast(
                config, None, data.window(0, 200), data.dalmp.window(200, 10), 4
            )

    def test_horizon_must_be_positive(self):
        data = bench_market(240, seed=19)
        with pytest.raises(ValueError):
            pipeline_forecast(
                PipelineConfig(kind="baseline"), None, data.window(0, 200),
                data.dalmp.window(200, 10), 0,
            )

    def test_lognormal_correction_shifts_by_half_variance(self):
        data = bench_market(400, seed=20)
        history, future = data.window(0, 360), data.window(360, 40)
        base = PipelineConfig(
            kind="arma_delta",
            spec=ModelSpec(p=1, q=1),
            clip=ClipBounds(ub=22.0, lb=-4.0),
            log_offset=LogOffset(c=1000.0),
        )
        fitted = fit_pipeline(base, history, FAST)
        plain, var_plain = pipeline_forecast(base, fitted, history, future.dalmp, 6)
        corrected_config = PipelineConfig(
            kind=base.kind, spec=base.spec, clip=base.clip,
            log_offset=base.log_offset, lognormal_correction=True,
        )
        corrected, var_corr = pipeline_forecast(
            corrected_config, fitted, history, future.dalmp, 6
        )
        np.testing.assert_array_equal(var_corr, var_plain)
        # price = dalmp - delta', and the corrected delta' is larger by the
        # factor exp(var / 2) on the shifted scale
        delta_plain = future.dalmp.values[:6] - plain.values
        delta_corr = future.dalmp.values[:6] - corrected.values
        want = (delta_plain + 1000.0) * np.exp(0.5 * var_plain) - 1000.0
        np.testing.assert_allclose(delta_corr, want, rtol=1e-12)


class TestRollingBacktest:
    def test_train_and_test_must_be_contiguous(self):
        data = bench_market(300, seed=21)
        config = PipelineConfig(kind="baseline")
        with pytest.raises(AlignmentError):
            rolling_backtest(config, data.window(0, 200), data.window(240, 60), 2)

    def test_horizon_validation(self):
        data = bench_market(300, seed=22)
        train, test = data.window(0, 280), data.window(280, 20)
        config = PipelineConfig(kind="baseline")
        with pytest.raises(ValueError):
            rolling_backtest(config, train, test, 0)
        with pytest.raises(ValueError):
            rolling_backtest(config, train, test, 21)

    def test_refit_policy_validation(self):
        data = bench_market(300, seed=23)
        config = PipelineConfig(kind="baseline")
        with pytest.raises(ValueError):
            rolling_backtest(
                config, data.window(0, 280), data.window(280, 20), 2, refit="daily"
            )

    @pytest.mark.parametrize("epsilon", [0.0, -1e-6, float("nan")])
    def test_epsilon_rejected_before_any_fit(self, epsilon, monkeypatch):
        data = bench_market(300, seed=23)
        fits = []
        monkeypatch.setattr(backtest, "fit_pipeline", lambda *args, **kwargs: fits.append(args))
        config = PipelineConfig(kind="arma_delta", spec=ModelSpec(p=1))
        with pytest.raises(ValueError, match="epsilon must be positive"):
            rolling_backtest(config, data.window(0, 280), data.window(280, 20), 2, epsilon=epsilon)
        assert fits == []

    def test_baseline_zero_and_oracle_hundred(self):
        data = bench_market(400, seed=24)
        train, test = data.window(0, 352), data.window(352, 48)
        base = rolling_backtest(PipelineConfig(kind="baseline"), train, test, 3)
        oracle = rolling_backtest(PipelineConfig(kind="oracle"), train, test, 3)
        assert base.improvement == (0.0, 0.0, 0.0)
        assert oracle.improvement == (100.0, 100.0, 100.0)
        assert oracle.mae == (0.0, 0.0, 0.0)
        assert base.n_origins == 48

    def test_excluded_counts_follow_step_coverage(self):
        # step i covers test hours i-1 .. n-1; pin RT to DA at hour 2 of a
        # 4-hour test window and both steps must exclude exactly that term
        da = [30.0, 31.0, 32.0, 33.0, 30.0, 29.0, 35.0, 31.0]
        rt = [28.0, 30.0, 31.0, 35.0, 27.0, 26.0, 35.0, 29.0]
        data = market(da, rt)
        train, test = data.window(0, 4), data.window(4, 4)
        report = rolling_backtest(PipelineConfig(kind="baseline"), train, test, 2)
        assert report.excluded == (1, 1)

        rt_first = list(rt)
        rt_first[4], rt_first[6] = da[4], rt[6] - 1.0
        data = market(da, rt_first)
        report = rolling_backtest(
            PipelineConfig(kind="baseline"), data.window(0, 4), data.window(4, 4), 2
        )
        # hour 0 of the test window is step-1 coverage only
        assert report.excluded == (1, 0)

    def test_differential_model_beats_baseline(self):
        data = bench_market(1320, seed=25)
        train, test = data.window(0, 1200), data.window(1200, 120)
        config = PipelineConfig(
            kind="arma_delta",
            spec=ModelSpec(p=1, q=2),
            clip=ClipBounds(ub=22.0, lb=-4.0),
            log_offset=LogOffset(c=1000.0),
        )
        report = rolling_backtest(config, train, test, 3, options=FAST)
        base = rolling_backtest(PipelineConfig(kind="baseline"), train, test, 3)
        assert report.n_origins == 120
        assert all(i > 40.0 for i in report.improvement)
        assert all(m < b for m, b in zip(report.mae, base.mae))

    def test_rolling_refit_runs(self):
        data = bench_market(406, seed=26)
        train, test = data.window(0, 400), data.window(400, 6)
        config = PipelineConfig(kind="arma_delta", spec=ModelSpec(p=1))
        report = rolling_backtest(
            config, train, test, 2, refit="rolling", options=FAST
        )
        assert report.horizon == 2
        assert all(np.isfinite(v) for v in report.improvement)

    @pytest.mark.parametrize("spec", [ModelSpec(p=1), ModelSpec(p=1, q=2)])
    def test_rolling_refits_start_warm_and_match_cold_fits(self, spec, monkeypatch):
        data = bench_market(406, seed=26)
        train, test = data.window(0, 400), data.window(400, 6)
        config = PipelineConfig(kind="arma_delta", spec=spec)
        seen = []

        def recording(config, history, options, start=None):
            fitted = fit_pipeline(config, history, options, start)
            seen.append((len(history), start, fitted))
            return fitted

        monkeypatch.setattr(backtest, "fit_pipeline", recording)
        report = rolling_backtest(config, train, test, 2, refit="rolling", options=FAST)
        assert [n for n, _, _ in seen] == list(range(400, 406))
        assert seen[0][1] is None
        for (n, start, warm), (_, _, previous) in zip(seen[1:], seen):
            assert start == previous.params
            cold = fit_pipeline(config, data.window(0, n), FAST)
            assert warm.loglik == pytest.approx(cold.loglik, abs=1e-6)
        assert (report.fits, report.unconverged) == (6, 0)
        assert report.evaluations == sum(fitted.diagnostics.evaluations for _, _, fitted in seen)

    def test_report_counts_fits(self):
        data = bench_market(406, seed=27)
        train, test = data.window(0, 400), data.window(400, 6)
        config = PipelineConfig(kind="arma_delta", spec=ModelSpec(p=1, q=1))
        report = rolling_backtest(config, train, test, 2, options=FAST)
        fitted = fit_pipeline(config, train, FAST)
        assert (report.fits, report.unconverged) == (1, 0)
        assert report.evaluations == fitted.diagnostics.evaluations > 0
        baseline = rolling_backtest(PipelineConfig(kind="baseline"), train, test, 2)
        assert (baseline.fits, baseline.unconverged, baseline.evaluations) == (0, 0, 0)

    def test_report_counts_a_fit_whose_garch_search_stopped_at_its_cap_as_unconverged(self, monkeypatch):
        data = bench_market(406, seed=27)
        train, test = data.window(0, 400), data.window(400, 6)
        config = PipelineConfig(kind="arma_delta", spec=ModelSpec(p=1, q=1), garch=GarchSpec(1, 1))
        fit_garch = estimation.fit_garch

        def capped(residuals, gspec, options):
            params, diagnostics = fit_garch(residuals, gspec, options)
            flags = diagnostics.boundary_flags + ("garch_not_converged",)
            return params, replace(diagnostics, converged=False, boundary_flags=flags)

        monkeypatch.setattr(estimation, "fit_garch", capped)
        report = rolling_backtest(config, train, test, 2, options=FAST)
        assert (report.fits, report.unconverged) == (1, 1)


class TestBacktestReport:
    def test_json_round_trip(self):
        report = BacktestReport(
            horizon=2,
            n_origins=48,
            improvement=(26.64, 19.5),
            mae=(3.0142, 3.5),
            excluded=(0, 1),
            test_start=MONDAY,
            test_length=48,
            fits=24,
            unconverged=1,
            evaluations=3915,
        )
        assert BacktestReport.from_json(report.to_json()) == report

    def test_report_without_fit_counts_reads_zero(self):
        payload = json.loads(_report(10.0).to_json())
        for key in ("fits", "unconverged", "evaluations"):
            del payload[key]
        report = BacktestReport.from_json(json.dumps(payload))
        assert (report.fits, report.unconverged, report.evaluations) == (0, 0, 0)

    def test_field_lengths_validated(self):
        with pytest.raises(ValueError):
            BacktestReport(
                horizon=2, n_origins=4, improvement=(1.0,), mae=(1.0, 2.0),
                excluded=(0, 0), test_start=MONDAY, test_length=4,
            )
        with pytest.raises(ValueError):
            BacktestReport(
                horizon=1, n_origins=0, improvement=(1.0,), mae=(1.0,),
                excluded=(0,), test_start=MONDAY, test_length=4,
            )


def _report(i1, horizon=2, start=MONDAY, length=48):
    steps = tuple(i1 - 2.0 * k for k in range(horizon))
    return BacktestReport(
        horizon=horizon, n_origins=length, improvement=steps,
        mae=tuple(2.0 + k for k in range(horizon)), excluded=(0,) * horizon,
        test_start=start, test_length=length,
    )


class TestCompareModels:
    def test_sorted_by_first_step_improvement_descending(self):
        table = compare_models(
            [("sarima", _report(-6.1)), ("armax", _report(27.21)), ("arma", _report(26.64))]
        )
        assert [name for name, _ in table.entries] == ["armax", "arma", "sarima"]

    def test_ties_keep_input_order(self):
        table = compare_models([("b", _report(10.0)), ("a", _report(10.0))])
        assert [name for name, _ in table.entries] == ["b", "a"]

    def test_mismatched_windows_rejected(self):
        with pytest.raises(MismatchedWindows):
            compare_models([("a", _report(10.0)), ("b", _report(9.0, horizon=3))])
        with pytest.raises(MismatchedWindows):
            compare_models(
                [("a", _report(10.0)), ("b", _report(9.0, start=MONDAY + HOUR))]
            )

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            compare_models([])

    def test_render_and_csv_layout(self):
        table = compare_models([("arma", _report(26.64)), ("armax", _report(27.21))])
        text = table.render()
        lines = text.splitlines()
        assert len(lines) == 3
        assert "I_1%" in lines[0] and "MAE_2" in lines[0]
        assert lines[1].startswith("armax")

        csv_text = table.to_csv()
        rows = csv_text.splitlines()
        assert rows[0] == "model,horizon,improvement_pct,mae,excluded"
        assert len(rows) == 1 + 2 * 2
        assert rows[1] == "armax,1,27.210000,2.000000,0"
