"""Rolling-origin evaluation of forecasting pipelines against the day-ahead price.

A pipeline is the full path from raw prices to a real-time price forecast:
optional spike clipping and log transform, an ARIMA-family model on either
the day-ahead/real-time differential or the real-time price itself, an
optional GARCH variance layer, inverse transform, and (for differential
pipelines) reconstruction ``rtlmp' = dalmp - delta'`` against the
published day-ahead price.

Forecast quality is summarized by the improvement index: the percentage
reduction of i-step absolute forecast error relative to simply using the
day-ahead price as the forecast. 0% is day-ahead parity, 100% is a
perfect forecast. Terms where the day-ahead price already equals the
realized price carry an undefined ratio and are excluded (counted).
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from datetime import datetime

import numpy as np

from .arima import (
    ExogenousMatrix,
    ModelSpec,
    ParameterVector,
    forecast_origins,
)
from .dataio import MarketDataset, csv_table
from .errors import (
    AlignmentError,
    AllTermsExcluded,
    Field,
    MismatchedWindows,
    integer,
    list_of,
    numbers,
    read_fields,
)
from .estimation import Diagnostics, FitOptions, FittedModel, _innovation_variances, assemble_fit, fit
from .garch import GarchParams, GarchSpec, attach_garch
from .series import (
    HOUR,
    UNITS_PRICE,
    ClipBounds,
    HourlySeries,
    LogOffset,
    clip_and_log,
    concat,
    delta_lmp,
    format_hour,
    log_transform,
    parse_hour,
    require_aligned,
    weekend_indicator,
)

__all__ = [
    "PipelineConfig",
    "BacktestReport",
    "ComparisonTable",
    "MODEL_KINDS",
    "DEGENERATE_KINDS",
    "improvement_index",
    "mae",
    "transform_target",
    "exog_window",
    "fit_pipeline",
    "restore_pipeline_fit",
    "exog_count",
    "pipeline_forecast",
    "ModelForecasts",
    "model_forecasts",
    "rolling_backtest",
    "compare_models",
]

# model pipelines fit a spec; degenerate ones are evaluation bounds
MODEL_KINDS = ("arma_delta", "armax_delta", "sarima_rtlmp", "sarimax_rtlmp")
DEGENERATE_KINDS = ("baseline", "oracle")

_DELTA_KINDS = ("arma_delta", "armax_delta")


# the one regressor column of each kind that takes one, from the pipeline and its day-ahead window
_REGRESSORS = {
    "armax_delta": lambda config, dalmp: weekend_indicator(dalmp.start, len(dalmp)),
    "sarimax_rtlmp": lambda config, dalmp: (
        dalmp if config.log_offset is None else log_transform(dalmp, config.log_offset)
    ),
}


def exog_count(kind: str) -> int:
    """Regressor columns a pipeline kind's model takes (see :func:`exog_window`)."""
    return int(kind in _REGRESSORS)


@dataclass(frozen=True)
class PipelineConfig:
    """What to model and how to transform the inputs.

    ``arma_delta``/``armax_delta`` model the day-ahead minus real-time
    differential; ``sarima_rtlmp``/``sarimax_rtlmp`` model the real-time
    price directly. ``armax_delta`` takes the weekday indicator as its
    regressor, ``sarimax_rtlmp`` the (log-transformed) day-ahead price.
    ``baseline`` forecasts the day-ahead price itself and ``oracle`` the
    realized price; both skip fitting and bound the improvement index.
    """

    kind: str
    spec: ModelSpec | None = None
    clip: ClipBounds | None = None
    log_offset: LogOffset | None = None
    garch: GarchSpec | None = None
    lognormal_correction: bool = False

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS + DEGENERATE_KINDS:
            raise ValueError(f"unknown pipeline kind {self.kind!r}")
        if self.kind in DEGENERATE_KINDS:
            if self.spec is not None or self.garch is not None:
                raise ValueError(f"{self.kind} pipelines take no model")
            return
        if self.spec is None:
            raise ValueError(f"{self.kind} pipelines require a model spec")
        needs_exog = exog_count(self.kind)
        if self.spec.exog_count != needs_exog:
            raise ValueError(
                f"{self.kind} requires exog_count={needs_exog}, spec has {self.spec.exog_count}"
            )
        if self.lognormal_correction and self.log_offset is None:
            raise ValueError("lognormal_correction needs a log transform")
        clipped_low = self.clip is not None and self.log_offset is not None
        if clipped_low and self.clip.lb + self.log_offset.c <= 0.0:
            raise ValueError(
                f"log offset {self.log_offset.c} cannot cover prices clipped at {self.clip.lb}: "
                "need lb + c > 0"
            )


def transform_target(config: PipelineConfig, dataset: MarketDataset) -> HourlySeries:
    """The series the pipeline's model actually sees: target, clipped, logged."""
    if config.kind in _DELTA_KINDS:
        target = delta_lmp(dataset.dalmp, dataset.rtlmp)
    else:
        target = dataset.rtlmp
    return clip_and_log(target, config.clip, config.log_offset)


def exog_window(config: PipelineConfig, dalmp_window: HourlySeries) -> ExogenousMatrix | None:
    """Regressors aligned with a day-ahead window, or None for plain kinds."""
    column = _REGRESSORS.get(config.kind)
    return None if column is None else ExogenousMatrix((column(config, dalmp_window),))


def fit_pipeline(
    config: PipelineConfig,
    train: MarketDataset,
    options: FitOptions = FitOptions(),
    start: ParameterVector | None = None,
) -> FittedModel:
    """Fit the pipeline's model (and optional GARCH layer) on a training window.

    ``start`` is passed to :func:`lmpcast.estimation.fit` as the first start.
    """
    if config.kind in DEGENERATE_KINDS:
        raise ValueError(f"{config.kind} pipelines have nothing to fit")
    modeled = transform_target(config, train)
    exog = exog_window(config, train.dalmp)
    fitted = fit(config.spec, modeled, exog, options, start)
    if config.garch is not None:
        fitted = attach_garch(fitted, config.garch, options)
    return fitted


def restore_pipeline_fit(
    config: PipelineConfig,
    train: MarketDataset,
    params: ParameterVector,
    garch: tuple[GarchSpec, GarchParams] | None = None,
    diagnostics: Diagnostics | None = None,
) -> FittedModel:
    """Rebuild a fitted pipeline from stored parameters, without optimizing.

    Residuals, likelihood, and BIC are recomputed against ``train`` so the
    result behaves exactly like the output of :func:`fit_pipeline`. This is
    how serialized model artifacts come back to life in a fresh process.
    """
    if config.kind in DEGENERATE_KINDS:
        raise ValueError(f"{config.kind} pipelines have no parameters")
    if diagnostics is None:
        diagnostics = Diagnostics(converged=True, iterations=0, boundary_flags=(), evaluations=0)
    modeled = transform_target(config, train)
    exog = exog_window(config, train.dalmp)
    return assemble_fit(config.spec, params, modeled, exog, diagnostics, garch)


@dataclass(frozen=True)
class ModelForecasts:
    """A pipeline's forecasts on the modeled scale: row ``i`` holds the
    1..horizon step means and forecast-error variances from origin ``i``."""

    mean: np.ndarray
    variance: np.ndarray


def model_forecasts(
    config: PipelineConfig,
    fitted: FittedModel,
    history: MarketDataset,
    dalmp: HourlySeries,
    origins: np.ndarray | list[int],
    horizon: int,
    innovations: np.ndarray | None = None,
) -> ModelForecasts:
    """Modeled-scale forecasts from every origin, from one filter pass.

    Origin ``n`` conditions on the first ``n`` hours of ``history``, which
    holds every hour some origin sees; origins ascend. ``dalmp`` starts
    with the history and also covers whatever future day-ahead prices are
    known; steps whose regressors it lacks come out NaN. The target is
    transformed and filtered once for all origins, and a GARCH layer's
    variance forecasts come from one pass over the residuals.
    ``innovations``, the residuals of a single origin's history (a fit's
    own, when it was fitted on exactly that history), spare the filter
    pass (:func:`lmpcast.arima.forecast_origins`).
    """
    return _modeled_forecasts(config, fitted, transform_target(config, history), dalmp, origins, horizon, innovations)


def _modeled_forecasts(
    config: PipelineConfig,
    fitted: FittedModel,
    modeled: HourlySeries,
    dalmp: HourlySeries,
    origins: np.ndarray | list[int],
    horizon: int,
    innovations: np.ndarray | None = None,
) -> ModelForecasts:
    """:func:`model_forecasts` from the history already transformed, ``modeled`` (:func:`transform_target`)."""
    origins = np.asarray(origins, dtype=np.intp)
    if np.any(np.diff(origins) <= 0):
        raise ValueError("origins must ascend")
    paths = forecast_origins(
        fitted.spec, fitted.params, modeled, exog_window(config, dalmp), origins, horizon, innovations
    )
    variance = paths.variance(_innovation_variances(fitted, paths, horizon))
    return ModelForecasts(paths.mean, variance)


def _prices(
    config: PipelineConfig, mean: np.ndarray, variance: np.ndarray, dalmp_ahead: np.ndarray | None
) -> np.ndarray:
    """Real-time prices from modeled-scale forecasts, elementwise on arrays of any shape.

    Inverts the log transform (the mean plus half the variance under the
    lognormal correction) and, for the differential kinds, reconstructs
    ``rtlmp' = dalmp - delta'`` against the day-ahead prices of the same
    hours; the other kinds ignore ``dalmp_ahead``.
    """
    point = mean
    if config.log_offset is not None:
        if config.lognormal_correction:
            point = point + 0.5 * variance
        point = np.exp(point) - config.log_offset.c
    if config.kind in _DELTA_KINDS:
        point = dalmp_ahead - point
    return point


def pipeline_forecast(
    config: PipelineConfig,
    fitted: FittedModel | None,
    history: MarketDataset,
    dalmp_future: HourlySeries | None,
    horizon: int,
    modeled: ModelForecasts | None = None,
) -> tuple[HourlySeries, np.ndarray]:
    """Real-time price forecasts for the ``horizon`` hours after the history.

    ``dalmp_future`` must cover those hours for every kind except
    ``sarima_rtlmp`` (differential reconstruction and the day-ahead
    regressor both need it; it is known ahead of delivery). Returns the
    price forecasts and the forecast-error variances on the modeled
    (possibly log) scale; the ``oracle`` kind has no forecast function and
    is only meaningful inside :func:`rolling_backtest`.

    ``modeled`` is this origin's :func:`model_forecasts` row, one row of at
    least ``horizon`` steps, when it is already known; the history is then
    not filtered again, which is how a fit-once backtest forecasts every
    origin from one pass and a rolling one from each refit's residuals.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if config.kind == "oracle":
        raise ValueError("the oracle pipeline needs realized prices; use rolling_backtest")
    dalmp = history.dalmp
    if config.kind != "sarima_rtlmp":
        if dalmp_future is None:
            raise AlignmentError(f"{config.kind} needs future day-ahead prices")
        if dalmp_future.start != history.end or len(dalmp_future) < horizon:
            raise AlignmentError(
                f"future day-ahead window must start {format_hour(history.end)} "
                f"and cover {horizon} hours"
            )
        if len(dalmp_future) > horizon:
            dalmp_future = dalmp_future.window(0, horizon)
        if config.kind == "baseline":
            return dalmp_future, np.zeros(horizon)
        if modeled is None:
            dalmp = concat(dalmp, dalmp_future)

    if fitted is None:
        raise ValueError(f"{config.kind} pipelines require a fitted model")
    if modeled is None:
        modeled = model_forecasts(config, fitted, history, dalmp, [len(history)], horizon)
    elif modeled.mean.shape[0] != 1 or modeled.mean.shape[1] < horizon:
        raise ValueError(f"modeled forecasts must be one origin's row of at least {horizon} steps")
    variance = modeled.variance[0, :horizon]
    dalmp_ahead = dalmp_future.values if config.kind in _DELTA_KINDS else None
    point = _prices(config, modeled.mean[0, :horizon], variance, dalmp_ahead)
    return HourlySeries(history.end, point, UNITS_PRICE), variance


def _ahead(values: np.ndarray, starts: np.ndarray, horizon: int) -> np.ndarray:
    """``values[start + s]`` for every start and step ``s < horizon``; NaN past the end."""
    idx = np.asarray(starts)[:, None] + np.arange(horizon)
    return np.where(idx < values.shape[0], values[np.minimum(idx, values.shape[0] - 1)], np.nan)


def improvement_index(
    actual: HourlySeries,
    forecast_i: HourlySeries,
    dalmp: HourlySeries,
    epsilon: float = 1e-6,
) -> tuple[float, int]:
    """Error reduction of a forecast relative to the day-ahead baseline, in percent.

    ``I = (1 - mean(|actual - forecast| / |actual - dalmp|)) * 100`` over
    the terms whose baseline error exceeds ``epsilon``; the second return
    value counts the excluded terms.
    """
    require_aligned(actual, forecast_i)
    require_aligned(actual, dalmp)
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    baseline_error = np.abs(actual.values - dalmp.values)
    included = baseline_error > epsilon
    n_included = int(included.sum())
    if n_included == 0:
        raise AllTermsExcluded(
            f"all {len(actual)} terms have baseline error <= {epsilon}"
        )
    ratios = np.abs(actual.values[included] - forecast_i.values[included]) / baseline_error[included]
    index = (1.0 - float(np.mean(ratios))) * 100.0
    return index, len(actual) - n_included


def mae(actual: HourlySeries, forecast: HourlySeries) -> float:
    """Mean absolute error between two aligned series, in their units."""
    require_aligned(actual, forecast)
    return float(np.mean(np.abs(actual.values - forecast.values)))


@dataclass(frozen=True)
class BacktestReport:
    """Per-horizon improvement indices and errors over one test window.

    ``fits`` counts the model fits the backtest made, ``unconverged`` those
    whose mean-equation or GARCH search stopped without converging, and
    ``evaluations`` their mean-equation objective evaluations in total.
    """

    horizon: int
    n_origins: int
    improvement: tuple[float, ...]
    mae: tuple[float, ...]
    excluded: tuple[int, ...]
    test_start: datetime
    test_length: int
    fits: int = 0
    unconverged: int = 0
    evaluations: int = 0

    def __post_init__(self) -> None:
        for name in ("improvement", "mae", "excluded"):
            if len(getattr(self, name)) != self.horizon:
                raise ValueError(f"{name} must hold one value per horizon step")
        if self.n_origins < 1:
            raise ValueError("n_origins must be >= 1")

    def to_json(self) -> str:
        payload = {**asdict(self), "test_start": format_hour(self.test_start)}
        payload["improvement_pct"] = payload.pop("improvement")
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "BacktestReport":
        fields = read_fields(json.loads(text), "", _REPORT_FIELDS)
        return cls(improvement=fields.pop("improvement_pct"), **fields)


# a report without the fit counts (written before they existed) reads them as 0
_REPORT_FIELDS = {
    "horizon": integer,
    "n_origins": integer,
    "improvement_pct": numbers,
    "mae": numbers,
    "excluded": list_of(integer),
    "test_start": parse_hour,
    "test_length": integer,
    **dict.fromkeys(("fits", "unconverged", "evaluations"), Field(integer, optional=True)),
}


def rolling_backtest(
    config: PipelineConfig,
    train: MarketDataset,
    test: MarketDataset,
    horizon: int,
    refit: str = "fit-once",
    options: FitOptions = FitOptions(),
    epsilon: float = 1e-6,
) -> BacktestReport:
    """Step the forecast origin through every test hour and score per horizon.

    Under the default ``fit-once`` policy the model is fitted on the
    training window alone; ``refit="rolling"`` refits at every origin on
    the history up to that origin, starting each search from the previous
    origin's estimate. Either way each origin conditions on all prices
    observed before it, and forecast steps falling beyond the test window
    are dropped. Every origin's prices come from :func:`pipeline_forecast`
    and its :func:`model_forecasts` row: under ``fit-once`` from the one
    filter pass, under ``rolling`` from the refit's own residuals, which
    are that origin's innovations, so no history is filtered again. The
    forecasts read one transform of the whole history (:func:`transform_target`),
    so beyond that one a backtest transforms only what each fit transforms.
    The report counts the fits and their diagnostics.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    n_test = len(test)
    if horizon > n_test:
        raise ValueError(f"horizon {horizon} exceeds test window of {n_test} hours")
    if refit not in ("fit-once", "rolling"):
        raise ValueError(f"refit must be 'fit-once' or 'rolling', got {refit!r}")
    if not epsilon > 0.0:
        raise ValueError("epsilon must be positive")
    if test.start != train.end:
        raise AlignmentError(
            f"train ends {format_hour(train.end)} but test starts {format_hour(test.start)}"
        )

    fits: list[Diagnostics] = []
    starts = np.arange(n_test)
    if config.kind in DEGENERATE_KINDS:
        source = test.dalmp if config.kind == "baseline" else test.rtlmp
        forecasts = _ahead(source.values, starts, horizon)
    else:
        fitted = fit_pipeline(config, train, options)
        fits.append(fitted.diagnostics)
        data = MarketDataset(
            concat(train.dalmp, test.dalmp), concat(train.rtlmp, test.rtlmp), train.node
        )
        n_train = len(train)
        # every origin's history, transformed once: the transform is
        # elementwise, so a history's is a prefix of it; the last test hour
        # is never history, so it is not transformed
        target = transform_target(config, data.window(0, n_train + n_test - 1))
        block = None
        if refit == "fit-once":
            # one filter pass serves every origin
            block = _modeled_forecasts(config, fitted, target, data.dalmp, n_train + starts, horizon)
        forecasts = np.full((n_test, horizon), np.nan)
        for origin in range(n_test):
            steps = min(horizon, n_test - origin)
            history = data.window(0, n_train + origin)
            if block is not None:
                modeled = ModelForecasts(block.mean[origin : origin + 1], block.variance[origin : origin + 1])
            else:
                if origin > 0:
                    fitted = fit_pipeline(config, history, options, start=fitted.params)
                    fits.append(fitted.diagnostics)
                modeled = _modeled_forecasts(config, fitted, target.window(0, len(history)), data.dalmp,
                                             [len(history)], steps, fitted.residuals.values)
            future_da = test.dalmp.window(origin, steps)
            prices, _ = pipeline_forecast(config, fitted, history, future_da, steps, modeled)
            forecasts[origin, :steps] = prices.values

    improvements, maes, excluded = [], [], []
    for step in range(1, horizon + 1):
        n_terms = n_test - step + 1
        actual = test.rtlmp.window(step - 1, n_terms)
        baseline = test.dalmp.window(step - 1, n_terms)
        forecast_series = HourlySeries(
            test.start + HOUR * (step - 1), forecasts[:n_terms, step - 1], UNITS_PRICE
        )
        index, n_excluded = improvement_index(actual, forecast_series, baseline, epsilon)
        improvements.append(index)
        excluded.append(n_excluded)
        maes.append(mae(actual, forecast_series))
    return BacktestReport(
        horizon=horizon,
        n_origins=n_test,
        improvement=tuple(improvements),
        mae=tuple(maes),
        excluded=tuple(excluded),
        test_start=test.start,
        test_length=n_test,
        fits=len(fits),
        unconverged=sum(not d.converged or "garch_not_converged" in d.boundary_flags for d in fits),
        evaluations=sum(d.evaluations for d in fits),
    )


@dataclass(frozen=True)
class ComparisonTable:
    """Named reports ordered by one-step improvement, best first."""

    entries: tuple[tuple[str, BacktestReport], ...]

    @property
    def horizon(self) -> int:
        return self.entries[0][1].horizon

    def render(self) -> str:
        """Fixed-width text: one row per model, improvement then MAE columns."""
        steps = range(1, self.horizon + 1)
        header = f"{'model':<24}" + "".join(f"{f'I_{i}%':>10}" for i in steps)
        header += "".join(f"{f'MAE_{i}':>10}" for i in steps)
        lines = [header]
        for name, report in self.entries:
            row = f"{name:<24}"
            row += "".join(f"{v:>10.2f}" for v in report.improvement)
            row += "".join(f"{v:>10.2f}" for v in report.mae)
            lines.append(row)
        return "\n".join(lines)

    def to_csv(self) -> str:
        """Long-format rows ``model,horizon,improvement_pct,mae,excluded``."""
        rows = [(name, i + 1, report.improvement[i], report.mae[i], report.excluded[i])
                for name, report in self.entries for i in range(report.horizon)]
        header = ("model", "horizon", "improvement_pct", "mae", "excluded")
        return csv_table(dict(zip(header, zip(*rows))), floats=("improvement_pct", "mae"))


def compare_models(reports: list[tuple[str, BacktestReport]]) -> ComparisonTable:
    """Merge named reports into one table sorted by I_1 descending (stable)."""
    if not reports:
        raise ValueError("need at least one report")
    first = reports[0][1]
    for name, report in reports[1:]:
        if (
            report.horizon != first.horizon
            or report.test_start != first.test_start
            or report.test_length != first.test_length
        ):
            raise MismatchedWindows(
                f"report {name!r} covers a different test window or horizon set"
            )
    ordered = sorted(reports, key=lambda entry: -entry[1].improvement[0])
    return ComparisonTable(entries=tuple(ordered))
