"""Seasonal ARIMA models with exogenous regressors.

Model shape, for the working series ``w_t`` (the target after any ordinary
and seasonal differencing):

    phi(B) PHI(B^S) w_t = mu + u_t' gamma + theta(B) THETA(B^S) e_t

with all four factors written in the all-minus convention
(``1 - a_1 B - a_2 B^2 - ...``), Gaussian innovations ``e_t`` of variance
``sigma2``, and the regression term entering additively on the differenced
scale. Seasonal and non-seasonal factors are expanded into a single pair of
polynomials before any recursion, so one code path serves plain ARMA and
the fully seasonal case.

The likelihood is the conditional Gaussian one: presample working-series
values are backcast with the working-series sample mean, presample
innovations are set to zero, and the sum runs over the full differenced
sample. All recursions are linear filters. The finite-impulse-response
steps (the AR side of the innovation filter and of its unit-backcast
response, the forecast-variance sums) run as ``np.convolve``, which is what
``scipy.signal.lfilter`` computes for a unit denominator; the recursive
ones run through ``lfilter``. The likelihood builds its lag arrays straight
from the factor tuples, so one evaluation builds no :class:`LagPolynomial`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone

import numpy as np
from scipy.signal import lfilter, lfiltic

from .errors import (
    AlignmentError,
    MissingExogenousFuture,
    SeriesTooShort,
    UnstableParameters,
)
from .lagpoly import (
    DifferenceSpec,
    LagPolynomial,
    apply_array,
    difference_polynomial,
    integrate_array,
    is_stable,
    multiply,
)
from .series import HOUR, HourlySeries

__all__ = [
    "ModelSpec",
    "ParameterVector",
    "ExogenousMatrix",
    "ForecastResult",
    "OriginForecasts",
    "DEFAULT_ORIGIN",
    "ar_polynomial",
    "ma_polynomial",
    "check_conforms",
    "burn_in",
    "simulate",
    "log_likelihood",
    "profiled_log_likelihood",
    "residuals",
    "forecast_origins",
    "forecast",
]

# Arbitrary Monday epoch used when a simulation has no natural calendar.
DEFAULT_ORIGIN = datetime(2001, 1, 1, 0, 0, tzinfo=timezone.utc)


@dataclass(frozen=True)
class ModelSpec:
    """Structural orders of a seasonal ARIMA model with exogenous regressors.

    ``p``/``q`` are the non-seasonal AR/MA orders, ``P``/``Q`` the seasonal
    ones (spaced by ``diff.S``), ``diff`` the differencing orders,
    ``exog_count`` the number of regressor columns and ``constant`` whether
    an intercept is estimated.
    """

    p: int = 0
    q: int = 0
    P: int = 0
    Q: int = 0
    diff: DifferenceSpec = field(default_factory=DifferenceSpec)
    exog_count: int = 0
    constant: bool = True

    def __post_init__(self) -> None:
        for name in ("p", "q", "P", "Q", "exog_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.p + self.q + self.P + self.Q + self.exog_count + int(self.constant) < 1:
            raise ValueError("model must have at least one estimated structure element")
        if (self.P or self.Q or self.diff.D) and self.diff.S < 2:
            raise ValueError("seasonal structure requires season length >= 2")

    @property
    def n_params(self) -> int:
        """Count of estimated parameters including the innovation variance."""
        return self.p + self.q + self.P + self.Q + self.exog_count + int(self.constant) + 1

    @property
    def max_ar_lag(self) -> int:
        return self.p + self.P * self.diff.S

    @property
    def max_ma_lag(self) -> int:
        return self.q + self.Q * self.diff.S

    def min_series_length(self) -> int:
        return self.diff.order + max(self.max_ar_lag, self.max_ma_lag) + 1


@dataclass(frozen=True)
class ParameterVector:
    """Numeric coefficients for a :class:`ModelSpec`.

    The AR/MA coefficients are the plain factor coefficients of the
    all-minus polynomials (so ``phi=(0.7,)`` means ``1 - 0.7 B``). ``mu`` is
    the intercept of the model equation, not the process mean.
    """

    phi: tuple[float, ...] = ()
    Phi: tuple[float, ...] = ()
    theta: tuple[float, ...] = ()
    Theta: tuple[float, ...] = ()
    mu: float = 0.0
    gamma: tuple[float, ...] = ()
    sigma2: float = 1.0

    def __post_init__(self) -> None:
        for name in ("phi", "Phi", "theta", "Theta", "gamma"):
            object.__setattr__(self, name, tuple(map(float, getattr(self, name))))
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "sigma2", float(self.sigma2))
        if not self.sigma2 > 0.0:
            raise ValueError(f"sigma2 must be positive, got {self.sigma2}")


def ar_polynomial(spec: ModelSpec, params: ParameterVector) -> LagPolynomial:
    """Expanded product of the non-seasonal and seasonal AR factors."""
    return multiply(
        LagPolynomial.from_factor_coefficients(params.phi),
        LagPolynomial.from_factor_coefficients(params.Phi, spacing=spec.diff.S),
    )


def ma_polynomial(spec: ModelSpec, params: ParameterVector) -> LagPolynomial:
    """Expanded product of the non-seasonal and seasonal MA factors."""
    return multiply(
        LagPolynomial.from_factor_coefficients(params.theta),
        LagPolynomial.from_factor_coefficients(params.Theta, spacing=spec.diff.S),
    )


def _lag_array(coeffs: tuple[float, ...], seasonal: tuple[float, ...], S: int) -> np.ndarray:
    """Dense ascending-lag array of ``(1 - sum a_i B^i)(1 - sum A_j B^{jS})``.

    The same coefficients as ``ar_polynomial(...).dense()`` (and the MA
    counterpart), trailing zero coefficients dropped as
    :class:`LagPolynomial` drops them, so the filter order matches.
    """
    poly = np.array([1.0, *[-a for a in coeffs]])
    if seasonal:
        factor = np.zeros(len(seasonal) * S + 1)
        factor[0] = 1.0
        factor[S::S] = [-a for a in seasonal]
        poly = np.convolve(poly, factor)
    k = poly.shape[0] - 1
    while k and poly[k] == 0.0:
        k -= 1
    return poly[: k + 1]


def check_conforms(spec: ModelSpec, params: ParameterVector) -> None:
    """Validate that params fit the spec and satisfy stability/invertibility."""
    expected = {
        "phi": spec.p,
        "Phi": spec.P,
        "theta": spec.q,
        "Theta": spec.Q,
        "gamma": spec.exog_count,
    }
    for name, want in expected.items():
        got = len(getattr(params, name))
        if got != want:
            raise ValueError(f"{name} has {got} coefficients, spec requires {want}")
    if not spec.constant and params.mu != 0.0:
        raise ValueError("mu must be 0 when the spec has no constant term")
    ar = ar_polynomial(spec, params)
    if not is_stable(ar).stable:
        raise UnstableParameters(f"AR polynomial is not stationary: {ar.coefficients}")
    ma = ma_polynomial(spec, params)
    if not is_stable(ma).stable:
        raise UnstableParameters(f"MA polynomial is not invertible: {ma.coefficients}")


@dataclass(frozen=True)
class ExogenousMatrix:
    """One or more regressor series sharing a single calendar window."""

    columns: tuple[HourlySeries, ...]

    def __post_init__(self) -> None:
        cols = tuple(self.columns)
        if not cols:
            raise ValueError("ExogenousMatrix requires at least one column")
        first = cols[0]
        for col in cols[1:]:
            if not first.same_calendar(col):
                raise AlignmentError("exogenous columns must share start and length")
        object.__setattr__(self, "columns", cols)

    def __len__(self) -> int:
        return len(self.columns[0])

    @property
    def start(self) -> datetime:
        return self.columns[0].start

    @property
    def r(self) -> int:
        return len(self.columns)

    def as_array(self) -> np.ndarray:
        """Values as an (n, r) array."""
        return np.column_stack([col.values for col in self.columns])


@dataclass(frozen=True)
class ForecastResult:
    """Point forecasts with per-horizon forecast-error variances.

    ``psi`` holds the truncated impulse-response weights of the level
    process used to build the variances; conditional-variance layers reuse
    them to swap in time-varying innovation variances.
    """

    mean: HourlySeries
    variance: np.ndarray
    psi: np.ndarray


def _validate_exog(spec: ModelSpec, series: HourlySeries, exog: ExogenousMatrix | None) -> None:
    if spec.exog_count == 0:
        if exog is not None:
            raise ValueError("spec has no exogenous terms but exog was supplied")
        return
    if exog is None:
        raise ValueError(f"spec requires {spec.exog_count} exogenous columns, none supplied")
    if exog.r != spec.exog_count:
        raise ValueError(f"spec requires {spec.exog_count} exogenous columns, got {exog.r}")
    if exog.start != series.start or len(exog) != len(series):
        raise AlignmentError("exogenous matrix must share the target series calendar")


def _working_series(
    spec: ModelSpec,
    series: HourlySeries,
    exog: ExogenousMatrix | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Difference the target and regressors; returns (w, U) on the working scale."""
    if len(series) < spec.min_series_length():
        raise SeriesTooShort(
            f"series of length {len(series)} is below the minimum {spec.min_series_length()} "
            f"for this spec"
        )
    diff_poly = difference_polynomial(spec.diff)
    w = apply_array(diff_poly, series.values)
    U = None
    if spec.exog_count:
        assert exog is not None
        cols = [apply_array(diff_poly, col.values) for col in exog.columns]
        U = np.column_stack(cols)
    return w, U


def _innovations(
    spec: ModelSpec,
    params: ParameterVector,
    w: np.ndarray,
    U: np.ndarray | None,
    backcast: float | None = None,
) -> np.ndarray:
    """Innovation sequence over the full working sample.

    Unavailable lagged working values are backcast with ``backcast``,
    by default the working-series sample mean; presample innovations are
    zero.
    """
    ar = _lag_array(params.phi, params.Phi, spec.diff.S)
    ma = _lag_array(params.theta, params.Theta, spec.diff.S)
    k_ar = ar.shape[0] - 1
    m = w.shape[0]
    if k_ar:
        w_ext = np.empty(k_ar + m)
        # the sum over the count is what w.mean() computes, without its overhead
        w_ext[:k_ar] = w.sum() / m if backcast is None else backcast
        w_ext[k_ar:] = w
        rhs = np.convolve(ar, w_ext)[k_ar : k_ar + m] - params.mu
    else:
        rhs = w - params.mu
    if U is not None:
        rhs = rhs - U @ np.asarray(params.gamma)
    return lfilter([1.0], ma, rhs) if ma.shape[0] > 1 else rhs


def residuals(
    spec: ModelSpec,
    params: ParameterVector,
    series: HourlySeries,
    exog: ExogenousMatrix | None = None,
) -> HourlySeries:
    """Innovation series implied by the model, aligned to the working sample.

    The output starts ``d + D*S`` hours after the input (the differencing
    cost) and has one value per working-sample point.
    """
    check_conforms(spec, params)
    _validate_exog(spec, series, exog)
    w, U = _working_series(spec, series, exog)
    eps = _innovations(spec, params, w, U)
    return HourlySeries(series.start + HOUR * spec.diff.order, eps, series.units)


def log_likelihood(
    spec: ModelSpec,
    params: ParameterVector,
    series: HourlySeries,
    exog: ExogenousMatrix | None = None,
) -> float:
    """Conditional Gaussian log-likelihood over the full working sample."""
    check_conforms(spec, params)
    _validate_exog(spec, series, exog)
    w, U = _working_series(spec, series, exog)
    eps = _innovations(spec, params, w, U)
    m = eps.shape[0]
    return float(-0.5 * m * math.log(2.0 * math.pi * params.sigma2) - np.dot(eps, eps) / (2.0 * params.sigma2))


def profiled_log_likelihood(
    spec: ModelSpec,
    params: ParameterVector,
    w: np.ndarray,
    U: np.ndarray | None,
) -> tuple[float, float]:
    """Log-likelihood with sigma2 profiled out analytically.

    Returns ``(loglik, sigma2_hat)`` where ``sigma2_hat`` is the mean squared
    innovation, the analytic maximizer of the Gaussian likelihood given the
    other parameters. Used by the estimation layer to drop one dimension
    from the numeric search.
    """
    eps = _innovations(spec, params, w, U)
    m = eps.shape[0]
    sigma2 = float(np.dot(eps, eps) / m)
    if sigma2 <= 0.0 or not math.isfinite(sigma2):
        return float("-inf"), sigma2
    loglik = -0.5 * m * (math.log(2.0 * math.pi * sigma2) + 1.0)
    return loglik, sigma2


def burn_in(spec: ModelSpec) -> int:
    """Warm-up steps discarded by :func:`simulate`: ten times the largest lag."""
    return 10 * max(spec.max_ar_lag, spec.max_ma_lag)


def simulate(
    spec: ModelSpec,
    params: ParameterVector,
    n: int,
    exog: ExogenousMatrix | None = None,
    seed: int = 0,
    start: datetime = DEFAULT_ORIGIN,
    units: str = "dimensionless",
) -> HourlySeries:
    """Draw a length-``n`` realization of the model, deterministic given seed.

    The ARMA recursion runs on the differenced scale with a discarded
    burn-in of :func:`burn_in` steps, then the path is integrated to levels
    with a zero presample. When the spec has regressors, the exogenous
    window must end exactly where the output ends and hold at least
    ``n + burn_in(spec) + d + D*S`` hours, so the regression term covers the
    burn-in and can be differenced alongside the target.
    """
    check_conforms(spec, params)
    if n < 1:
        raise ValueError("n must be >= 1")
    diff_poly = difference_polynomial(spec.diff)
    k = diff_poly.degree
    ar = ar_polynomial(spec, params).dense()
    ma = ma_polynomial(spec, params).dense()
    burn = burn_in(spec)

    det_input = np.full(burn + n, params.mu)
    if spec.exog_count:
        if exog is None:
            raise ValueError(f"spec requires {spec.exog_count} exogenous columns, none supplied")
        if exog.r != spec.exog_count:
            raise ValueError(f"spec requires {spec.exog_count} exogenous columns, got {exog.r}")
        need = n + burn + k
        if len(exog) < need or exog.columns[0].end != start + HOUR * n:
            raise AlignmentError(
                f"exogenous window must end at {(start + HOUR * n).isoformat()} "
                f"and hold at least {need} hours"
            )
        U = np.column_stack(
            [apply_array(diff_poly, col.values[-need:]) for col in exog.columns]
        )
        det_input = det_input + U @ np.asarray(params.gamma)

    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, math.sqrt(params.sigma2), burn + n)
    stochastic = lfilter(ma, ar, eps)
    k_ar = ar.shape[0] - 1
    if k_ar:
        # start the deterministic filter at its steady state so the process
        # mean is right from the first kept sample even near unit roots
        steady = det_input[0] / ar.sum()
        zi = lfiltic([1.0], ar, np.full(k_ar, steady))
        deterministic, _ = lfilter([1.0], ar, det_input, zi=zi)
    else:
        deterministic = det_input
    w = (stochastic + deterministic)[burn:]

    if k:
        values = integrate_array(w, np.zeros(k), diff_poly)
    else:
        values = w
    return HourlySeries(start, values, units)


@dataclass(frozen=True)
class OriginForecasts:
    """Mean forecasts from many origins of one series, from one filter pass.

    Row ``i`` of ``mean`` holds the 1..horizon step level forecasts from
    origin ``i``. The innovation filter is linear in the backcast mean, so
    origin ``i``'s innovations are
    ``base[:ends[i]] + backcast[i] * response[:ends[i]]``.
    """

    mean: np.ndarray
    psi: np.ndarray
    base: np.ndarray
    response: np.ndarray
    backcast: np.ndarray
    ends: np.ndarray

    def innovations(self, i: int) -> np.ndarray:
        """Innovation sequence of origin ``i``'s history on the working scale."""
        end = self.ends[i]
        return self.base[:end] + self.backcast[i] * self.response[:end]

    def variance(self, innovation_variances: float | np.ndarray) -> np.ndarray:
        """Forecast-error variances ``sum_{j<h} psi_j^2 * s2_{h-j}`` at every origin.

        ``innovation_variances`` is one constant, or per-origin, per-step
        values shaped like ``mean``.
        """
        s2 = np.broadcast_to(np.asarray(innovation_variances, dtype=np.float64), self.mean.shape)
        weights = self.psi**2
        return np.array([np.convolve(weights, row)[: row.shape[0]] for row in s2])


def forecast_origins(
    spec: ModelSpec,
    params: ParameterVector,
    series: HourlySeries,
    exog: ExogenousMatrix | None,
    origins: np.ndarray | list[int],
    horizon: int,
) -> OriginForecasts:
    """Minimum-mean-square-error forecasts from many origins at once.

    Origin ``n`` conditions on ``series.values[:n]`` exactly as a separate
    forecast from that prefix would, and forecasts the ``horizon`` hours
    after it. ``exog`` starts with the series and may run past its end into
    the known future; steps whose regressors it does not cover come out
    NaN. The series is differenced and filtered once for all origins; only
    the horizon steps and the lags are looped over.
    """
    check_conforms(spec, params)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    origins = np.asarray(origins, dtype=np.intp)
    if origins.ndim != 1 or origins.size == 0 or origins.max() > len(series):
        raise ValueError("origins must be a non-empty list of history lengths within the series")
    if origins.min() < spec.min_series_length():
        raise SeriesTooShort(
            f"series of length {origins.min()} is below the minimum {spec.min_series_length()} "
            f"for this spec"
        )
    if (exog is None) != (spec.exog_count == 0) or (exog is not None and exog.r != spec.exog_count):
        raise ValueError(f"spec requires {spec.exog_count} exogenous columns")
    if exog is not None and (exog.start != series.start or len(exog) < len(series)):
        raise AlignmentError("regressors must start with the series and cover it")

    diff_poly = difference_polynomial(spec.diff)
    k = diff_poly.degree
    w = apply_array(diff_poly, series.values)
    m = w.shape[0]
    U = None
    if exog is not None:
        U = np.column_stack([apply_array(diff_poly, col.values) for col in exog.columns])
    base = _innovations(spec, params, w, None if U is None else U[:m], backcast=0.0)
    ar = ar_polynomial(spec, params)
    ma = ma_polynomial(spec, params)
    k_ar = ar.degree
    unit_backcast = np.convolve(ar.dense(), np.concatenate([np.ones(k_ar), np.zeros(m)]))[k_ar : k_ar + m]
    response = lfilter([1.0], ma.dense(), unit_backcast)

    ends = origins - k
    # centring keeps the running sum's rounding at the scale of the spread
    centre = w.mean()
    backcast = centre + np.cumsum(w - centre)[ends - 1] / ends

    det = np.full((origins.shape[0], horizon), params.mu)
    if U is not None:
        rows = ends[:, None] + np.arange(horizon)
        known = rows < U.shape[0]
        regression = U[np.minimum(rows, U.shape[0] - 1)] @ np.asarray(params.gamma)
        det = det + np.where(known, regression, np.nan)

    w_fut = np.empty_like(det)
    ar_lags = [(lag, coeff) for lag, coeff in ar.coefficients.items() if lag > 0]
    ma_lags = [(lag, coeff) for lag, coeff in ma.coefficients.items() if lag > 0]
    for s in range(horizon):
        acc = det[:, s].copy()
        for lag, coeff in ar_lags:
            acc -= coeff * (w_fut[:, s - lag] if lag <= s else w[ends + s - lag])
        for lag, coeff in ma_lags:
            if lag > s:  # future innovations are zero
                j = ends + s - lag
                acc += coeff * (base[j] + backcast * response[j])
        w_fut[:, s] = acc

    if k:
        levels = np.empty((origins.shape[0], k + horizon))
        levels[:, :k] = series.values[origins[:, None] - k + np.arange(k)]
        diff_lags = [(lag, coeff) for lag, coeff in diff_poly.coefficients.items() if lag > 0]
        for s in range(horizon):
            acc = w_fut[:, s].copy()
            for lag, coeff in diff_lags:
                acc -= coeff * levels[:, k + s - lag]
            levels[:, k + s] = acc
        mean = levels[:, k:]
    else:
        mean = w_fut

    impulse = np.zeros(horizon)
    impulse[0] = 1.0
    psi = lfilter(ma.dense(), multiply(ar, diff_poly).dense(), impulse)
    return OriginForecasts(mean, psi, base, response, backcast, ends)


def forecast(
    spec: ModelSpec,
    params: ParameterVector,
    history: HourlySeries,
    exog_history: ExogenousMatrix | None = None,
    exog_future: ExogenousMatrix | None = None,
    horizon: int = 1,
    innovation_variances: np.ndarray | None = None,
) -> ForecastResult:
    """Minimum-mean-square-error forecasts for 1..horizon steps ahead.

    Future innovations are set to zero in the recursion on the differenced
    scale, and the path is integrated back to levels using the last observed
    level values. Forecast-error variances come from the truncated
    impulse-response expansion of the level process:
    ``Var(h) = sum_{j<h} psi_j^2 * s2_{h-j}`` where ``s2_i`` is the
    innovation variance at future step ``i`` (constant ``sigma2`` unless
    ``innovation_variances`` supplies per-step values from a
    conditional-variance model). This is :func:`forecast_origins` with the
    single origin at the end of ``history``.
    """
    _validate_exog(spec, history, exog_history)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    exog = None
    if spec.exog_count:
        if exog_future is None:
            raise MissingExogenousFuture(
                f"spec has {spec.exog_count} exogenous columns; future regressor values are required"
            )
        if exog_future.r != spec.exog_count:
            raise MissingExogenousFuture(
                f"need {spec.exog_count} future regressor columns, got {exog_future.r}"
            )
        if exog_future.start != history.end:
            raise AlignmentError("future exogenous window must start at the end of the history")
        if len(exog_future) < horizon:
            raise MissingExogenousFuture(
                f"future regressors cover {len(exog_future)} hours, horizon needs {horizon}"
            )
        exog = ExogenousMatrix(
            tuple(
                HourlySeries(past.start, np.concatenate([past.values, future.values[:horizon]]), past.units)
                for past, future in zip(exog_history.columns, exog_future.columns)
            )
        )
    s2: float | np.ndarray = params.sigma2
    if innovation_variances is not None:
        s2 = np.asarray(innovation_variances, dtype=np.float64)
        if s2.shape[0] < horizon:
            raise ValueError("innovation_variances must cover every forecast step")
        s2 = s2[:horizon]
    paths = forecast_origins(spec, params, history, exog, [len(history)], horizon)
    mean = HourlySeries(history.end, paths.mean[0], history.units)
    return ForecastResult(mean=mean, variance=paths.variance(s2)[0], psi=paths.psi)
