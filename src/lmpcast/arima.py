"""Seasonal ARIMA models with exogenous regressors.

Model shape, for the working series ``w_t`` (the target after any ordinary
and seasonal differencing):

    phi(B) PHI(B^S) w_t = mu + u_t' gamma + theta(B) THETA(B^S) e_t

with all four factors written in the all-minus convention
(``1 - a_1 B - a_2 B^2 - ...``), Gaussian innovations ``e_t`` of variance
``sigma2``, and the regression term entering additively on the differenced
scale. One code path serves plain ARMA and the fully seasonal case: the AR
factors are expanded into one polynomial before any recursion, and the MA
side is inverted one factor at a time in one place (:func:`_ma_inverse`),
which the search, the residuals, the likelihood and the forecasts share.

The likelihood is the conditional Gaussian one: presample working-series
values are backcast with the working-series sample mean, presample
innovations are set to zero, and the sum runs over the full differenced
sample. The innovations are linear in ``mu`` and ``gamma``, so for a given
AR/MA shape the likelihood is maximized over them (and ``sigma2``) in closed
form (:func:`profiled_log_likelihood`). The kernel runs in two stages: the
innovation stage (:func:`_concentrated`) and, from its output, the
innovations' Jacobian for the least-squares search
(:func:`_concentrated_jacobian`). Every recursion is a linear filter on
dense lag arrays built from the factor tuples; the sparse
:func:`ar_polynomial`/:func:`ma_polynomial` are the public reference, whose
MA product filter the phase-by-phase inverse equals to rounding. The AR side
runs as ``np.convolve``, the MA inverse through ``lagpoly.lfilter``, the
package's one filter entry point (SciPy's C routine). The dense MA product
serves only as a numerator (simulation, forecasts) or for its roots.
Forecasts are one level-scale filter by the AR times the differencing
operator, continued from each origin's last levels and forced by what its
last innovations add (``past_terms``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

import numpy as np

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
    lfilter,
    multiply,
    past_terms,
)
from .series import HOUR, HourlySeries, format_hour

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
    ar = _lag_array(params.phi, params.Phi, spec.diff.S)
    if not is_stable(ar).stable:
        raise UnstableParameters(f"AR polynomial is not stationary: {ar.tolist()}")
    ma = _lag_array(params.theta, params.Theta, spec.diff.S)
    if not is_stable(ma).stable:
        raise UnstableParameters(f"MA polynomial is not invertible: {ma.tolist()}")


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


@dataclass(frozen=True)
class ForecastResult:
    """Point forecasts with per-horizon forecast-error variances.

    ``psi`` holds the truncated impulse-response weights of the level
    process used to build the variances. Conditional-variance layers weight
    them by time-varying innovation variances through
    :meth:`OriginForecasts.variance`.
    """

    mean: HourlySeries
    variance: np.ndarray
    psi: np.ndarray


def _check_exog_count(spec: ModelSpec, exog: ExogenousMatrix | None) -> None:
    """The regressor rule: ``exog`` is given exactly when the spec has
    regressors, with ``spec.exog_count`` columns. Callers check the calendar."""
    if spec.exog_count == 0:
        if exog is not None:
            raise ValueError("spec has no exogenous terms but exog was supplied")
    elif exog is None:
        raise ValueError(f"spec requires {spec.exog_count} exogenous columns, none supplied")
    elif exog.r != spec.exog_count:
        raise ValueError(f"spec requires {spec.exog_count} exogenous columns, got {exog.r}")


def _validate_exog(spec: ModelSpec, series: HourlySeries, exog: ExogenousMatrix | None) -> None:
    """The regressor rule, and regressors on exactly the series' calendar."""
    _check_exog_count(spec, exog)
    if exog is not None and (exog.start != series.start or len(exog) != len(series)):
        raise AlignmentError("exogenous matrix must share the target series calendar")


def _working_series(
    spec: ModelSpec,
    series: HourlySeries,
    exog: ExogenousMatrix | None,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Difference the target and each regressor column over its own length; returns (w, U)."""
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
    zero. The MA side is inverted by :func:`_ma_inverse`, as in the search.
    """
    theta, Theta = _lag_array(params.theta, (), 1), _lag_array(params.Theta, (), 1)
    rhs = _ar_side(spec, params, w, backcast) - params.mu
    if U is not None:
        rhs = rhs - U @ np.asarray(params.gamma)
    return _ma_inverse(theta, Theta, spec.diff.S, rhs)


def _ar_side(
    spec: ModelSpec,
    params: ParameterVector,
    w: np.ndarray,
    backcast: float | None = None,
) -> np.ndarray:
    """``phi(B) PHI(B^S) w_t`` over the working sample, lagged values backcast."""
    ar = _lag_array(params.phi, params.Phi, spec.diff.S)
    k_ar = ar.shape[0] - 1
    if not k_ar:
        return w
    return np.convolve(ar, _backcast(w, k_ar, backcast))[k_ar : k_ar + w.shape[0]]


def _backcast(w: np.ndarray, lags: int, value: float | None = None) -> np.ndarray:
    """``w`` after ``lags`` presample values, by default the working-series sample mean."""
    m = w.shape[0]
    w_ext = np.empty(lags + m)
    # the sum over the count is what w.mean() computes, without its overhead
    w_ext[:lags] = w.sum() / m if value is None else value
    w_ext[lags:] = w
    return w_ext


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
    return _gaussian_log_likelihood(residuals(spec, params, series, exog).values, params.sigma2)


def _gaussian_log_likelihood(eps: np.ndarray, sigma2: float) -> float:
    """Log-density of independent ``N(0, sigma2)`` innovations ``eps``."""
    m = eps.shape[0]
    return float(-0.5 * m * math.log(2.0 * math.pi * sigma2) - np.dot(eps, eps) / (2.0 * sigma2))


# The normal equations lose about log10(cond(Z Z')) of beta's sixteen digits;
# beyond eight the least squares is solved from Z itself.
_NORMAL_EQUATIONS_COND = 1e8


def _regress(Z: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients of each row of ``Y`` on the rows of ``Z``, shaped ``(len(Y), len(Z))``.

    NaN where the rows' Gram matrix is not finite (an explosive MA side).
    """
    if Z.shape[0] == 1:
        z = Z[0]
        zz = float(np.dot(z, z))
        return (Y @ z)[:, None] / zz if zz > 0.0 else np.zeros((Y.shape[0], 1))
    G = Z @ Z.T
    if not np.isfinite(G).all():
        return np.full((Y.shape[0], Z.shape[0]), np.nan)
    if np.linalg.cond(G) < _NORMAL_EQUATIONS_COND:
        return np.linalg.solve(G, Z @ Y.T).T
    # near-collinear columns: solve from Z, whose condition G squares
    return np.linalg.lstsq(Z.T, Y.T, rcond=None)[0].T


def _combine(c: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """``c @ Z``, the rows of ``Z`` weighted by ``c``.

    With one row each element is the same single product either way, so
    ``c[0] * Z[0]`` is ``c @ Z`` bit for bit without numpy's slow one-row
    matmul path.
    """
    return c[0] * Z[0] if Z.shape[0] == 1 else c @ Z


# the numerator of every inverse filter, and the unit factor; read only, as it is shared
_UNIT = np.ones(1)
_UNIT.flags.writeable = False


def _ma_inverse(theta: np.ndarray, Theta: np.ndarray, S: int, x: np.ndarray) -> np.ndarray:
    """``x`` through ``1 / (theta(B) THETA(B^S))``, one factor at a time; ``x`` itself where both are 1.

    ``theta`` and ``Theta`` are the factors' dense arrays at unit spacing
    (``_lag_array(coeffs, (), 1)``). The seasonal factor runs as ``S``
    interleaved filters of its own order ``Q``, one per phase ``t mod S``:
    ``x``, padded with zeros to whole seasons, is a ``(seasons, S)`` array
    filtered down its columns. That equals the dense ``(q + QS)``-tap product
    filter to rounding, at a fraction of its taps. Zero state, as the
    product filter starts.
    """
    if theta.shape[0] > 1:
        x = lfilter(_UNIT, theta, x)
    if Theta.shape[0] > 1:
        m = x.shape[0]
        seasons = -(-m // S)
        grid = np.zeros(seasons * S)
        grid[:m] = x
        x = lfilter(_UNIT, Theta, grid.reshape(seasons, S), axis=0).reshape(-1)[:m]
    return x


def _concentrated(
    spec: ModelSpec,
    params: ParameterVector,
    w: np.ndarray,
    U: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Innovations at the least-squares regression coefficients for the shape in ``params``.

    Only the AR/MA factors of ``params`` are read (``phi``, ``Phi``,
    ``theta``, ``Theta``). The innovations are linear in the regression
    coefficients ``beta = (mu, *gamma)`` (``mu`` only with a constant):
    ``e = F(a) - F([1, U]) beta``, where ``a`` is the AR side of the working
    series ``w~`` (lagged values backcast with its mean) and ``F`` the
    zero-state MA inverse filter (Box, Jenkins & Reinsel, ch. 7), run one
    factor at a time (:func:`_ma_inverse`). ``a``, a
    row of ones for the constant and any regressor columns are rows of one
    array that the filter runs over, and ``beta`` is their least-squares
    solution. This is the innovation stage of the kernel: one pass filters
    ``1 + r`` rows (``r`` regression coefficients). Returns
    ``(e, beta, Z)``, ``Z`` the ``r`` filtered regressor rows that
    :func:`_concentrated_jacobian` projects out.
    """
    theta, Theta = _lag_array(params.theta, (), 1), _lag_array(params.Theta, (), 1)
    r = int(spec.constant) + spec.exog_count
    # rows: the AR side, then the regressors
    Y = np.empty((1 + r, w.shape[0]))
    Y[0] = _ar_side(spec, params, w)
    if spec.constant:
        Y[1] = 1.0
    if U is not None:
        Y[1 + int(spec.constant) :] = U.T
    # a row at a time, in place: a stacked call's output would be a second copy of the rows
    for row in Y:
        row[:] = _ma_inverse(theta, Theta, spec.diff.S, row)
    y, Z = Y[0], Y[1:]
    beta = _regress(Z, y[None])[0] if r else np.empty(0)
    eps = y - _combine(beta, Z) if r else y
    return eps, beta, Z


def _concentrated_jacobian(
    spec: ModelSpec,
    params: ParameterVector,
    w: np.ndarray,
    eps: np.ndarray,
    Z: np.ndarray,
) -> np.ndarray:
    """``de/d(phi, Phi, theta, Theta)`` at the shape in ``params``, shaped ``(len(w), k)``.

    A transposed view of the ``(k, len(w))`` array it fills a row at a time,
    so ``.T`` is that contiguous array: MINPACK's column layout.

    The Jacobian stage of the kernel: ``eps`` and ``Z`` are what
    :func:`_concentrated` returned at the same shape. Kaufman's (1975)
    variable-projection form: the derivatives at fixed ``beta`` with the
    filtered regressor rows ``Z`` projected out. At fixed ``beta``
    ``de/dphi_i = -F(B^i PHI(B^S) w~)`` and ``de/dPHI_j = -F(B^{jS} phi(B) w~)``;
    presample innovations are zero, so the filter commutes with the shift
    and ``de/dtheta_i = B^i e / theta(B)``, ``de/dTHETA_j = B^{jS} e / THETA(B^S)``.
    One pass filters the ``p + P`` AR rows and ``e`` once per MA factor.
    """
    S = spec.diff.S
    theta, Theta = _lag_array(params.theta, (), 1), _lag_array(params.Theta, (), 1)
    m = w.shape[0]
    J = np.empty((spec.p + spec.P + spec.q + spec.Q, m))
    # the full backcast, so the derivative at a zero last coefficient sees its lag
    K = spec.max_ar_lag
    w_ext = _backcast(w, K)
    # each AR factor's rows lag the working series through the other factor
    for other, order, step, first in ((((), params.Phi), spec.p, 1, 0), ((params.phi, ()), spec.P, S, spec.p)):
        if order:
            # negated once for all the factor's rows
            lagged = -np.convolve(_lag_array(*other, S), w_ext)
            for i, row in enumerate(J[first : first + order], start=1):
                row[:] = _ma_inverse(theta, Theta, S, lagged[K - i * step : K - i * step + m])
    for factors, order, step, first in (((theta, _UNIT), spec.q, 1, spec.p + spec.P),
                                        ((_UNIT, Theta), spec.Q, S, spec.p + spec.P + spec.q)):
        if order:
            g = _ma_inverse(*factors, S, eps)
            for i, row in enumerate(J[first : first + order], start=1):
                row[: i * step] = 0.0
                row[i * step :] = g[: m - i * step]
    if Z.shape[0]:
        # a row at a time: one ``C @ Z`` would be a second (k, m) array, and
        # with two or more regressor rows it rounds differently
        for row, c in zip(J, _regress(Z, J)):
            row -= _combine(c, Z)
    return J.T


def profiled_log_likelihood(
    spec: ModelSpec,
    params: ParameterVector,
    w: np.ndarray,
    U: np.ndarray | None,
) -> tuple[float, float, tuple[float, ...]]:
    """Log-likelihood maximized over ``mu``, ``gamma`` and ``sigma2`` for the shape in ``params``.

    Reads the innovations at the least-squares ``beta`` from the innovation
    stage, :func:`_concentrated`; ``sigma2_hat`` is their mean square. Returns
    ``(loglik, sigma2_hat, beta)``, ``-inf`` where the MA side overflows.
    """
    eps, beta, _ = _concentrated(spec, params, w, U)
    m = eps.shape[0]
    sigma2 = float(np.dot(eps, eps) / m)
    beta = tuple(beta.tolist())
    if sigma2 <= 0.0 or not math.isfinite(sigma2):
        return float("-inf"), sigma2, beta
    loglik = -0.5 * m * (math.log(2.0 * math.pi * sigma2) + 1.0)
    return loglik, sigma2, beta


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
    _check_exog_count(spec, exog)
    if n < 1:
        raise ValueError("n must be >= 1")
    if seed < 0:
        raise ValueError(f"seed = {seed}: expected a non-negative integer")
    diff_poly = difference_polynomial(spec.diff)
    k = diff_poly.degree
    ar = _lag_array(params.phi, params.Phi, spec.diff.S)
    ma = _lag_array(params.theta, params.Theta, spec.diff.S)
    burn = burn_in(spec)

    det_input = np.full(burn + n, params.mu)
    if exog is not None:
        need = n + burn + k
        if len(exog) < need or exog.columns[0].end != start + HOUR * n:
            raise AlignmentError(
                f"exogenous window must end at {format_hour(start + HOUR * n)} "
                f"and hold at least {need} hours"
            )
        U = np.column_stack(
            [apply_array(diff_poly, col.values[-need:]) for col in exog.columns]
        )
        det_input = det_input + U @ np.asarray(params.gamma)

    rng = np.random.default_rng(seed)
    eps = rng.normal(0.0, math.sqrt(params.sigma2), burn + n)
    stochastic = lfilter(ma, ar, eps)
    # start the deterministic filter at its steady state so the process
    # mean is right from the first kept sample even near unit roots
    steady = np.full(ar.shape[0] - 1, det_input[0] / ar.sum())
    w = (stochastic + integrate_array(det_input, steady, ar))[burn:]
    return HourlySeries(start, integrate_array(w, np.zeros(k), diff_poly.dense()), units)


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
        return lfilter(self.psi**2, [1.0], s2)

    def result(self, history: HourlySeries, innovation_variances: float | np.ndarray) -> ForecastResult:
        """The first origin's forecasts, which start at the end of ``history``."""
        mean = HourlySeries(history.end, self.mean[0], history.units)
        return ForecastResult(mean=mean, variance=self.variance(innovation_variances)[0], psi=self.psi)


def forecast_origins(
    spec: ModelSpec,
    params: ParameterVector,
    series: HourlySeries,
    exog: ExogenousMatrix | None,
    origins: np.ndarray | list[int],
    horizon: int,
    innovations: np.ndarray | None = None,
) -> OriginForecasts:
    """Minimum-mean-square-error forecasts from many origins at once.

    Origin ``n`` conditions on ``series.values[:n]`` exactly as a separate
    forecast from that prefix would, and forecasts the ``horizon`` hours
    after it. ``exog`` starts with the series and may run past its end into
    the known future; steps whose regressors it does not cover come out
    NaN. The series is differenced and filtered once for all origins, and
    one filter on the level scale runs every origin's forecast steps.

    ``innovations``, given with a single origin, are that origin's
    innovations (:func:`residuals` of its history, say a fit's own), one per
    working-sample hour; the history is then not filtered at all, and the
    result holds them as its ``base`` with a zero backcast term.
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
    _check_exog_count(spec, exog)
    if exog is not None and (exog.start != series.start or len(exog) < len(series)):
        raise AlignmentError("regressors must start with the series and cover it")

    w, U = _working_series(spec, series, exog)
    m = w.shape[0]
    ma = _lag_array(params.theta, params.Theta, spec.diff.S)
    ends = origins - spec.diff.order
    if innovations is None:
        base = _innovations(spec, params, w, None if U is None else U[:m], backcast=0.0)
        # what a unit backcast mean adds: the innovations of a zero series without mu or gamma
        response = _innovations(spec, replace(params, mu=0.0), np.zeros(m), None, backcast=1.0)
        # centring keeps the running sum's rounding at the scale of the spread
        centre = w.mean()
        backcast = centre + np.cumsum(w - centre)[ends - 1] / ends
    elif ends.shape[0] != 1:
        raise ValueError(f"innovations serve a single origin, got {ends.shape[0]} origins")
    elif innovations.shape != (ends[0],):
        raise ValueError(
            f"innovations have shape {innovations.shape}, the origin's history has {ends[0]} working hours"
        )
    else:
        base, response, backcast = innovations, np.zeros(ends[0]), np.zeros(1)

    det = np.full((origins.shape[0], horizon), params.mu)
    if U is not None:
        rows = ends[:, None] + np.arange(horizon)
        known = rows < U.shape[0]
        regression = U[np.minimum(rows, U.shape[0] - 1)] @ np.asarray(params.gamma)
        det = det + np.where(known, regression, np.nan)

    # the innovations known at each origin enter its first steps; future ones are zero
    j = ends[:, None] - np.arange(ma.shape[0] - 1, 0, -1)
    forcing = det + past_terms(ma, base[j] + backcast[:, None] * response[j], horizon)
    # phi(B) PHI(B^S) (1 - B)^d (1 - B^S)^D on levels, continued from each origin's last levels
    ar = _lag_array(params.phi, params.Phi, spec.diff.S)
    levels = np.convolve(ar, difference_polynomial(spec.diff).dense())
    past = series.values[origins[:, None] - np.arange(levels.shape[0] - 1, 0, -1)]
    mean = integrate_array(forcing, past, levels)

    impulse = np.zeros(horizon)
    impulse[0] = 1.0
    psi = lfilter(ma, levels, impulse)
    return OriginForecasts(mean, psi, base, response, backcast, ends)


def forecast(
    spec: ModelSpec,
    params: ParameterVector,
    history: HourlySeries,
    exog_history: ExogenousMatrix | None = None,
    exog_future: ExogenousMatrix | None = None,
    horizon: int = 1,
) -> ForecastResult:
    """Minimum-mean-square-error forecasts for 1..horizon steps ahead.

    Future innovations are set to zero in the recursion on the differenced
    scale, and the path is integrated back to levels using the last observed
    level values. Forecast-error variances come from the truncated
    impulse-response expansion of the level process with constant
    innovation variance: ``Var(h) = sigma2 * sum_{j<h} psi_j^2``. This is
    :func:`forecast_origins` with the single origin at the end of
    ``history``; :func:`lmpcast.estimation.model_forecast` routes a GARCH
    layer's variances, and :meth:`OriginForecasts.variance` takes any
    per-step plan.
    """
    paths = _end_of_history_paths(spec, params, history, exog_history, exog_future, horizon)
    return paths.result(history, params.sigma2)


def _end_of_history_paths(
    spec: ModelSpec,
    params: ParameterVector,
    history: HourlySeries,
    exog_history: ExogenousMatrix | None,
    exog_future: ExogenousMatrix | None,
    horizon: int,
) -> OriginForecasts:
    """:func:`forecast_origins` from the one origin at the end of ``history``."""
    _validate_exog(spec, history, exog_history)
    exog, covered = None, 0
    if exog_future is not None:
        _check_exog_count(spec, exog_future)
        if exog_future.start != history.end:
            raise AlignmentError("future exogenous window must start at the end of the history")
        covered = len(exog_future)
        exog = ExogenousMatrix(
            tuple(
                HourlySeries(past.start, np.concatenate([past.values, future.values[:horizon]]), past.units)
                for past, future in zip(exog_history.columns, exog_future.columns)
            )
        )
    if spec.exog_count and covered < horizon:
        raise MissingExogenousFuture(f"future regressors cover {covered} hours, horizon needs {horizon}")
    return forecast_origins(spec, params, history, exog, [len(history)], horizon)
