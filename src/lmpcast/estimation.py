"""Maximum-likelihood estimation, BIC, and grid order selection.

Fitting runs a derivative-free simplex search in an unconstrained
coordinate system: AR and MA factor coefficients are mapped through the
partial-autocorrelation reparameterization (each factor independently),
so every point the optimizer visits is stationary and invertible, and the
innovation variance is profiled out analytically. GARCH coefficients are
mapped through exp/softmax-style transforms that keep them non-negative
with persistence below one. All searches are multi-start with seeded
jitter and therefore deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np
from scipy.linalg import solve_toeplitz
from scipy.optimize import minimize

from .arima import (
    ExogenousMatrix,
    ModelSpec,
    ParameterVector,
    _validate_exog,
    _working_series,
    ar_polynomial,
    forecast,
    log_likelihood,
    ma_polynomial,
    profiled_log_likelihood,
    residuals,
)
from .errors import EstimationFailed, LmpcastError, SeriesTooShort
from .garch import GarchParams, GarchSpec, _variance_recursion, forecast_variance
from .lagpoly import is_stable
from .series import HourlySeries

__all__ = [
    "FitOptions",
    "Diagnostics",
    "FittedModel",
    "BicTable",
    "pacf_to_coeffs",
    "coeffs_to_pacf",
    "fit",
    "bic",
    "grid_select",
    "fit_garch",
    "model_forecast",
]

# partial autocorrelations are kept strictly inside the unit interval so
# the implied polynomials clear the stability tolerance with room to spare
_PACF_LIMIT = 0.9999
_BOUNDARY_MARGIN = 1e-3


@dataclass(frozen=True)
class FitOptions:
    """Optimizer controls shared by ARMA and GARCH fitting.

    ``restarts`` is the total number of simplex starts; the first uses the
    moment-based starting point, later ones jitter it with seeded noise.
    """

    max_iterations: int = 2000
    tolerance: float = 1e-8
    restarts: int = 3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_iterations < 100:
            raise ValueError("max_iterations must be >= 100")
        if not 0.0 < self.tolerance <= 1e-6:
            raise ValueError("tolerance must be in (0, 1e-6]")
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")


@dataclass(frozen=True)
class Diagnostics:
    """How the search ended: convergence, simplex iterations, objective
    evaluations of the winning start, and parameters near a boundary."""

    converged: bool
    iterations: int
    boundary_flags: tuple[str, ...] = ()
    evaluations: int = 0


@dataclass(frozen=True)
class FittedModel:
    """A fitted mean equation, optionally carrying a variance model."""

    spec: ModelSpec
    params: ParameterVector
    loglik: float
    bic: float
    n_effective: int
    residuals: HourlySeries
    diagnostics: Diagnostics
    garch: tuple[GarchSpec, GarchParams] | None = None


# ---------------------------------------------------------------------------
# stationarity reparameterization

def pacf_to_coeffs(r: np.ndarray) -> np.ndarray:
    """Map partial autocorrelations in (-1, 1) to stable factor coefficients.

    Levinson recursion: the order-k coefficient vector is built from the
    order-(k-1) one and the k-th partial autocorrelation. Every input with
    all entries strictly inside the unit interval yields a polynomial
    ``1 - c_1 B - ... - c_k B^k`` with roots outside the unit circle.
    """
    return np.array(_levinson(np.asarray(r, dtype=np.float64).tolist()), dtype=np.float64)


def _levinson(r: list[float]) -> list[float]:
    """:func:`pacf_to_coeffs` on Python floats, the same arithmetic step by step."""
    a: list[float] = []
    for rk in r:
        a = [x - rk * y for x, y in zip(a, reversed(a))] + [rk]
    return a


def coeffs_to_pacf(coeffs: np.ndarray) -> np.ndarray:
    """Inverse of :func:`pacf_to_coeffs`, clipped into the open unit interval."""
    a = np.array(coeffs, dtype=np.float64)
    r = np.empty(a.shape[0])
    for k in range(a.shape[0], 0, -1):
        rk = float(np.clip(a[k - 1], -_PACF_LIMIT, _PACF_LIMIT))
        r[k - 1] = rk
        if k > 1:
            a = (a[: k - 1] + rk * a[: k - 1][::-1]) / (1.0 - rk * rk)
    return r


def _from_unconstrained(x: np.ndarray) -> list[float]:
    return _levinson((_PACF_LIMIT * np.tanh(x)).tolist())


def _to_unconstrained(coeffs: np.ndarray) -> np.ndarray:
    r = coeffs_to_pacf(coeffs) / _PACF_LIMIT
    return np.arctanh(np.clip(r, -0.999999, 0.999999))


def _unpack(spec: ModelSpec, vec: np.ndarray) -> ParameterVector:
    i = 0
    parts = {}
    for name, count in (("phi", spec.p), ("Phi", spec.P), ("theta", spec.q), ("Theta", spec.Q)):
        parts[name] = tuple(_from_unconstrained(vec[i : i + count])) if count else ()
        i += count
    tail = vec[i:].tolist()
    c = int(spec.constant)
    mu = tail[0] if c else 0.0
    return ParameterVector(mu=mu, gamma=tuple(tail[c : c + spec.exog_count]), sigma2=1.0, **parts)


# ---------------------------------------------------------------------------
# starting values

def _autocovariance(x: np.ndarray, lags: np.ndarray) -> np.ndarray:
    xc = x - x.mean()
    n = x.shape[0]
    return np.array([np.dot(xc[: n - h], xc[h:]) / n for h in lags])


def _yule_walker(x: np.ndarray, order: int, spacing: int = 1) -> np.ndarray:
    """AR starting coefficients from the sample autocovariances.

    ``spacing`` > 1 solves the system on seasonally strided lags, giving a
    start for the seasonal factor.
    """
    if order == 0:
        return np.empty(0)
    if x.shape[0] <= order * spacing:
        return np.zeros(order)
    lags = np.arange(order + 1) * spacing
    g = _autocovariance(x, lags)
    if g[0] <= 0.0:
        return np.zeros(order)
    try:
        a = solve_toeplitz(g[:-1], g[1:])
    except np.linalg.LinAlgError:
        return np.zeros(order)
    if not np.all(np.isfinite(a)):
        return np.zeros(order)
    return a


def _starting_vector(spec: ModelSpec, w: np.ndarray, U: np.ndarray | None) -> np.ndarray:
    cols = []
    if spec.constant:
        cols.append(np.ones(w.shape[0]))
    if U is not None:
        cols.extend(U.T)
    if cols:
        X = np.column_stack(cols)
        coef, *_ = np.linalg.lstsq(X, w, rcond=None)
        adjusted = w - X @ coef
    else:
        coef = np.empty(0)
        adjusted = w
    pieces = [
        _to_unconstrained(_yule_walker(adjusted, spec.p)),
        _to_unconstrained(_yule_walker(adjusted, spec.P, spacing=spec.diff.S)),
        np.zeros(spec.q),  # MA side starts at white noise
        np.zeros(spec.Q),
        coef,
    ]
    return np.concatenate(pieces)


# ---------------------------------------------------------------------------
# fitting

def _run_simplex(objective, x0: np.ndarray, options: FitOptions):
    """Best of ``options.restarts`` simplex runs; deterministic given seed."""
    rng = np.random.default_rng(options.seed)
    best = None
    for attempt in range(options.restarts):
        start = x0 if attempt == 0 else x0 + rng.normal(0.0, 0.1, x0.shape[0])
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            options={
                "maxiter": options.max_iterations,
                "maxfev": options.max_iterations,
                "xatol": 1e-8,
                "fatol": options.tolerance,
            },
        )
        if not math.isfinite(res.fun):
            continue
        if best is None or res.fun < best.fun:
            best = res
    if best is None:
        raise EstimationFailed("no optimizer start produced a finite objective")
    return best


def fit(
    spec: ModelSpec,
    series: HourlySeries,
    exog: ExogenousMatrix | None = None,
    options: FitOptions = FitOptions(),
) -> FittedModel:
    """Maximize the conditional Gaussian likelihood of the model.

    The search runs over reparameterized coordinates, so the returned
    parameters always satisfy stationarity and invertibility; the stored
    log-likelihood is recomputed through :func:`lmpcast.arima.log_likelihood`
    on the returned parameters.
    """
    _validate_exog(spec, series, exog)
    w, U = _working_series(spec, series, exog)

    def objective(vec: np.ndarray) -> float:
        params = _unpack(spec, vec)
        loglik, _ = profiled_log_likelihood(spec, params, w, U)
        return -loglik if math.isfinite(loglik) else 1e300

    best = _run_simplex(objective, _starting_vector(spec, w, U), options)
    shape = _unpack(spec, best.x)
    _, sigma2 = profiled_log_likelihood(spec, shape, w, U)
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        raise EstimationFailed("optimum has degenerate innovation variance")
    params = replace(shape, sigma2=sigma2)

    loglik = log_likelihood(spec, params, series, exog)
    resid = residuals(spec, params, series, exog)
    n_eff = len(resid)
    flags = []
    if is_stable(ar_polynomial(spec, params)).margin < _BOUNDARY_MARGIN and spec.p + spec.P:
        flags.append("ar_near_boundary")
    if is_stable(ma_polynomial(spec, params)).margin < _BOUNDARY_MARGIN and spec.q + spec.Q:
        flags.append("ma_near_boundary")
    diagnostics = Diagnostics(
        converged=bool(best.success),
        iterations=int(best.nit),
        boundary_flags=tuple(flags),
        evaluations=int(best.nfev),
    )
    return FittedModel(
        spec=spec,
        params=params,
        loglik=loglik,
        bic=bic(loglik, spec.n_params, n_eff),
        n_effective=n_eff,
        residuals=resid,
        diagnostics=diagnostics,
    )


def bic(loglik: float, k: int, n: int) -> float:
    """Bayesian information criterion, -2*loglik + k*ln(n); lower is better."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return -2.0 * loglik + k * math.log(n)


# ---------------------------------------------------------------------------
# grid order selection

@dataclass(frozen=True)
class BicTable:
    """BIC values over a (p, q) grid, with failed cells recorded separately.

    ``best`` works on any populated table, including one transcribed from an
    external source, so the selection rule can be exercised without fitting.
    """

    p_values: tuple[int, ...]
    q_values: tuple[int, ...]
    cells: Mapping[tuple[int, int], float]
    failures: Mapping[tuple[int, int], str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_values", tuple(self.p_values))
        object.__setattr__(self, "q_values", tuple(self.q_values))
        object.__setattr__(self, "cells", dict(self.cells))
        object.__setattr__(self, "failures", dict(self.failures))
        grid = {(p, q) for p in self.p_values for q in self.q_values}
        for key in (*self.cells, *self.failures):
            if key not in grid:
                raise ValueError(f"cell {key} is outside the grid")

    def best(self) -> tuple[int, int]:
        """Orders of the minimal-BIC cell; ties prefer smaller p+q, then smaller q."""
        if not self.cells:
            raise EstimationFailed("every grid cell failed")
        return min(sorted(self.cells), key=lambda pq: (self.cells[pq], pq[0] + pq[1], pq[1]))

    def render(self) -> str:
        """Fixed-width text table, one row per p, one column per q."""
        header = "p\\q" + "".join(f"{q:>12d}" for q in self.q_values)
        lines = [header]
        for p in self.p_values:
            row = [f"{p:>3d}"]
            for q in self.q_values:
                if (p, q) in self.cells:
                    row.append(f"{self.cells[(p, q)]:>12.1f}")
                else:
                    row.append(f"{'failed':>12}")
            lines.append("".join(row))
        return "\n".join(lines)


def grid_select(
    series: HourlySeries,
    exog: ExogenousMatrix | None,
    p_range: Iterable[int],
    q_range: Iterable[int],
    base: ModelSpec,
    options: FitOptions = FitOptions(),
) -> tuple[ModelSpec, BicTable]:
    """Fit every (p, q) in the grid and pick the spec with minimal BIC.

    The template's differencing, seasonal, and exogenous structure is held
    fixed. Cells whose fit raises are recorded as failures and skipped;
    only an entirely failed grid raises.
    """
    p_values = tuple(sorted(set(int(p) for p in p_range)))
    q_values = tuple(sorted(set(int(q) for q in q_range)))
    if not p_values or not q_values:
        raise ValueError("p_range and q_range must be non-empty")
    cells: dict[tuple[int, int], float] = {}
    failures: dict[tuple[int, int], str] = {}
    for p in p_values:
        for q in q_values:
            candidate = replace(base, p=p, q=q)
            try:
                cells[(p, q)] = fit(candidate, series, exog, options).bic
            except (LmpcastError, ValueError) as exc:
                failures[(p, q)] = f"{type(exc).__name__}: {exc}"
    table = BicTable(p_values, q_values, cells, failures)
    chosen_p, chosen_q = table.best()
    return replace(base, p=chosen_p, q=chosen_q), table


# ---------------------------------------------------------------------------
# GARCH fitting

def _garch_unpack(vec: np.ndarray, p: int, q: int) -> tuple[float, np.ndarray, np.ndarray]:
    # clamp both ways: the upper bound stops overflow, the lower keeps
    # alpha0 strictly positive when the optimizer walks down a flat ridge
    alpha0 = math.exp(min(max(float(vec[0]), -700.0), 700.0))
    u = vec[1:]
    # softmax-style map keeps every coefficient non-negative with sum < 1
    hi = max(0.0, float(np.max(u)))
    ex = np.exp(u - hi)
    coeffs = ex / (math.exp(-hi) + ex.sum())
    return alpha0, coeffs[:p], coeffs[p:]


def fit_garch(
    residuals: HourlySeries,
    gspec: GarchSpec,
    options: FitOptions = FitOptions(),
) -> GarchParams:
    """Fit GARCH coefficients to a residual series by quasi-likelihood."""
    values = residuals.values
    if values.shape[0] < 100:
        raise SeriesTooShort(f"need at least 100 residuals, got {values.shape[0]}")
    v0 = float(np.var(values))
    if v0 <= 0.0:
        raise EstimationFailed("residuals have zero variance")
    eps2 = values**2
    m = values.shape[0]
    p, q = gspec.p, gspec.q
    log_2pi = math.log(2.0 * math.pi)

    def objective(vec: np.ndarray) -> float:
        alpha0, alpha, beta = _garch_unpack(vec, p, q)
        sig2 = _variance_recursion(alpha0, alpha, beta, eps2, v0)
        val = 0.5 * (m * log_2pi + np.sum(np.log(sig2)) + np.sum(eps2 / sig2))
        return val if math.isfinite(val) else 1e300

    arch_mass, garch_mass = 0.1, 0.8 if q else 0.0
    start_coeffs = np.concatenate(
        [np.full(p, arch_mass / p), np.full(q, garch_mass / q) if q else np.empty(0)]
    )
    slack = 1.0 - start_coeffs.sum()
    x0 = np.concatenate([[math.log(v0 * slack)], np.log(start_coeffs / slack)])

    best = _run_simplex(objective, x0, options)
    alpha0, alpha, beta = _garch_unpack(best.x, p, q)
    return GarchParams(alpha0=alpha0, alpha=tuple(alpha), beta=tuple(beta))


def model_forecast(
    fitted: FittedModel,
    history: HourlySeries,
    exog_history: ExogenousMatrix | None = None,
    exog_future: ExogenousMatrix | None = None,
    horizon: int = 1,
):
    """Forecast from a fitted model, routing variances through its GARCH layer.

    Point forecasts are those of the mean equation regardless of whether a
    variance model is attached; with one attached, the per-step innovation
    variances in the impulse-response sum come from its variance forecast.
    """
    if fitted.garch is None:
        return forecast(fitted.spec, fitted.params, history, exog_history, exog_future, horizon)
    _, gparams = fitted.garch
    resid = residuals(fitted.spec, fitted.params, history, exog_history)
    gvar = forecast_variance(gparams, resid, horizon)
    return forecast(
        fitted.spec,
        fitted.params,
        history,
        exog_history,
        exog_future,
        horizon,
        innovation_variances=gvar,
    )
