"""Maximum-likelihood estimation, BIC, and grid order selection.

The mean equation is fitted by Levenberg-Marquardt (Marquardt 1963;
MINPACK's ``lmder``, More 1978, called directly) on the
concentrated innovations, in an unconstrained coordinate system: AR and MA
factor coefficients are mapped through the partial-autocorrelation
reparameterization (each factor independently), so every point the search
visits is stationary and invertible. The intercept, the regression
coefficients and the innovation variance are concentrated out in closed
form, so the search sees only the AR/MA shape. Each point it visits is
filtered once: one innovation pass (:func:`lmpcast.arima._concentrated`)
filters the AR side of the working series and one row per regression
coefficient, and the Jacobian at that point
(:func:`lmpcast.arima._concentrated_jacobian`, Kaufman's (1975)
variable-projection form, carried through the PACF map by a ``k x k``
matrix) reuses that pass and filters only the ``p + P`` AR rows and the
innovations once per MA factor. Unless a start is given, the first start
is the sample partial autocorrelations of the working series from the
Durbin-Levinson recursion for the AR factors and white noise for the MA
side.
GARCH coefficients are fitted by Fisher scoring on the analytic
quasi-likelihood score (a BHHH-type search; Berndt, Hall, Hall & Hausman
1974), Levenberg-damped, in the coefficients themselves: each is kept
non-negative where its constraint binds, so it can reach zero. Both
searches are multi-start with seeded jitter and therefore deterministic.
"""

from __future__ import annotations

import functools
import logging
import math
import time
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping, NamedTuple

import numpy as np

from .arima import (
    ExogenousMatrix,
    ModelSpec,
    OriginForecasts,
    ParameterVector,
    _concentrated,
    _concentrated_jacobian,
    _end_of_history_paths,
    _gaussian_log_likelihood,
    _lag_array,
    _validate_exog,
    _working_series,
    residuals,
)
from .errors import DegenerateSeries, EstimationFailed, LmpcastError, SeriesTooShort
from .garch import (GarchParams, GarchSpec, _check_orders, _qml_score, _quasi_log_likelihood, _variance_recursion,
                    forecast_variance_origins)
from .lagpoly import _lmder, is_stable
from .series import HourlySeries, _autocovariances, _durbin_levinson, _levinson

__all__ = [
    "FitOptions",
    "Diagnostics",
    "FittedModel",
    "BicTable",
    "pacf_to_coeffs",
    "coeffs_to_pacf",
    "fit",
    "assemble_fit",
    "bic",
    "grid_select",
    "fit_garch",
    "model_forecast",
]

log = logging.getLogger(__name__)

# partial autocorrelations are kept strictly inside the unit interval so
# the implied polynomials clear the stability tolerance with room to spare
_PACF_LIMIT = 0.9999
_BOUNDARY_MARGIN = 1e-3


@dataclass(frozen=True)
class FitOptions:
    """Search controls shared by ARMA and GARCH fitting.

    ``restarts`` is the number of starts of either search: the first uses
    the moment-based starting point (or the start :func:`fit` is given),
    later ones jitter it with noise drawn from ``seed`` (for GARCH, the
    logarithms of its coefficients, scaled back below persistence 0.99);
    the best end wins. ``max_iterations`` is a budget counted in
    likelihood evaluations. The GARCH scoring search stops unconverged
    after that many quasi-likelihood evaluations (each score and
    information it takes comes from the variance path of an evaluation it
    already made). A Levenberg-Marquardt step of the mean equation
    (``lmder``) evaluates the innovations and a Jacobian of ``k`` columns
    (``k`` AR/MA coefficients), so that search stops after
    ``max_iterations // (k + 1)`` innovation evaluations, as it always has;
    the Jacobian reuses the innovation pass at its point.
    ``tolerance`` bounds the GARCH fit only: its search has converged once
    an accepted step raises the quasi-likelihood by at most ``tolerance``
    times ``1 + |QML|``. The Levenberg-Marquardt search stops on MINPACK's
    tests at fixed tolerances (relative reduction of the sum of squares
    1e-12, relative step 1e-10, gradient cosine 1e-10).
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
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed}: expected a non-negative integer")


@dataclass(frozen=True)
class Diagnostics:
    """How the winning start's search ended: whether its convergence tests
    passed (stopping at the cap is not convergence), its Jacobian
    evaluations or scoring steps (``iterations``), its innovation or
    quasi-likelihood evaluations (``evaluations``), and parameters near a
    boundary."""

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

    Levinson recursion (:func:`lmpcast.series._levinson`): every input with
    all entries strictly inside the unit interval yields a polynomial
    ``1 - c_1 B - ... - c_k B^k`` with roots outside the unit circle.
    """
    return np.array(_levinson(np.asarray(r, dtype=np.float64).tolist()), dtype=np.float64)


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


class _Shape(NamedTuple):
    """The AR/MA factors of a search point, all the likelihood kernel reads."""

    phi: list[float]
    Phi: list[float]
    theta: list[float]
    Theta: list[float]


def _unpack(spec: ModelSpec, vec: np.ndarray) -> _Shape:
    """The AR/MA shape at a search point, each factor through the PACF map on Python floats."""
    r = [_PACF_LIMIT * math.tanh(t) for t in vec.tolist()]
    i = spec.p
    j = i + spec.P
    k = j + spec.q
    return _Shape(_levinson(r[:i]), _levinson(r[i:j]), _levinson(r[j:k]), _levinson(r[k:]))


# the complex step of :func:`_unpack_jacobian`: its error term, of order
# step**2 relative to the derivative, is far below rounding, and no
# difference is taken, so nothing cancels
_COMPLEX_STEP = 1e-30


@functools.lru_cache(maxsize=None)
def _complex_steps(order: int) -> np.ndarray:
    """The ``order`` complex steps of :func:`_unpack_jacobian` on a diagonal, read only and built once per order."""
    steps = 1j * _COMPLEX_STEP * np.eye(order)
    steps.flags.writeable = False
    return steps


def _unpack_jacobian(spec: ModelSpec, vec: np.ndarray) -> np.ndarray:
    """``d(phi, Phi, theta, Theta)/d vec``, the factors concatenated, as a ``k x k`` matrix.

    Block diagonal, one block per factor. :func:`_unpack`'s map (``tanh``
    then the Levinson step) is analytic, so the imaginary part of its value
    at a complex step is a derivative exact to rounding (Squire & Trapp
    1998); one Levinson run on arrays takes a factor's steps together.
    """
    D = np.zeros((vec.shape[0], vec.shape[0]))
    i = 0
    for order in (spec.p, spec.P, spec.q, spec.Q):
        if order:
            # row m holds coordinate m under each of the order steps
            steps = vec[i : i + order, None] + _complex_steps(order)
            coeffs = _levinson(list(_PACF_LIMIT * np.tanh(steps)))
            D[i : i + order, i : i + order] = np.array(coeffs).imag / _COMPLEX_STEP
        i += order
    return D


# ---------------------------------------------------------------------------
# starting values

def _sample_partials(x: np.ndarray, order: int, spacing: int = 1) -> np.ndarray:
    """Sample partial autocorrelations of ``x`` at lags ``spacing``, ..., ``order * spacing``.

    Strided lags give the seasonal factor's start. Zeros where the sample is
    too short for them or constant.
    """
    if x.shape[0] <= order * spacing:
        return np.zeros(order)
    try:
        return np.array(_durbin_levinson(_autocovariances(x, np.arange(order + 1) * spacing)))
    except DegenerateSeries:
        return np.zeros(order)


def _starting_vector(spec: ModelSpec, w: np.ndarray, start: ParameterVector | None) -> np.ndarray:
    """Search coordinates of the first start, through the inverse of :func:`_unpack`'s map.

    Without ``start``: the sample partial autocorrelations for the AR
    factors and a white-noise MA side. With it: the partial
    autocorrelations of its factors, each padded with zeros (the same
    polynomial) or truncated to the spec's order.
    """
    if start is None:
        r = [_sample_partials(w, spec.p), _sample_partials(w, spec.P, spacing=spec.diff.S), np.zeros(spec.q + spec.Q)]
    else:
        r = []
        for coeffs, order in ((start.phi, spec.p), (start.Phi, spec.P), (start.theta, spec.q), (start.Theta, spec.Q)):
            x = coeffs_to_pacf(coeffs)[:order]
            r.extend([x, np.zeros(order - x.shape[0])])
    return np.arctanh(np.clip(np.concatenate(r) / _PACF_LIMIT, -0.999999, 0.999999))


# ---------------------------------------------------------------------------
# fitting

def _multistart(search, x0: np.ndarray, options: FitOptions):
    """Best of ``options.restarts`` runs of ``search``: from ``x0``, then from seeded jitters of it.

    ``search(start)`` returns ``(value, result)``; the lowest value wins, and
    a start whose value is not finite has failed. Deterministic given seed.
    """
    rng = np.random.default_rng(options.seed)
    best_value, best = math.inf, None
    for attempt in range(options.restarts):
        start = x0 if attempt == 0 else x0 + rng.normal(0.0, 0.1, x0.shape[0])
        value, result = search(start)
        if math.isfinite(value) and (best is None or value < best_value):
            best_value, best = value, result
    if best is None:
        raise EstimationFailed("no optimizer start produced a finite objective")
    return best


class _ShapeFit(NamedTuple):
    """The winning Levenberg-Marquardt run of :func:`_fit_shape`.

    ``x`` is where it ended, ``cost`` half the sum of squares there,
    ``info`` MINPACK's termination code (1 to 4: a convergence test passed;
    5: the cap), ``nfev`` and ``njev`` its innovation and Jacobian
    evaluations, and ``eps`` and ``beta`` the innovations and regression
    coefficients at ``x``.
    """

    x: np.ndarray
    cost: float
    info: int
    nfev: int
    njev: int
    eps: np.ndarray
    beta: np.ndarray

    @property
    def converged(self) -> bool:
        return 1 <= self.info <= 4


def _fit_shape(spec: ModelSpec, w: np.ndarray, U: np.ndarray | None, x0: np.ndarray, options: FitOptions) -> _ShapeFit:
    """Best of ``options.restarts`` Levenberg-Marquardt runs on the concentrated innovations.

    MINPACK's ``lmder`` (Marquardt 1963; More 1978), called directly with
    the arguments ``scipy.optimize.leastsq`` passes it with
    ``col_deriv=True``, with the analytic Jacobian of
    :func:`lmpcast.arima._concentrated_jacobian` carried to the search
    coordinates by :func:`_unpack_jacobian`. The Jacobian is handed over in
    MINPACK's column layout, a ``(k, m)`` array with one row per search
    coordinate: the filter Jacobian is built as those rows, so the map is
    one product ``D.T @ J`` into a preallocated array, which ``lmder``
    copies without transposing it. One step evaluates the
    innovations and ``k`` Jacobian columns, so the cap of
    ``max_iterations // (k + 1)`` innovation evaluations keeps
    ``max_iterations`` a budget counted in likelihood evaluations.
    ``lmder`` writes its iterates into the start it is given, so each run
    gets a copy: ``x0``, which later starts jitter, stays where it was.

    The last point filtered is kept, keyed on the exact bytes of the
    search vector, and any other point is filtered afresh. ``lmder`` takes
    a Jacobian only where it last evaluated the innovations, so the
    Jacobian reuses that innovation pass; the start's finiteness check
    filters the point ``lmder`` evaluates first, and the winner's
    innovations are usually the last ones filtered.
    """
    # the last point filtered: its key, shape and innovation stage, and the key ``out`` holds the Jacobian of
    key = shape = stage = jacobian_key = None

    def innovation_stage(vec: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        nonlocal key, shape, stage
        if vec.tobytes() != key:
            key, shape = vec.tobytes(), _unpack(spec, vec)
            stage = _concentrated(spec, shape, w, U)
        return stage

    def innovations(vec: np.ndarray) -> np.ndarray:
        return innovation_stage(vec)[0]

    # every Jacobian is written into this one array, a row per search
    # coordinate: MINPACK's column layout, which it copies as it stands
    # (a new array per step raised peak memory)
    out = np.empty((x0.shape[0], w.shape[0]))

    def jacobian(vec: np.ndarray) -> np.ndarray:
        nonlocal jacobian_key
        eps, _, Z = innovation_stage(vec)
        if jacobian_key != key:
            # (m, k) view of the (k, m) filter Jacobian, so ``.T`` is that array itself
            np.matmul(_unpack_jacobian(spec, vec).T, _concentrated_jacobian(spec, shape, w, eps, Z).T, out=out)
            jacobian_key = key
        return out

    maxfev = options.max_iterations // (x0.shape[0] + 1)

    def search(start):
        if not np.isfinite(innovations(start)).all():
            return math.inf, None
        # full output, column-wise Jacobian, ftol, xtol, gtol, maxfev, step bound factor 100, no scaling diagonal
        x, info, ier = _lmder(innovations, jacobian, start.copy(), (), 1, 1, 1e-12, 1e-10, 1e-10, maxfev, 100, None)
        cost = 0.5 * np.dot(info["fvec"], info["fvec"])
        return cost, (x, cost, int(ier), int(info["nfev"]), int(info["njev"]))

    x, cost, ier, nfev, njev = _multistart(search, x0, options)
    eps, beta, _ = innovation_stage(x)
    return _ShapeFit(x, cost, ier, nfev, njev, eps, beta)


def fit(
    spec: ModelSpec,
    series: HourlySeries,
    exog: ExogenousMatrix | None = None,
    options: FitOptions = FitOptions(),
    start: ParameterVector | None = None,
) -> FittedModel:
    """Maximize the conditional Gaussian likelihood of the model.

    Levenberg-Marquardt (:func:`_fit_shape`) searches only the AR/MA shape,
    in reparameterized coordinates, so the returned parameters always
    satisfy stationarity and invertibility; ``mu``, ``gamma`` and ``sigma2``
    come in closed form at every point, from the innovation pass the search
    made there (:func:`lmpcast.arima._concentrated`). A spec without AR/MA
    terms is fitted in closed form alone. ``start`` (say, the fit at the
    previous origin of a rolling backtest) replaces the moment-based first
    start. The stored log-likelihood is that of the returned parameters,
    from the residuals :func:`assemble_fit` filters. Each fit logs one
    DEBUG line with its evaluations and wall time.
    """
    began = time.perf_counter()
    _validate_exog(spec, series, exog)
    w, U = _working_series(spec, series, exog)
    k = spec.p + spec.P + spec.q + spec.Q
    if w.shape[0] < k:
        raise SeriesTooShort(f"{w.shape[0]} working hours cannot determine {k} AR/MA coefficients")
    if k:
        best = _fit_shape(spec, w, U, _starting_vector(spec, w, start), options)
        shape, eps, beta = _unpack(spec, best.x), best.eps, best.beta
        converged, iterations, evaluations = best.converged, best.njev, best.nfev
    else:
        shape = _Shape([], [], [], [])
        eps, beta, _ = _concentrated(spec, shape, w, U)
        converged, iterations, evaluations = True, 0, 1
    sigma2 = float(np.dot(eps, eps) / eps.shape[0])
    if not (math.isfinite(sigma2) and sigma2 > 0.0):
        raise EstimationFailed("optimum has degenerate innovation variance")
    c = int(spec.constant)
    params = ParameterVector(*shape, mu=beta[0] if c else 0.0, gamma=beta[c:], sigma2=sigma2)

    flags = []
    ar = _lag_array(params.phi, params.Phi, spec.diff.S)
    ma = _lag_array(params.theta, params.Theta, spec.diff.S)
    if is_stable(ar).margin < _BOUNDARY_MARGIN and spec.p + spec.P:
        flags.append("ar_near_boundary")
    if is_stable(ma).margin < _BOUNDARY_MARGIN and spec.q + spec.Q:
        flags.append("ma_near_boundary")
    diagnostics = Diagnostics(
        converged=converged,
        iterations=iterations,
        boundary_flags=tuple(flags),
        evaluations=evaluations,
    )
    fitted = assemble_fit(spec, params, series, exog, diagnostics)
    log.debug("fit ARIMA(%d,%d,%d)(%d,%d,%d)_%d with %d regressors and %s constant: %d innovation and "
              "%d Jacobian evaluations, %s, in %.1f ms", spec.p, spec.diff.d, spec.q, spec.P, spec.diff.D, spec.Q,
              spec.diff.S, spec.exog_count, "a" if spec.constant else "no", evaluations, iterations,
              "converged" if converged else "not converged", (time.perf_counter() - began) * 1e3)
    return fitted


def assemble_fit(
    spec: ModelSpec,
    params: ParameterVector,
    series: HourlySeries,
    exog: ExogenousMatrix | None,
    diagnostics: Diagnostics,
    garch: tuple[GarchSpec, GarchParams] | None = None,
) -> FittedModel:
    """A :class:`FittedModel` at given parameters, with its residuals and,
    from them, its log-likelihood and BIC computed on ``series``."""
    if garch is not None:
        _check_orders(*garch)
    resid = residuals(spec, params, series, exog)
    loglik = _gaussian_log_likelihood(resid.values, params.sigma2)
    n_eff = len(resid)
    return FittedModel(
        spec=spec,
        params=params,
        loglik=loglik,
        bic=bic(loglik, spec.n_params, n_eff),
        n_effective=n_eff,
        residuals=resid,
        diagnostics=diagnostics,
        garch=garch,
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

# Levenberg damping of the scoring step, relative to the mean diagonal of the
# information: where a scoring step starts, how it moves, and beyond which no
# step is taken any more (the QML cannot rise at any step length it allows)
_DAMPING_START = 1e-3
_DAMPING_FACTOR = 3.0
_DAMPING_LIMIT = 1e12


class _ScoringRun(NamedTuple):
    """Where one scoring search ended: its point, QML there, whether a stop
    test passed (the cap is not convergence), its scoring iterations and QML
    evaluations."""

    x: np.ndarray
    qml: float
    converged: bool
    iterations: int
    evaluations: int


def _garch_scoring(eps2: np.ndarray, p: int, q: int, x: np.ndarray, options: FitOptions) -> _ScoringRun:
    """Fisher scoring on the GARCH quasi-log-likelihood from ``x = (alpha0, alpha, beta)``.

    ``eps2`` are squared residuals of unit sample variance, the presample
    value. Each iteration solves the Levenberg-damped scoring step on the
    analytic score and expected information in the coefficients themselves
    (:func:`lmpcast.garch._qml_score`); a coefficient at zero whose score
    does not point above it sits out of the step, and a step that takes
    ``alpha`` or ``beta`` below zero is clipped to zero there. A trial that
    does not raise the QML, or has ``alpha0 <= 0`` or persistence at least
    one, is retried with three times the damping; an accepted one divides
    it by three. The search has converged when an accepted step raises the
    QML by at most ``options.tolerance`` times ``1 + |QML|``, or when no
    step short of the damping limit raises it; it stops unconverged after
    ``options.max_iterations`` QML evaluations.
    """

    def qml(vec: np.ndarray) -> tuple[float, np.ndarray | None]:
        if vec[0] <= 0.0 or vec[1:].sum() >= 1.0:
            return -math.inf, None
        sig2 = _variance_recursion(vec[0], vec[1 : 1 + p], vec[1 + p :], eps2, 1.0)
        value = _quasi_log_likelihood(eps2, sig2)
        return (value if math.isfinite(value) else -math.inf), sig2

    value, sig2 = qml(x)
    iterations, evaluations = 0, 1
    converged = False
    damping = _DAMPING_START
    while math.isfinite(value) and not converged and evaluations < options.max_iterations:
        score, information = _qml_score(x[1 + p :], eps2, sig2, 1.0, p)
        free = (x > 0.0) | (score > 0.0)
        g, H = score[free], information[np.ix_(free, free)]
        iterations += 1
        scale = np.trace(H) / H.shape[0]
        while evaluations < options.max_iterations:
            if damping > _DAMPING_LIMIT:
                converged = True
                break
            trial = x.copy()
            trial[free] += np.linalg.solve(H + damping * scale * np.eye(H.shape[0]), g)
            trial[1:] = np.maximum(trial[1:], 0.0)
            trial_value, trial_sig2 = qml(trial)
            evaluations += 1
            if trial_value > value:
                converged = trial_value - value <= options.tolerance * (1.0 + abs(trial_value))
                x, value, sig2 = trial, trial_value, trial_sig2
                damping /= _DAMPING_FACTOR
                break
            damping *= _DAMPING_FACTOR
    return _ScoringRun(x, value, converged, iterations, evaluations)


def fit_garch(
    residuals: HourlySeries,
    gspec: GarchSpec,
    options: FitOptions = FitOptions(),
) -> tuple[GarchParams, Diagnostics]:
    """Fit GARCH coefficients to a residual series by quasi-likelihood.

    Fisher scoring (:func:`_garch_scoring`) through :func:`_multistart`, on
    the residuals divided by their sample variance ``v0``, so that
    ``alpha0 / v0`` is fitted. The first start puts 0.1 on the ARCH lags
    and, with GARCH terms, 0.8 on the GARCH lags, each split evenly, at
    long-run variance ``v0``; later starts jitter the logarithms of its
    coefficients and scale ``alpha`` and ``beta`` back to persistence 0.99
    where they sum above it. Returns the coefficients and how the winning
    search ended: its scoring iterations, quasi-likelihood evaluations,
    whether it converged, and the flags ``garch_alpha_at_zero`` and
    ``garch_beta_at_zero`` for a coefficient below 1e-6 and
    ``garch_not_converged`` for a search stopped at its cap. When every
    ``alpha`` ends below 1e-6, ``beta`` is not identified (the QML is flat
    along it), so the fit is the constant-variance model: ``alpha`` and
    ``beta`` 0 and ``alpha0`` the mean squared residual, flagged
    ``garch_beta_unidentified`` where there are GARCH terms. Each fit logs
    one DEBUG line with its orders, counts and wall time.
    """
    began = time.perf_counter()
    values = residuals.values
    if values.shape[0] < 100:
        raise SeriesTooShort(f"need at least 100 residuals, got {values.shape[0]}")
    v0 = float(np.var(values))
    if v0 <= 0.0:
        raise EstimationFailed("residuals have zero variance")
    eps2 = values**2 / v0
    p, q = gspec.p, gspec.q

    def search(log_start):
        start = np.exp(log_start)
        start[1:] *= min(1.0, 0.99 / start[1:].sum())
        run = _garch_scoring(eps2, p, q, start, options)
        return -run.qml, run

    coeffs = np.concatenate([np.full(p, 0.1 / p), np.full(q, 0.8 / q) if q else np.empty(0)])
    best = _multistart(search, np.log(np.concatenate([[1.0 - coeffs.sum()], coeffs])), options)
    params = GarchParams(alpha0=v0 * best.x[0], alpha=tuple(best.x[1 : 1 + p]), beta=tuple(best.x[1 + p :]))
    # with no ARCH term the variance only decays from its presample value, so
    # the QML is flat along beta: report the constant-variance model, whose
    # QML peaks at the mean squared residual
    constant = all(a < 1e-6 for a in params.alpha)
    if constant:
        params = GarchParams(alpha0=float(np.mean(values**2)), alpha=(0.0,) * p, beta=(0.0,) * q)
    flags = []
    if any(a < 1e-6 for a in params.alpha):
        flags.append("garch_alpha_at_zero")
    if any(b < 1e-6 for b in params.beta):
        flags.append("garch_beta_at_zero")
    if constant and q:
        flags.append("garch_beta_unidentified")
    if not best.converged:
        flags.append("garch_not_converged")
    log.debug("fit GARCH(%d,%d): %d scoring iterations and %d QML evaluations, %s, in %.1f ms", p, q,
              best.iterations, best.evaluations, "converged" if best.converged else "not converged",
              (time.perf_counter() - began) * 1e3)
    return params, Diagnostics(converged=best.converged, iterations=best.iterations, boundary_flags=tuple(flags),
                               evaluations=best.evaluations)


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
    paths = _end_of_history_paths(fitted.spec, fitted.params, history, exog_history, exog_future, horizon)
    return paths.result(history, _innovation_variances(fitted, paths, horizon))


def _innovation_variances(fitted: FittedModel, paths: OriginForecasts, horizon: int) -> float | np.ndarray:
    """Per-step innovation variances of ``paths``' forecasts: ``sigma2``, or,
    with a GARCH layer, each origin's variance forecast from its own residuals."""
    if fitted.garch is None:
        return fitted.params.sigma2
    _, gparams = fitted.garch
    # innovations relative to the longest history's, so the shifts stay small
    return forecast_variance_origins(
        gparams,
        paths.innovations(-1),
        paths.response[: paths.ends[-1]],
        paths.backcast - paths.backcast[-1],
        paths.ends,
        horizon,
    )
