"""The dense-array likelihood kernel against the lag-polynomial algebra.

The oracle here is the kernel as first written: AR and MA polynomials
expanded through :class:`LagPolynomial` products, both filter sides run
through ``lfilter``, and the parameter map run on numpy arrays for every
factor, empty ones included. The dense kernel does the same arithmetic, so
without a seasonal MA factor its innovations must match exactly; only
seasonal and non-seasonal lags that overlap may sum in a different order.
The package inverts a seasonal MA factor phase by phase
(``arima._ma_inverse``), which equals the dense product filter to rounding,
and the bound that allows for this is checked to catch a wrong seasonal
inverse. Each origin's innovations in a multi-origin forecast are checked
against the reference at that origin's backcast mean.

The concentrated likelihood is checked against least squares over the
reference-filtered columns, against the reference likelihood at its own
``(mu, gamma)`` and at perturbed ones, and its Jacobian against central
differences of the reference innovations. The Levenberg-Marquardt fit is
checked against Nelder-Mead on the reference objective and against the
search before concentration, which ran the simplex over ``mu`` and
``gamma`` too. Its search is checked against ``least_squares``' and
``leastsq``'s ``lmder`` run over both kernel stages at every call, and its
filter count against one pass per evaluation. The seasonal MA factor,
inverted phase by phase, is checked against the dense product filter.

The GARCH layer's quasi-likelihood score and information are checked
against central differences, and its Fisher-scoring fit against the
Kuhn-Tucker conditions at its end point and against Nelder-Mead on the
same objective from the same start.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy.signal import lfilter, lfiltic

from lmpcast import arima, estimation, lagpoly
from lmpcast.arima import (
    ExogenousMatrix,
    ModelSpec,
    ParameterVector,
    _innovations,
    _working_series,
    ar_polynomial,
    forecast_origins,
    log_likelihood,
    ma_polynomial,
    profiled_log_likelihood,
    simulate,
)
from lmpcast.estimation import (
    FitOptions,
    _PACF_LIMIT,
    _fit_shape,
    _multistart,
    _starting_vector,
    _unpack,
    _unpack_jacobian,
    fit,
    fit_garch,
)
from lmpcast.garch import (GarchParams, GarchSpec, _qml_score, _quasi_log_likelihood, _variance_recursion,
                           garch_log_likelihood)
from lmpcast.lagpoly import DifferenceSpec
from lmpcast.series import HourlySeries


def reference_innovations(spec, params, w, U, backcast=None):
    ar = ar_polynomial(spec, params).dense()
    ma = ma_polynomial(spec, params).dense()
    k_ar = ar.shape[0] - 1
    if backcast is None:
        backcast = w.mean()
    w_ext = np.concatenate([np.full(k_ar, backcast), w]) if k_ar else w
    v = lfilter(ar, [1.0], w_ext)[k_ar:]
    rhs = v - params.mu
    if U is not None:
        rhs = rhs - U @ np.asarray(params.gamma)
    return lfilter([1.0], ma, rhs)


def reference_pacf_to_coeffs(r):
    a = np.empty(0)
    for k, rk in enumerate(np.asarray(r, dtype=np.float64), start=1):
        nxt = np.empty(k)
        nxt[k - 1] = rk
        if k > 1:
            nxt[: k - 1] = a - rk * a[::-1]
        a = nxt
    return a


def reference_unpack(spec, vec):
    i = 0
    parts = {}
    for name, count in (("phi", spec.p), ("Phi", spec.P), ("theta", spec.q), ("Theta", spec.Q)):
        parts[name] = tuple(reference_pacf_to_coeffs(_PACF_LIMIT * np.tanh(vec[i : i + count])))
        i += count
    mu = float(vec[i]) if spec.constant else 0.0
    i += int(spec.constant)
    gamma = tuple(vec[i : i + spec.exog_count])
    return ParameterVector(mu=mu, gamma=gamma, sigma2=1.0, **parts)


def reference_profiled(spec, params, w, U):
    eps = reference_innovations(spec, params, w, U)
    sigma2 = float(np.dot(eps, eps) / eps.shape[0])
    return -0.5 * eps.shape[0] * (math.log(2.0 * math.pi * sigma2) + 1.0), sigma2


def reference_concentrated(spec, params, w, U):
    """The likelihood maximized over (mu, gamma, sigma2), from the reference filter.

    The innovations are linear in (mu, gamma), so each regression column is
    minus the reference innovations of a unit coefficient on a zero series.
    """
    shape = ParameterVector(
        phi=params.phi, Phi=params.Phi, theta=params.theta, Theta=params.Theta,
        gamma=(0.0,) * spec.exog_count,
    )
    y = reference_innovations(spec, shape, w, U)
    zeros = np.zeros_like(w)
    columns = []
    if spec.constant:
        columns.append(-reference_innovations(spec, replace(shape, mu=1.0), zeros, U))
    for j in range(spec.exog_count):
        unit = tuple(float(i == j) for i in range(spec.exog_count))
        columns.append(-reference_innovations(spec, replace(shape, gamma=unit), zeros, U))
    beta = np.empty(0)
    eps = y
    if columns:
        Z = np.column_stack(columns)
        beta = np.linalg.lstsq(Z, y, rcond=None)[0]
        eps = y - Z @ beta
    sigma2 = float(np.dot(eps, eps) / eps.shape[0])
    loglik = -0.5 * eps.shape[0] * (math.log(2.0 * math.pi * sigma2) + 1.0)
    return loglik, sigma2, tuple(beta.tolist())


def with_beta(spec, params, beta):
    c = int(spec.constant)
    return replace(params, mu=beta[0] if c else 0.0, gamma=tuple(beta[c:]))


def reference_simplex(objective, x0, options):
    """Best of ``options.restarts`` Nelder-Mead runs on ``objective``, the
    search the package ran before it fitted from derivatives: at most
    ``max_iterations`` iterations and evaluations, ``xatol`` 1e-8 and
    ``fatol`` the options' tolerance. The result carries ``x``, ``fun``,
    ``nfev`` and ``success``."""
    from scipy.optimize import minimize

    def search(start):
        res = minimize(objective, start, method="Nelder-Mead", options={
            "maxiter": options.max_iterations, "maxfev": options.max_iterations,
            "xatol": 1e-8, "fatol": options.tolerance,
        })
        return res.fun, res

    return _multistart(search, x0, options)


def reference_garch_unpack(vec, p, q):
    """``(alpha0, alpha, beta)`` at a point of the coordinates the GARCH
    fit searched before it fitted the coefficients themselves: ``log alpha0``
    and a softmax of the ARCH and GARCH coefficients, so every point has
    ``alpha0 > 0``, non-negative coefficients and persistence below one."""
    alpha0 = math.exp(min(max(float(vec[0]), -700.0), 700.0))
    u = vec[1:]
    hi = max(0.0, float(np.max(u)))
    ex = np.exp(u - hi)
    coeffs = ex / (math.exp(-hi) + ex.sum())
    return alpha0, coeffs[:p], coeffs[p:]


def reference_garch_start(v0, p, q):
    """:func:`reference_garch_unpack`'s coordinates of the GARCH fit's first
    start: ARCH mass 0.1 and, with GARCH terms, GARCH mass 0.8, each split
    evenly over its lags, at long-run variance ``v0``."""
    coeffs = np.concatenate([np.full(p, 0.1 / p), np.full(q, 0.8 / q) if q else np.empty(0)])
    slack = 1.0 - coeffs.sum()
    return np.concatenate([[math.log(v0 * slack)], np.log(coeffs / slack)])


def reference_search_loglik(spec, y, exog, options):
    """Log-likelihood of the search before concentration, and whether it
    converged before its cap.

    The simplex ran over the PACF coordinates and ``(mu, gamma)``, started
    from least squares on the regressors and the sample partial
    autocorrelations of what they leave; only ``sigma2`` was profiled out.
    """
    w, U = _working_series(spec, y, exog)
    cols = ([np.ones(w.shape[0])] if spec.constant else []) + ([] if U is None else list(U.T))
    coef = np.empty(0)
    adjusted = w
    if cols:
        X = np.column_stack(cols)
        coef = np.linalg.lstsq(X, w, rcond=None)[0]
        adjusted = w - X @ coef
    x0 = np.concatenate([_starting_vector(spec, adjusted, None), coef])

    def objective(vec):
        loglik = reference_profiled(spec, reference_unpack(spec, vec), w, U)[0]
        return -loglik if math.isfinite(loglik) else 1e300

    best = reference_simplex(objective, x0, options)
    params = reference_unpack(spec, best.x)
    _, sigma2 = reference_profiled(spec, params, w, U)
    return log_likelihood(spec, replace(params, sigma2=sigma2), y, exog), bool(best.success)


def _series(n=800, seed=0):
    truth = ParameterVector(phi=(0.6,), theta=(0.3,), mu=0.2, sigma2=1.0)
    y = simulate(ModelSpec(p=1, q=1), truth, n, seed=seed)
    return HourlySeries(y.start, y.values + 0.05 * np.sin(np.arange(n) * 2 * np.pi / 24))


def _exog(series, seed=1):
    x = np.random.default_rng(seed).normal(size=len(series))
    return ExogenousMatrix((HourlySeries(series.start, x),))


SEASONAL = DifferenceSpec(D=1, S=24)

CASES = {
    "arma": (ModelSpec(p=2, q=2), ParameterVector(phi=(0.5, -0.2), theta=(0.3, 0.1), mu=0.1)),
    "sarima": (
        ModelSpec(p=2, q=1, P=1, Q=1, diff=SEASONAL),
        ParameterVector(phi=(0.4, 0.1), Phi=(0.3,), theta=(0.2,), Theta=(-0.5,), mu=0.01),
    ),
    "armax": (ModelSpec(p=1, q=2, exog_count=1), ParameterVector(phi=(0.7,), theta=(0.2, 0.1), mu=0.3, gamma=(1.5,))),
    "no_constant": (
        ModelSpec(p=1, q=1, P=1, diff=DifferenceSpec(d=1, S=24), constant=False),
        ParameterVector(phi=(0.3,), Phi=(0.4,), theta=(-0.6,)),
    ),
    "zero_ma": (ModelSpec(p=1, q=3, Q=1, diff=SEASONAL), ParameterVector(phi=(0.5,), theta=(0.0, 0.0, 0.0), Theta=(0.0,))),
    "trailing_zero_ar": (ModelSpec(p=3, q=1), ParameterVector(phi=(0.5, 0.2, 0.0), theta=(0.4,), mu=-0.2)),
    "pure_ma": (ModelSpec(q=2), ParameterVector(theta=(0.5, -0.3), mu=0.4)),
    "regression_only": (ModelSpec(exog_count=1, constant=False), ParameterVector(gamma=(-0.7,))),
}


def assert_equals_the_product_filter(got, want, params):
    """``got``, MA-inverted by ``arima._ma_inverse``, against ``want`` from
    the dense product filter. Without a seasonal MA factor the two run the
    same filter call, so they must agree bit for bit. With one,
    ``THETA(B^S)`` runs phase by phase, which equals the product filter to
    rounding: the bound of
    :func:`test_seasonal_factor_by_phase_equals_the_product_filter`."""
    if any(params.Theta):
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())
    else:
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("case", sorted(CASES))
def test_innovations_equal_the_lag_polynomial_kernel(case):
    spec, params = CASES[case]
    y = _series()
    w, U = _working_series(spec, y, _exog(y) if spec.exog_count else None)
    # same lag arrays, trailing zeros dropped, so the filter orders match too
    S = spec.diff.S
    np.testing.assert_array_equal(arima._lag_array(params.phi, params.Phi, S), ar_polynomial(spec, params).dense())
    np.testing.assert_array_equal(arima._lag_array(params.theta, params.Theta, S), ma_polynomial(spec, params).dense())
    got = _innovations(spec, params, w, U)
    assert_equals_the_product_filter(got, reference_innovations(spec, params, w, U), params)


def assert_least_squares_over_the_reference_columns(spec, params, w, U):
    loglik, sigma2, beta = profiled_log_likelihood(spec, params, w, U)
    want_loglik, want_sigma2, want_beta = reference_concentrated(spec, params, w, U)
    assert len(beta) == int(spec.constant) + spec.exog_count
    np.testing.assert_allclose(beta, want_beta, rtol=1e-10, atol=0)
    # the value is the reference likelihood at the kernel's own (mu, gamma)
    at_beta = reference_profiled(spec, with_beta(spec, params, beta), w, U)
    np.testing.assert_allclose([loglik, sigma2], at_beta, rtol=1e-12, atol=0)
    np.testing.assert_allclose([loglik, sigma2], [want_loglik, want_sigma2], rtol=1e-12, atol=0)
    # and no other (mu, gamma) does better
    rng = np.random.default_rng(11)
    for shift in rng.normal(0.0, 0.05, (20, len(beta))):
        perturbed = with_beta(spec, params, np.asarray(beta) + shift)
        assert loglik >= reference_profiled(spec, perturbed, w, U)[0]


@pytest.mark.parametrize("case", sorted(CASES))
def test_concentrated_kernel_is_least_squares_over_the_reference_columns(case):
    spec, params = CASES[case]
    y = _series()
    w, U = _working_series(spec, y, _exog(y) if spec.exog_count else None)
    assert_least_squares_over_the_reference_columns(spec, params, w, U)


def test_concentrated_kernel_with_a_regressor_close_to_the_constant():
    # the filtered columns' Gram matrix has a condition number near 1e13:
    # solved through it, beta would lose most of its digits and the
    # likelihood about 1e-7
    spec, params = CASES["armax"]
    y = _series()
    x = 1.0 + 1e-6 * np.random.default_rng(1).normal(size=len(y))
    w, U = _working_series(spec, y, ExogenousMatrix((HourlySeries(y.start, x),)))
    assert_least_squares_over_the_reference_columns(spec, params, w, U)


@pytest.mark.parametrize("exog_count", [0, 1])
def test_an_overflowing_ma_side_gives_minus_infinity(exog_count):
    # the kernel does not check invertibility; the filter overflows to
    # inf/NaN with one regression column or two, and neither raises
    spec = ModelSpec(p=1, q=1, exog_count=exog_count)
    y = _series()
    w, U = _working_series(spec, y, _exog(y) if exog_count else None)
    params = ParameterVector(phi=(0.2,), theta=(3.0,), gamma=(0.0,) * exog_count)
    with np.errstate(all="ignore"):
        assert profiled_log_likelihood(spec, params, w, U)[0] == float("-inf")


@pytest.mark.parametrize("backcast", [0.0, -3.25, 17.0])
def test_custom_backcast_equals_the_lag_polynomial_kernel(backcast):
    spec, params = CASES["sarima"]
    w, U = _working_series(spec, _series(), None)
    assert_equals_the_product_filter(
        _innovations(spec, params, w, U, backcast=backcast),
        reference_innovations(spec, params, w, U, backcast=backcast),
        params,
    )


# p >= S: lags 4..6 collect two products each, which the dense convolution
# may add in another order than the sparse product
OVERLAPPING = (
    ModelSpec(p=6, q=5, P=1, Q=1, diff=DifferenceSpec(S=4)),
    ParameterVector(
        phi=(0.2, -0.1, 0.05, 0.1, 0.05, -0.02), Phi=(0.3,),
        theta=(0.2, 0.1, -0.1, 0.05, 0.02), Theta=(0.4,), mu=0.1,
    ),
)


def test_overlapping_seasonal_lags_agree_to_rounding():
    spec, params = OVERLAPPING
    w, U = _working_series(spec, _series(), None)
    got = _innovations(spec, params, w, U)
    assert_equals_the_product_filter(got, reference_innovations(spec, params, w, U), params)
    np.testing.assert_allclose(
        arima._lag_array(params.phi, params.Phi, 4), ar_polynomial(spec, params).dense(), rtol=1e-14, atol=0
    )


def ma_inverse_without_the_seasonal_factor(theta, Theta, S, x):
    return lfilter([1.0], theta, x)


def ma_inverse_across_phases(theta, Theta, S, x):
    """``THETA`` run along each season's ``S`` hours, the transpose of its phase columns."""
    x = lfilter([1.0], theta, x)
    m = x.shape[0]
    grid = np.zeros(-(-m // S) * S)
    grid[:m] = x
    return lfilter([1.0], Theta, grid.reshape(-1, S), axis=1).reshape(-1)[:m]


@pytest.mark.parametrize("broken", [ma_inverse_without_the_seasonal_factor, ma_inverse_across_phases])
@pytest.mark.parametrize("spec, params", [CASES["sarima"], OVERLAPPING], ids=["sarima", "overlapping"])
def test_the_product_filter_bound_catches_a_wrong_seasonal_inverse(spec, params, broken, monkeypatch):
    # the check of the check: the bound the seasonal cases take is tight
    # enough to see the seasonal factor dropped or run over the wrong lanes
    w, U = _working_series(spec, _series(), None)
    want = reference_innovations(spec, params, w, U)
    monkeypatch.setattr(arima, "_ma_inverse", broken)
    with pytest.raises(AssertionError):
        assert_equals_the_product_filter(_innovations(spec, params, w, U), want, params)


@pytest.mark.parametrize("spec, params", [
    CASES["sarima"],
    # the backcast term barely decays, so each origin's backcast mean reaches all its innovations
    (ModelSpec(p=1, Q=1, diff=SEASONAL), ParameterVector(phi=(0.3,), Theta=(0.998,), mu=0.002)),
], ids=["sarima", "near_unit_seasonal_ma"])
def test_origin_innovations_equal_the_product_filter_at_their_backcast_mean(spec, params):
    # working lengths 276, 427, 589 and 776 hours: none a whole number of seasons
    y = _series()
    origins = [300, 451, 613, 800]
    paths = forecast_origins(spec, params, y, None, origins, 5)
    w, _ = _working_series(spec, y, None)
    for i, end in enumerate(paths.ends):
        assert end % spec.diff.S
        np.testing.assert_allclose(paths.backcast[i], w[:end].mean(), rtol=1e-12)
        want = reference_innovations(spec, params, w[:end], None, backcast=paths.backcast[i])
        assert_equals_the_product_filter(paths.innovations(i), want, params)


@pytest.mark.parametrize("case", sorted(CASES))
def test_objective_equals_the_reference_at_random_points(case):
    spec, _ = CASES[case]
    y = _series()
    w, U = _working_series(spec, y, _exog(y) if spec.exog_count else None)
    rng = np.random.default_rng(7)
    n = spec.p + spec.P + spec.q + spec.Q
    for vec in [np.zeros(n), *rng.normal(0.0, 1.5, (20, n))]:
        shape = _unpack(spec, vec)
        want = reference_unpack(spec, np.concatenate([vec, np.zeros(int(spec.constant) + spec.exog_count)]))
        for name in ("phi", "Phi", "theta", "Theta"):
            # math.tanh and np.tanh may differ in the last bit
            np.testing.assert_allclose(getattr(shape, name), getattr(want, name), rtol=1e-14, atol=1e-15)
        loglik = profiled_log_likelihood(spec, shape, w, U)[0]
        np.testing.assert_allclose(loglik, reference_concentrated(spec, want, w, U)[0], rtol=1e-12)


JACOBIAN_CASES = {
    "arma23": (ModelSpec(p=2, q=3), ParameterVector(phi=(0.5, -0.2), theta=(0.3, 0.1, -0.1))),
    "fit_once_sarima": CASES["sarima"],
    "armax": CASES["armax"],
    "no_constant": CASES["no_constant"],
    "zero_ma": CASES["zero_ma"],
    # phi_3 = 0 drops from the lag array, but its derivative still reads lag 3
    "trailing_zero_ar": CASES["trailing_zero_ar"],
}
FACTORS = ("phi", "Phi", "theta", "Theta")


def reference_regressor_rows(spec, params, w, U):
    """The filtered regressor rows: minus the reference innovations of a unit coefficient on a zero series."""
    zeros = np.zeros_like(w)
    shape = replace(params, mu=0.0, gamma=(0.0,) * spec.exog_count)
    rows = [-reference_innovations(spec, replace(shape, mu=1.0), zeros, U)] if spec.constant else []
    for j in range(spec.exog_count):
        unit = tuple(float(i == j) for i in range(spec.exog_count))
        rows.append(-reference_innovations(spec, replace(shape, gamma=unit), zeros, U))
    return np.array(rows).reshape(len(rows), w.shape[0])


@pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
def test_filter_jacobian_equals_central_differences(case):
    # at the kernel's beta, held fixed, each coefficient moved both ways
    # through the reference filter; Kaufman's form projects the regressor
    # rows out of both sides
    spec, params = JACOBIAN_CASES[case]
    y = _series()
    w, U = _working_series(spec, y, _exog(y) if spec.exog_count else None)
    eps, beta, Z_filtered = arima._concentrated(spec, params, w, U)
    J = arima._concentrated_jacobian(spec, params, w, eps, Z_filtered)
    fixed = with_beta(spec, params, beta)
    np.testing.assert_allclose(eps, reference_innovations(spec, fixed, w, U), rtol=1e-10, atol=1e-12)
    h = 1e-6
    columns = []
    for name in FACTORS:
        coeffs = np.array(getattr(fixed, name))
        for step in h * np.eye(coeffs.shape[0]):
            up, down = (reference_innovations(spec, replace(fixed, **{name: tuple(c)}), w, U)
                        for c in (coeffs + step, coeffs - step))
            columns.append((up - down) / (2.0 * h))
    want = np.column_stack(columns)
    Z = reference_regressor_rows(spec, params, w, U)
    if Z.shape[0]:
        Q = np.linalg.qr(Z.T)[0]
        want = want - Q @ (Q.T @ want)
        # the projected Jacobian is orthogonal to the filtered regressor rows
        cosines = (Z @ J) / np.outer(np.linalg.norm(Z, axis=1), np.linalg.norm(J, axis=0))
        assert np.abs(cosines).max() < 1e-10
    assert J.shape == (w.shape[0], spec.p + spec.P + spec.q + spec.Q)
    np.testing.assert_allclose(J, want, rtol=1e-6, atol=1e-6 * np.abs(want).max())


@pytest.mark.parametrize("case", sorted(JACOBIAN_CASES))
def test_pacf_map_jacobian_equals_central_differences(case):
    spec, _ = JACOBIAN_CASES[case]
    k = spec.p + spec.P + spec.q + spec.Q
    h = 1e-6
    for vec in (np.zeros(k), np.random.default_rng(8).normal(0.0, 1.0, k)):
        want = np.column_stack([
            (np.concatenate(_unpack(spec, vec + h * e)) - np.concatenate(_unpack(spec, vec - h * e))) / (2.0 * h)
            for e in np.eye(k)
        ])
        np.testing.assert_allclose(_unpack_jacobian(spec, vec), want, rtol=1e-6, atol=1e-9)


def test_pacf_map_equals_the_array_recursion():
    rng = np.random.default_rng(3)
    for k in range(7):
        r = rng.uniform(-0.99, 0.99, k)
        got = estimation.pacf_to_coeffs(r)
        assert got.dtype == np.float64 and got.shape == (k,)
        np.testing.assert_array_equal(got, reference_pacf_to_coeffs(r))


FITS = {
    "grid_cell": (ModelSpec(p=2, q=3), False),
    "sarima": (ModelSpec(p=1, q=1, P=1, Q=1, diff=SEASONAL), False),
    "armax": (ModelSpec(p=1, q=2, exog_count=1), True),
}


def reference_concentrated_search(spec, y, exog, options):
    """The concentrated fit as Nelder-Mead on the reference objective: the
    search ``fit`` ran before it fitted from the filter Jacobian, with the
    same first start. Returns the log-likelihood of its optimum and whether
    the simplex converged before its cap."""
    w, U = _working_series(spec, y, exog)

    def objective(vec):
        loglik = reference_concentrated(spec, _unpack(spec, vec), w, U)[0]
        return -loglik if math.isfinite(loglik) else 1e300

    best = reference_simplex(objective, _starting_vector(spec, w, None), options)
    shape = _unpack(spec, best.x)
    _, sigma2, beta = reference_concentrated(spec, shape, w, U)
    params = with_beta(spec, ParameterVector(*shape, sigma2=sigma2), beta)
    return log_likelihood(spec, params, y, exog), bool(best.success)


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_reaches_the_reference_objective_optimum(name):
    # the kernel's Levenberg-Marquardt fit against the simplex on the
    # reference objective: at least as high, and the same optimum
    spec, with_exog = FITS[name]
    y = _series(600, seed=4)
    exog = _exog(y) if with_exog else None
    options = FitOptions(restarts=2, seed=3)
    kernel = fit(spec, y, exog, options)
    oracle_loglik, oracle_converged = reference_concentrated_search(spec, y, exog, options)
    assert kernel.diagnostics.converged and oracle_converged
    assert 0 < kernel.diagnostics.iterations <= kernel.diagnostics.evaluations
    assert kernel.loglik >= oracle_loglik - 1e-9
    np.testing.assert_allclose(kernel.loglik, oracle_loglik, rtol=1e-10)


def test_every_grid_cell_reaches_the_reference_search():
    # cells where the reference simplex stops at its cap prove nothing
    # either way; they are exempt and named
    truth = ParameterVector(phi=(0.9,), theta=(0.25, 0.1), mu=0.6, sigma2=1.0)
    y = simulate(ModelSpec(p=1, q=2), truth, 1500, seed=12)
    options = FitOptions(restarts=1, seed=0)
    below, capped = [], []
    for p in range(1, 6):
        for q in range(1, 6):
            spec = ModelSpec(p=p, q=q)
            loglik = fit(spec, y, options=options).loglik
            reference, converged = reference_search_loglik(spec, y, None, options)
            if not converged:
                capped.append((p, q))
            elif loglik < reference - 1e-9:
                below.append(((p, q), loglik - reference))
    assert below == [], f"below the reference; exempt at the reference's cap: {capped}"
    assert len(capped) < 25


def reference_fit_shape(spec, w, U, x0, options):
    """The search as it ran before it kept its last point: ``least_squares``'
    ``lmder`` (``method="lm"``), with both kernel stages run afresh at every
    call, from the same starts and with the same tolerances and cap."""
    from scipy.optimize import least_squares

    def innovations(vec):
        return arima._concentrated(spec, _unpack(spec, vec), w, U)[0]

    def jacobian(vec):
        shape = _unpack(spec, vec)
        eps, _, Z = arima._concentrated(spec, shape, w, U)
        return arima._concentrated_jacobian(spec, shape, w, eps, Z) @ _unpack_jacobian(spec, vec)

    def search(start):
        if not np.isfinite(innovations(start)).all():
            return math.inf, None
        res = least_squares(innovations, start, jac=jacobian, method="lm", ftol=1e-12, xtol=1e-10, gtol=1e-10,
                            max_nfev=options.max_iterations // (x0.shape[0] + 1))
        return res.cost, res

    return _multistart(search, x0, options)


# least_squares' status for each MINPACK termination code lmder returns here
COMMON_STATUS = {1: 2, 2: 3, 3: 4, 4: 1, 5: 0}

SEARCHES = {
    # the fit-once workload's three specs
    "arma_delta": (ModelSpec(p=1, q=2), False, FitOptions(restarts=1)),
    # the second of three starts wins, so the winner is not the last point filtered
    "armax_delta": (ModelSpec(p=1, q=2, exog_count=1), True, FitOptions(restarts=3, seed=1)),
    "sarima_rtlmp": (ModelSpec(p=2, q=1, P=1, Q=1, diff=SEASONAL), False, FitOptions(restarts=1)),
    # two cells of the order grid
    "grid_3_4": (ModelSpec(p=3, q=4), False, FitOptions(restarts=2, seed=1)),
    "grid_5_5": (ModelSpec(p=5, q=5), False, FitOptions(restarts=1)),
    # 100 // (10 + 1) = 9 innovation evaluations: stopped at the cap
    "capped": (ModelSpec(p=5, q=5), False, FitOptions(max_iterations=100, restarts=1)),
    # no regression coefficient, so nothing is projected out
    "no_constant": (ModelSpec(p=2, q=1, constant=False), False, FitOptions(restarts=1)),
}


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_search_takes_the_iterates_of_least_squares_over_both_stages(name):
    # bit for bit: the kept point only spares filter passes
    spec, with_exog, options = SEARCHES[name]
    y = _series(1000, seed=6)
    w, U = _working_series(spec, y, _exog(y) if with_exog else None)
    x0 = _starting_vector(spec, w, None)
    got = _fit_shape(spec, w, U, x0, options)
    want = reference_fit_shape(spec, w, U, x0, options)
    np.testing.assert_array_equal(got.x, want.x)
    assert (got.nfev, got.njev, COMMON_STATUS[got.info], got.cost) == (want.nfev, want.njev, want.status, want.cost)
    assert got.converged == (want.status > 0) == (name != "capped")
    eps, beta, _ = arima._concentrated(spec, _unpack(spec, want.x), w, U)
    np.testing.assert_array_equal(got.eps, eps)
    np.testing.assert_array_equal(got.beta, beta)


def leastsq_fit_shape(spec, w, U, x0, options):
    """The search as it ran through ``scipy.optimize.leastsq`` before ``lmder`` was called directly: the same starts,
    tolerances and cap, with both kernel stages run afresh at every call. Returns the winner's ``(x, cost, info,
    nfev, njev)``."""
    from scipy.optimize import leastsq

    def innovations(vec):
        return arima._concentrated(spec, _unpack(spec, vec), w, U)[0]

    def jacobian(vec):
        shape = _unpack(spec, vec)
        eps, _, Z = arima._concentrated(spec, shape, w, U)
        return arima._concentrated_jacobian(spec, shape, w, eps, Z) @ _unpack_jacobian(spec, vec)

    def search(start):
        if not np.isfinite(innovations(start)).all():
            return math.inf, None
        x, _, info, _, ier = leastsq(innovations, start, Dfun=jacobian, full_output=True, ftol=1e-12, xtol=1e-10,
                                     gtol=1e-10, maxfev=options.max_iterations // (x0.shape[0] + 1))
        cost = 0.5 * np.dot(info["fvec"], info["fvec"])
        return cost, (x, cost, ier, info["nfev"], info["njev"])

    return _multistart(search, x0, options)


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_direct_lmder_call_takes_the_iterates_of_leastsq(name):
    # bit for bit: the same MINPACK routine with the arguments leastsq passes
    # it; lmder iterates in place, so the start handed over must not move
    spec, with_exog, options = SEARCHES[name]
    y = _series(1000, seed=6)
    w, U = _working_series(spec, y, _exog(y) if with_exog else None)
    x0 = _starting_vector(spec, w, None)
    start = x0.copy()
    got = _fit_shape(spec, w, U, x0, options)
    np.testing.assert_array_equal(x0, start)
    x, cost, info, nfev, njev = leastsq_fit_shape(spec, w, U, x0, options)
    np.testing.assert_array_equal(got.x, x)
    assert (got.nfev, got.njev, got.info, got.cost) == (nfev, njev, info, cost)
    assert got.converged == (name != "capped")


def reference_search_stages(spec, vec, w, U, stacked=False):
    """The innovations and the Jacobian the search handed MINPACK before it took MINPACK's column layout.

    Both kernel stages as first written: ``e = y - beta @ Z``, and the
    filter Jacobian with the filtered regressor rows ``Z`` projected out of
    one row at a time by ``c @ Z`` (of all rows by one ``C @ Z`` with
    ``stacked``), carried to the search coordinates as the ``(m, k)``
    product with ``_unpack_jacobian``.
    """
    S = spec.diff.S
    shape = _unpack(spec, vec)
    theta, Theta = arima._lag_array(shape.theta, (), 1), arima._lag_array(shape.Theta, (), 1)
    r = int(spec.constant) + spec.exog_count
    m = w.shape[0]
    Y = np.empty((1 + r, m))
    Y[0] = arima._ar_side(spec, shape, w)
    if spec.constant:
        Y[1] = 1.0
    if U is not None:
        Y[1 + int(spec.constant) :] = U.T
    for row in Y:
        row[:] = arima._ma_inverse(theta, Theta, S, row)
    y, Z = Y[0], Y[1:]
    eps = y - arima._regress(Z, y[None])[0] @ Z if r else y
    J = np.empty((spec.p + spec.P + spec.q + spec.Q, m))
    K = spec.max_ar_lag
    w_ext = arima._backcast(w, K)
    for factor, order, step, first in ((arima._lag_array((), shape.Phi, S), spec.p, 1, 0),
                                       (arima._lag_array(shape.phi, (), S), spec.P, S, spec.p)):
        if order:
            lagged = np.convolve(factor, w_ext)
            for i, row in enumerate(J[first : first + order], start=1):
                row[:] = arima._ma_inverse(theta, Theta, S, -lagged[K - i * step : K - i * step + m])
    one = np.ones(1)
    for factors, order, step, first in (((theta, one), spec.q, 1, spec.p + spec.P),
                                        ((one, Theta), spec.Q, S, spec.p + spec.P + spec.q)):
        if order:
            g = arima._ma_inverse(*factors, S, eps)
            for i, row in enumerate(J[first : first + order], start=1):
                row[: i * step] = 0.0
                row[i * step :] = g[: m - i * step]
    if r:
        C = arima._regress(Z, J)
        if stacked:
            J -= C @ Z
        else:
            for row, c in zip(J, C):
                row -= c @ Z
    return eps, J.T @ _unpack_jacobian(spec, vec)


def record_minpack(spec, w, U, options, monkeypatch):
    """Fit the shape, recording what ``_lmder`` receives: ``(stage, search point, array)`` per callback call, stage
    0 the innovations and 1 the Jacobian."""
    calls = []
    real = estimation._lmder

    def recording(fun, jac, x0, args, full_output, col_deriv, *rest):
        assert col_deriv == 1  # a row per search coordinate: MINPACK's column layout

        def record(stage, callback):
            def wrapped(vec):
                out = callback(vec)
                calls.append((stage, vec.copy(), out.copy()))
                return out
            return wrapped

        return real(record(0, fun), record(1, jac), x0, args, full_output, col_deriv, *rest)

    monkeypatch.setattr(estimation, "_lmder", recording)
    _fit_shape(spec, w, U, _starting_vector(spec, w, None), options)
    monkeypatch.setattr(estimation, "_lmder", real)
    return calls


def oracle_mismatches(spec, w, U, calls):
    """Indices of the recorded calls whose array differs in any bit from :func:`reference_search_stages`', the
    Jacobian compared with the oracle's transposed."""
    mismatches = []
    for i, (stage, vec, got) in enumerate(calls):
        want = reference_search_stages(spec, vec, w, U)[stage]
        if not np.array_equal(got, want.T if stage else want):
            mismatches.append(i)
    return mismatches


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_minpack_receives_the_stages_of_the_row_wise_projection(name, monkeypatch):
    # bit for bit at every point MINPACK evaluates, the Jacobian in its
    # column layout: r = 0, 1 and 2 regression coefficients, the ARMAX and
    # SARIMA cases, and a search stopped at its cap
    spec, with_exog, options = SEARCHES[name]
    y = _series(1000, seed=6)
    w, U = _working_series(spec, y, _exog(y) if with_exog else None)
    calls = record_minpack(spec, w, U, options, monkeypatch)
    assert {stage for stage, _, _ in calls} == {0, 1}
    assert oracle_mismatches(spec, w, U, calls) == []


@pytest.mark.parametrize("name", sorted(SEARCHES))
def test_the_oracle_catches_a_stacked_projection(name, monkeypatch):
    # the check of the check: with the projection written as one
    # ``J -= C @ Z``, the oracle flags exactly the Jacobians where that
    # rounds differently from the row loop. With one regressor row each
    # element is a single product either way, so it never does; with two
    # (the ARMAX case) the matrix product rounds differently, and the oracle
    # must see it
    spec, with_exog, options = SEARCHES[name]
    y = _series(1000, seed=6)
    w, U = _working_series(spec, y, _exog(y) if with_exog else None)
    real = arima._concentrated_jacobian

    def stacked(spec, params, w, eps, Z):
        J = real(spec, params, w, eps, Z[:0]).T  # nothing projected yet
        if Z.shape[0]:
            J -= arima._regress(Z, J) @ Z
        return J.T

    monkeypatch.setattr(estimation, "_concentrated_jacobian", stacked)
    calls = record_minpack(spec, w, U, options, monkeypatch)
    rounds_differently = [
        i for i, (stage, vec, _) in enumerate(calls)
        if stage and not np.array_equal(*(reference_search_stages(spec, vec, w, U, stacked)[1]
                                          for stacked in (False, True)))
    ]
    assert oracle_mismatches(spec, w, U, calls) == rounds_differently
    r = int(spec.constant) + spec.exog_count
    assert bool(rounds_differently) == (r >= 2)


def test_a_fit_filters_each_evaluated_point_once(monkeypatch):
    # from a start whose MA side is non-zero, so every pass filters: an
    # innovation pass filters the AR side and the r regressor rows, a
    # Jacobian pass the p + P AR rows and the innovations once per MA
    # factor, and the closing residuals one row. ARMAX(1, 2): r = 2 (the
    # constant and the regressor), one AR row; the (5, 5) grid cell: r = 1,
    # five AR rows, k = 10 search coordinates
    y = _series(1000, seed=6)
    calls = []
    real = lagpoly.lfilter

    def counting(b, a, x, zi=None):
        calls.append(a)
        return real(b, a, x, zi)

    for module in (arima, lagpoly):
        monkeypatch.setattr(module, "lfilter", counting)
    for spec, exog, start, r in (
        (ModelSpec(p=1, q=2, exog_count=1), _exog(y), ParameterVector(phi=(0.5,), theta=(0.2, 0.1)), 2),
        (ModelSpec(p=5, q=5), None,
         ParameterVector(phi=(0.3, 0.1, 0.05, 0.02, 0.01), theta=(0.3, -0.1, 0.05, -0.02, 0.01)), 1),
    ):
        calls.clear()
        fitted = fit(spec, y, exog, FitOptions(restarts=1), start=start)
        d = fitted.diagnostics
        assert d.converged
        assert len(calls) == (1 + r) * d.evaluations + (spec.p + spec.P + 1) * d.iterations + 1


def reference_variance_recursion(alpha0, alpha, beta, eps2, v0):
    p, q = alpha.shape[0], beta.shape[0]
    eps2_ext = np.concatenate([np.full(p, v0), eps2])
    x = alpha0 + lfilter(np.concatenate([[0.0], alpha]), [1.0], eps2_ext)[p:]
    if q == 0:
        return x
    a = np.concatenate([[1.0], -beta])
    sig2, _ = lfilter([1.0], a, x, zi=lfiltic([1.0], a, np.full(q, v0)))
    return sig2


@pytest.mark.parametrize("alpha, beta", [((0.1,), (0.8,)), ((0.1, 0.5), ()), ((0.05, 0.1), (0.3, 0.4))])
def test_garch_recursion_equals_its_lfilter_form(alpha, beta):
    eps2 = np.random.default_rng(2).standard_t(5, 3000) ** 2
    alpha, beta = np.asarray(alpha), np.asarray(beta)
    for v0 in (0.0, 1.0, float(eps2.mean())):
        np.testing.assert_array_equal(
            _variance_recursion(0.05, alpha, beta, eps2, v0),
            reference_variance_recursion(0.05, alpha, beta, eps2, v0),
        )


def test_origin_variances_equal_their_lfilter_form():
    spec, params = CASES["sarima"]
    paths = forecast_origins(spec, params, _series(), None, [300, 450, 800], 30)
    s2 = np.random.default_rng(5).uniform(0.5, 2.0, paths.mean.shape)
    for given in (s2, 1.7):
        expected = lfilter(paths.psi**2, [1.0], np.broadcast_to(given, paths.mean.shape), axis=1)
        np.testing.assert_array_equal(paths.variance(given), expected)


@pytest.mark.parametrize("S, Q, m", [(24, 1, 24 * 40), (24, 2, 24 * 40 + 7), (5, 1, 333), (4, 3, 101), (24, 1, 10)])
def test_seasonal_factor_by_phase_equals_the_product_filter(S, Q, m):
    # theta(B) then THETA(B^S) one phase at a time, against the dense
    # (q + QS)-tap product; m need not be whole seasons
    rng = np.random.default_rng(S + Q + m)
    theta = np.array([1.0, -0.4, 0.2])
    Theta = np.concatenate([[1.0], -rng.uniform(-0.5, 0.5, Q) / Q])
    seasonal = np.zeros(Q * S + 1)
    seasonal[::S] = Theta
    x = rng.normal(size=m)
    for first, second, dense in ((theta, Theta, np.convolve(theta, seasonal)), (np.ones(1), Theta, seasonal)):
        got = arima._ma_inverse(first, second, S, x)
        np.testing.assert_allclose(got, lfilter([1.0], dense, x), rtol=1e-12, atol=1e-12 * np.abs(x).max())


def criterion_4_residuals():
    """Criterion 4's GARCH(1, 1) series: alpha0 0.1, alpha 0.1, beta 0.8, by the textbook recursion."""
    z = np.random.default_rng(61).normal(size=10_500)
    sig2 = 0.1 / (1.0 - 0.1 - 0.8)
    eps = np.empty(10_500)
    eps[0] = math.sqrt(sig2) * z[0]
    for t in range(1, 10_500):
        sig2 = 0.1 + 0.1 * eps[t - 1] ** 2 + 0.8 * sig2
        eps[t] = math.sqrt(sig2) * z[t]
    return eps[500:]


@functools.cache
def fit_once_residuals(seed, pipeline="armax_delta"):
    """The ARMAX(1, 2) residuals that the fit-once backtest's GARCH layer is
    fitted to: criterion 8's two-year market at ``seed``, the benchmark's
    ``armax_delta`` config; with ``pipeline`` ``"arma_delta"``, the
    benchmark's ARMA(1, 2) residuals of the same market."""
    from lmpcast import config as cfg
    from lmpcast.backtest import fit_pipeline
    from lmpcast.dataio import synth_market

    config = cfg.merge_config({
        "pipeline": pipeline, "order": {"p": 1, "q": 2}, "clip": {"ub": 22.0, "lb": -4.0},
        "log_offset": 1000.0, "seed": seed, "fit": {"restarts": 1}, "synth": {"length": 17_520},
        "test_start": "2002-12-02T00:00Z",
    })
    train, _ = cfg.split_dataset(config, synth_market(cfg.build_synth_config(config)))
    return fit_pipeline(cfg.build_pipeline(config), train, cfg.build_fit_options(config)).residuals.values


# (residuals, p, q): the fit-once residuals at seeds 1, 2 and 4, criterion
# 4's series under GARCH(1, 1) and (2, 1), and the homoskedastic series of
# ``test_homoskedastic_scale`` under ARCH(1)
GARCH_CASES = {
    "fit_once_1": (lambda: fit_once_residuals(1), 1, 1),
    "fit_once_2": (lambda: fit_once_residuals(2), 1, 1),
    "fit_once_4": (lambda: fit_once_residuals(4), 1, 1),
    "criterion_4_11": (criterion_4_residuals, 1, 1),
    "criterion_4_21": (criterion_4_residuals, 2, 1),
    "homoskedastic_10": (lambda: np.random.default_rng(82).normal(0.0, 2.0, size=8000), 1, 0),
}


def garch_fit(name, options=FitOptions(restarts=1)):
    residuals, p, q = GARCH_CASES[name]
    eps = residuals()
    series = HourlySeries(arima.DEFAULT_ORIGIN, eps, "dimensionless")
    params, diagnostics = fit_garch(series, GarchSpec(p, q), options)
    return eps, params, diagnostics, garch_log_likelihood(params, series)


@pytest.mark.parametrize("alpha, beta", [((0.15,), ()), ((0.15,), (0.5,)), ((0.1, 0.05), (0.5,))])
def test_garch_score_and_information_equal_central_differences(alpha, beta):
    # away from the optimum, so the score is far from zero; the presample
    # squares and variances are fixed at v0, as garch_log_likelihood fixes them
    eps = criterion_4_residuals()[:3000]
    residuals = HourlySeries(arima.DEFAULT_ORIGIN, eps, "dimensionless")
    eps2, v0 = eps**2, float(np.var(eps))
    p = len(alpha)
    theta = np.array([0.3, *alpha, *beta])
    sig2 = _variance_recursion(theta[0], theta[1 : 1 + p], theta[1 + p :], eps2, v0)
    score, information = _qml_score(theta[1 + p :], eps2, sig2, v0, p)
    h = 1e-6
    grad, paths = [], []
    for step in h * np.eye(theta.shape[0]):
        up, down = (GarchParams(c[0], tuple(c[1 : 1 + p]), tuple(c[1 + p :])) for c in (theta + step, theta - step))
        grad.append((garch_log_likelihood(up, residuals) - garch_log_likelihood(down, residuals)) / (2.0 * h))
        paths.append((_variance_recursion(up.alpha0, np.array(up.alpha), np.array(up.beta), eps2, v0)
                      - _variance_recursion(down.alpha0, np.array(down.alpha), np.array(down.beta), eps2, v0))
                     / (2.0 * h))
    np.testing.assert_allclose(score, grad, rtol=1e-6, atol=1e-6 * np.abs(grad).max())
    D = np.array(paths) / sig2
    np.testing.assert_allclose(information, 0.5 * D @ D.T, rtol=1e-6)


@pytest.mark.parametrize("name", sorted(GARCH_CASES))
def test_garch_fit_ends_at_a_kuhn_tucker_point(name):
    # the coefficients away from zero are stationary: a full scoring step
    # from the end point would gain under 1e-3; one at zero may only want
    # to go below it; persistence stays clear of one
    eps, params, diagnostics, _ = garch_fit(name)
    assert diagnostics.converged
    assert "garch_not_converged" not in diagnostics.boundary_flags
    assert params.persistence < 0.999
    theta = np.array([params.alpha0, *params.alpha, *params.beta])
    eps2, v0 = eps**2, float(np.var(eps))
    sig2 = _variance_recursion(theta[0], np.array(params.alpha), np.array(params.beta), eps2, v0)
    score, information = _qml_score(np.array(params.beta), eps2, sig2, v0, len(params.alpha))
    free = theta > 1e-6
    gain = 0.5 * score[free] @ np.linalg.solve(information[np.ix_(free, free)], score[free])
    assert gain < 1e-3
    assert (score[~free] <= 1e-3 * np.sqrt(np.diag(information))[~free]).all()


@pytest.mark.parametrize("name", sorted(GARCH_CASES))
def test_garch_fit_reaches_the_simplex_from_the_same_start_in_fewer_evaluations(name):
    # the simplex the fit replaced, on the same objective from the same
    # start, in the softmax coordinates it searched, within the stop
    # tolerance; it stopped up to 270 below on the fit-once residuals
    options = FitOptions(restarts=1)
    eps, params, diagnostics, qml = garch_fit(name, options)
    _, p, q = GARCH_CASES[name]
    eps2, v0 = eps**2, float(np.var(eps))

    def objective(vec):
        return -_quasi_log_likelihood(eps2, _variance_recursion(*reference_garch_unpack(vec, p, q), eps2, v0))

    simplex = reference_simplex(objective, reference_garch_start(v0, p, q), options)
    assert simplex.success
    assert qml >= -simplex.fun - options.tolerance * (1.0 + abs(qml))
    assert diagnostics.iterations + diagnostics.evaluations < simplex.nfev


def test_garch_fit_reaches_the_recorded_optima_of_the_fit_once_residuals():
    # the quasi-likelihoods the scoring fit reached when it replaced the
    # simplex, which stopped at 83 526.11, 82 534.96 and 83 887.06; seed 4
    # has a second, higher maximum at beta = 0 that neither start reaches
    for seed, floor in ((1, 83_796.44), (2, 82_662.89), (4, 83_988.05)):
        assert garch_fit(f"fit_once_{seed}")[3] >= floor


@pytest.mark.parametrize("residuals, coefficient, floor", [
    (lambda: fit_once_residuals(1, "arma_delta"), "beta", 83_125.32),
    (lambda: fit_once_residuals(4, "arma_delta"), "beta", 83_193.89),
    (lambda: np.random.default_rng(59).normal(size=10_000), "alpha", -14_166.3506),
], ids=["arma_delta_1", "arma_delta_4", "iid_59"])
def test_a_garch_coefficient_the_score_drives_below_zero_ends_at_zero_and_flagged(residuals, coefficient, floor):
    # the floors are where the search in softmax coordinates stopped, at
    # beta 8.1e-6 and 4.8e-6 and alpha 8.35e-6: above the flag's 1e-6, so
    # unflagged, with the score pointing below zero
    series = HourlySeries(arima.DEFAULT_ORIGIN, residuals(), "dimensionless")
    params, diagnostics = fit_garch(series, GarchSpec(1, 1), FitOptions(restarts=1))
    assert diagnostics.converged
    assert getattr(params, coefficient) == (0.0,)
    assert f"garch_{coefficient}_at_zero" in diagnostics.boundary_flags
    assert garch_log_likelihood(params, series) >= floor


def test_a_garch_fit_stopped_at_its_cap_is_flagged():
    # on these iid residuals every accepted step of the first 100
    # evaluations raises the QML by more than a tolerance of 1e-300 stops
    # on, so the cap ends the search
    eps = HourlySeries(arima.DEFAULT_ORIGIN, np.random.default_rng(2).normal(size=10_000), "dimensionless")
    params, diagnostics = fit_garch(eps, GarchSpec(1, 1), FitOptions(max_iterations=100, tolerance=1e-300, restarts=1))
    assert (diagnostics.converged, diagnostics.evaluations) == (False, 100)
    assert diagnostics.boundary_flags[-1] == "garch_not_converged"
