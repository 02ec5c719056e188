"""The dense-array likelihood kernel against the lag-polynomial algebra.

The oracle here is the kernel as first written: AR and MA polynomials
expanded through :class:`LagPolynomial` products, both filter sides run
through ``lfilter``, and the parameter map run on numpy arrays for every
factor, empty ones included. The dense kernel does the same arithmetic, so
the innovations, the objective and every optimizer step must match it
exactly; only seasonal and non-seasonal lags that overlap may sum in a
different order.
"""

import math

import numpy as np
import pytest
from scipy.signal import lfilter, lfiltic

from lmpcast import arima, estimation
from lmpcast.arima import (
    ExogenousMatrix,
    ModelSpec,
    ParameterVector,
    _innovations,
    _working_series,
    ar_polynomial,
    forecast_origins,
    ma_polynomial,
    profiled_log_likelihood,
    simulate,
)
from lmpcast.estimation import FitOptions, _PACF_LIMIT, _unpack, fit
from lmpcast.garch import _variance_recursion
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


def reference_objective(spec, vec, w, U):
    return reference_profiled(spec, reference_unpack(spec, vec), w, U)[0]


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
    np.testing.assert_array_equal(got, reference_innovations(spec, params, w, U))
    assert profiled_log_likelihood(spec, params, w, U) == reference_profiled(spec, params, w, U)


@pytest.mark.parametrize("backcast", [0.0, -3.25, 17.0])
def test_custom_backcast_equals_the_lag_polynomial_kernel(backcast):
    spec, params = CASES["sarima"]
    w, U = _working_series(spec, _series(), None)
    np.testing.assert_array_equal(
        _innovations(spec, params, w, U, backcast=backcast),
        reference_innovations(spec, params, w, U, backcast=backcast),
    )


def test_overlapping_seasonal_lags_agree_to_rounding():
    # p >= S: lags 4..6 collect two products each, which the dense
    # convolution may add in another order than the sparse product
    spec = ModelSpec(p=6, q=5, P=1, Q=1, diff=DifferenceSpec(S=4))
    params = ParameterVector(
        phi=(0.2, -0.1, 0.05, 0.1, 0.05, -0.02), Phi=(0.3,),
        theta=(0.2, 0.1, -0.1, 0.05, 0.02), Theta=(0.4,), mu=0.1,
    )
    w, U = _working_series(spec, _series(), None)
    np.testing.assert_allclose(
        _innovations(spec, params, w, U), reference_innovations(spec, params, w, U), rtol=1e-14, atol=0
    )
    np.testing.assert_allclose(
        arima._lag_array(params.phi, params.Phi, 4), ar_polynomial(spec, params).dense(), rtol=1e-14, atol=0
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_objective_equals_the_reference_at_random_points(case):
    spec, _ = CASES[case]
    y = _series()
    w, U = _working_series(spec, y, _exog(y) if spec.exog_count else None)
    rng = np.random.default_rng(7)
    n = spec.p + spec.P + spec.q + spec.Q + int(spec.constant) + spec.exog_count
    for vec in [np.zeros(n), *rng.normal(0.0, 1.5, (20, n))]:
        params = _unpack(spec, vec)
        assert params == reference_unpack(spec, vec)
        loglik, _ = profiled_log_likelihood(spec, params, w, U)
        assert loglik == reference_objective(spec, vec, w, U)


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


@pytest.mark.parametrize("name", sorted(FITS))
def test_fit_takes_the_same_steps_as_the_reference_objective(name, monkeypatch):
    spec, with_exog = FITS[name]
    y = _series(600, seed=4)
    exog = _exog(y) if with_exog else None
    options = FitOptions(restarts=2, seed=3)
    dense = fit(spec, y, exog, options)
    monkeypatch.setattr(arima, "_innovations", reference_innovations)
    monkeypatch.setattr(estimation, "_unpack", reference_unpack)
    reference = fit(spec, y, exog, options)
    assert dense.params == reference.params
    assert dense.loglik == reference.loglik
    # iterations and evaluations included
    assert dense.diagnostics == reference.diagnostics
    assert dense.diagnostics.evaluations > 0
    np.testing.assert_array_equal(dense.residuals.values, reference.residuals.values)


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
