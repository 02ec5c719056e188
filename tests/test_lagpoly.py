"""Backshift polynomial algebra: multiply, difference, integrate, past terms, the filter entry point, stability."""

import re
from datetime import datetime, timezone

import numpy as np
import pytest
import scipy
import scipy.signal
from scipy.linalg import hankel
from scipy.signal import lfiltic

from lmpcast import lagpoly
from lmpcast.errors import InsufficientPresample, SeriesTooShort
from lmpcast.lagpoly import (
    DifferenceSpec,
    LagPolynomial,
    apply,
    difference_polynomial,
    integrate,
    is_stable,
    lfilter,
    multiply,
    past_terms,
)
from lmpcast.series import HOUR, UNITS_NONE, HourlySeries

START = datetime(2015, 1, 5, tzinfo=timezone.utc)


def series(values, start=START):
    return HourlySeries(start, np.asarray(values, dtype=np.float64), UNITS_NONE)


def random_sparse_poly(rng, max_lag=6):
    lags = rng.choice(np.arange(1, max_lag + 1), size=3, replace=False)
    coeffs = {0: 1.0}
    for lag in lags:
        coeffs[int(lag)] = float(rng.uniform(-0.4, 0.4))
    return LagPolynomial(coeffs)


class TestConstruction:
    def test_lag0_must_be_one(self):
        with pytest.raises(ValueError):
            LagPolynomial({0: 0.5, 1: -0.2})
        with pytest.raises(ValueError):
            LagPolynomial({1: -0.2})

    def test_zero_coefficients_dropped(self):
        poly = LagPolynomial({0: 1.0, 1: 0.0, 3: -0.5})
        assert poly.degree == 3
        assert poly.coefficient(1) == 0.0
        assert poly.coefficient(3) == -0.5

    def test_from_factor_coefficients(self):
        # factor convention 1 - a1 B - a2 B^2: stored coefficients negate
        poly = LagPolynomial.from_factor_coefficients([0.5, -0.2])
        assert poly.coefficient(1) == -0.5
        assert poly.coefficient(2) == 0.2

    def test_seasonal_spacing(self):
        poly = LagPolynomial.from_factor_coefficients([0.3], spacing=24)
        assert poly.degree == 24
        assert poly.coefficient(24) == -0.3

    def test_dense(self):
        poly = LagPolynomial({0: 1.0, 2: -0.5})
        np.testing.assert_array_equal(poly.dense(), [1.0, 0.0, -0.5])


class TestMultiply:
    def test_seasonal_times_nonseasonal(self):
        a = LagPolynomial.from_factor_coefficients([0.5])
        b = LagPolynomial.from_factor_coefficients([1.0], spacing=24)
        prod = multiply(a, b)
        assert dict(prod.coefficients) == {0: 1.0, 1: -0.5, 24: -1.0, 25: 0.5}

    def test_identity(self):
        a = LagPolynomial({0: 1.0, 1: -0.7, 5: 0.1})
        prod = multiply(a, LagPolynomial.identity())
        assert dict(prod.coefficients) == dict(a.coefficients)

    def test_commutative_associative(self):
        rng = np.random.default_rng(10)
        a, b, c = (random_sparse_poly(rng) for _ in range(3))
        ab = multiply(a, b)
        ba = multiply(b, a)
        for lag in set(ab.coefficients) | set(ba.coefficients):
            assert ab.coefficient(lag) == pytest.approx(ba.coefficient(lag), abs=1e-14)
        left = multiply(multiply(a, b), c)
        right = multiply(a, multiply(b, c))
        for lag in set(left.coefficients) | set(right.coefficients):
            assert left.coefficient(lag) == pytest.approx(right.coefficient(lag), abs=1e-14)

    def test_composition_matches_sequential_application(self):
        rng = np.random.default_rng(11)
        x = series(rng.normal(size=200))
        for trial in range(20):
            a = random_sparse_poly(rng)
            b = random_sparse_poly(rng)
            combined = apply(multiply(a, b), x)
            sequential = apply(a, apply(b, x))
            assert combined.start == sequential.start
            np.testing.assert_allclose(combined.values, sequential.values, atol=1e-12)


class TestApply:
    def test_first_difference(self):
        out = apply(difference_polynomial(DifferenceSpec(d=1)), series([1.0, 2.0, 4.0]))
        np.testing.assert_array_equal(out.values, [1.0, 2.0])
        assert out.start == START + HOUR

    def test_identity_poly(self):
        x = series([3.0, 1.0, 4.0])
        out = apply(LagPolynomial.identity(), x)
        np.testing.assert_array_equal(out.values, x.values)
        assert out.start == x.start

    def test_seasonal_difference_annihilates_period(self):
        pattern = np.tile(np.arange(24.0), 4)
        out = apply(difference_polynomial(DifferenceSpec(D=1, S=24)), series(pattern))
        np.testing.assert_array_equal(out.values, np.zeros(72))

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            apply(difference_polynomial(DifferenceSpec(D=1, S=24)), series(np.arange(24.0)))


class TestDifferencePolynomial:
    def test_first(self):
        assert dict(difference_polynomial(DifferenceSpec(d=1)).coefficients) == {0: 1.0, 1: -1.0}

    def test_seasonal(self):
        poly = difference_polynomial(DifferenceSpec(D=1, S=24))
        assert dict(poly.coefficients) == {0: 1.0, 24: -1.0}

    def test_combined(self):
        poly = difference_polynomial(DifferenceSpec(d=1, D=1, S=24))
        assert dict(poly.coefficients) == {0: 1.0, 1: -1.0, 24: -1.0, 25: 1.0}

    def test_order(self):
        assert DifferenceSpec(d=2, D=1, S=24).order == 26
        assert DifferenceSpec().order == 0

    def test_seasonal_needs_period(self):
        with pytest.raises(ValueError):
            DifferenceSpec(D=1, S=1)


class TestIntegrate:
    def test_cumulative_sum(self):
        spec = DifferenceSpec(d=1)
        out = integrate(series([1.0, 2.0], start=START + HOUR), series([10.0]), spec)
        np.testing.assert_array_equal(out.values, [11.0, 13.0])
        assert out.start == START + HOUR

    def test_round_trip_random(self):
        rng = np.random.default_rng(12)
        for spec in (DifferenceSpec(d=1), DifferenceSpec(D=1, S=24), DifferenceSpec(d=1, D=1, S=24)):
            x = series(rng.normal(size=120))
            diffed = apply(difference_polynomial(spec), x)
            presample = x.window(0, spec.order)
            back = integrate(diffed, presample, spec)
            np.testing.assert_allclose(back.values, x.values[spec.order :], atol=1e-12)

    def test_seasonal_zeros_extend_presample(self):
        # with D=1 the recursion is y_t = y_{t-24} + diff_t, so integrating
        # zeros must repeat the presample day verbatim
        spec = DifferenceSpec(D=1, S=24)
        presample = series(np.arange(24.0))
        zeros = series(np.zeros(72), start=START + 24 * HOUR)
        out = integrate(zeros, presample, spec)
        np.testing.assert_array_equal(out.values, np.tile(np.arange(24.0), 3))

    def test_presample_too_short(self):
        spec = DifferenceSpec(d=1, D=1, S=24)
        with pytest.raises(InsufficientPresample):
            integrate(series(np.zeros(10), start=START + 24 * HOUR), series(np.zeros(24)), spec)

    def test_presample_must_abut(self):
        spec = DifferenceSpec(d=1)
        with pytest.raises(InsufficientPresample):
            integrate(series([1.0], start=START + 5 * HOUR), series([10.0]), spec)


def seasonal_array():
    """``(1 - 0.5 B)(1 - 0.3 B^24)``: zero coefficients between lags 1 and 24."""
    a = np.zeros(26)
    a[[0, 1, 24, 25]] = [1.0, -0.5, -0.3, 0.15]
    return a


class TestPastTerms:
    """``past_terms`` against ``lfiltic``'s state, which holds the same sums."""

    @staticmethod
    def reference(coeffs, past):
        # lfiltic(b, [1], [], x) holds sum_{i>j} b_i x_{j-i}, newest x first
        return lfiltic(coeffs, [1.0], [], x=past[::-1])

    @pytest.mark.parametrize(
        "coeffs",
        [np.array([1.0, -0.7]), np.array([0.0, 0.2, 0.1, 0.05]), seasonal_array()],
        ids=["first", "garch", "seasonal"],
    )
    def test_rows_match_lfiltic(self, coeffs):
        rng = np.random.default_rng(14)
        k = coeffs.shape[0] - 1
        past = rng.normal(size=(5, k))
        got = past_terms(coeffs, past)
        assert got.shape == (5, k)
        for row, values in zip(got, past):
            np.testing.assert_allclose(row, self.reference(coeffs, values), rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(past_terms(coeffs, past[3]), self.reference(coeffs, past[3]),
                                   rtol=1e-14, atol=1e-15)

    @pytest.mark.parametrize("n", [None, 3, 30])
    def test_equals_the_hankel_product(self, n):
        coeffs = seasonal_array()
        past = np.random.default_rng(17).normal(size=(4, 25))
        k = coeffs.shape[0] - 1
        expected = past[..., ::-1] @ hankel(coeffs[1:], np.zeros(k if n is None else n))
        np.testing.assert_array_equal(past_terms(coeffs, past, n), expected)

    def test_degree_zero_has_no_terms(self):
        assert past_terms(np.array([1.0]), np.empty(0)).shape == (0,)
        assert self.reference(np.array([1.0]), np.empty(0)).shape == (0,)
        np.testing.assert_array_equal(past_terms(np.array([1.0]), np.empty((3, 0)), 4), np.zeros((3, 4)))

    def test_outputs_past_the_degree_are_zero(self):
        coeffs = seasonal_array()
        past = np.random.default_rng(15).normal(size=(2, 25))
        long = past_terms(coeffs, past, 30)
        np.testing.assert_array_equal(long[:, 25:], 0.0)
        # the product's summation order may change with its shape
        np.testing.assert_allclose(long[:, :25], past_terms(coeffs, past), rtol=1e-14, atol=1e-15)
        np.testing.assert_allclose(past_terms(coeffs, past, 3), long[:, :3], rtol=1e-14, atol=1e-15)

    def test_continues_a_filter(self):
        # a filter run over past + future equals one run over future with the
        # past's terms added to its first inputs
        from scipy.signal import lfilter

        a = seasonal_array()
        x = np.random.default_rng(16).normal(size=100)
        whole = lfilter([1.0], a, x)
        k = a.shape[0] - 1
        forced = x[60:].copy()
        forced[:k] -= past_terms(a, whole[60 - k : 60])
        np.testing.assert_allclose(lfilter([1.0], a, forced), whole[60:], rtol=1e-12, atol=1e-12)


class TestFilter:
    """``lagpoly.lfilter`` equals ``scipy.signal.lfilter`` bit for bit on every call form ``src/`` uses."""

    # (b, a, shape of x): the MA inverse and GARCH variance (one-term
    # numerator), ``simulate``'s ARMA, the MA inverse over stacked rows,
    # ``OriginForecasts.variance``'s ``psi**2`` (one-term denominator) and
    # a model with no AR, MA or differencing (one term each)
    FORMS = {
        "inverse-1d": ([1.0], seasonal_array(), (300,)),
        "arma-1d": ([1.0, 0.4, -0.2], [1.0, -0.5, 0.1], (300,)),
        "inverse-2d": ([1.0], seasonal_array(), (4, 300)),
        "unit-denominator-1d": ([0.8, 0.3, 0.1, 0.05], [1.0], (30,)),
        "unit-denominator-2d": ([0.8, 0.3, 0.1, 0.05], [1.0], (4, 30)),
        "one-term-each": ([1.0], [1.0], (4, 30)),
    }

    @pytest.mark.parametrize("form", FORMS)
    def test_equals_scipy(self, form):
        b, a, shape = self.FORMS[form]
        x = np.random.default_rng(18).normal(size=shape)
        np.testing.assert_array_equal(lfilter(np.array(b), np.array(a), x), scipy.signal.lfilter(b, a, x))

    @pytest.mark.parametrize("a", [[1.0, -0.4], [1.0, 0.3, -0.2], [2.0]], ids=["order-1", "order-2", "one-term"])
    def test_down_the_first_axis_equals_scipy(self, a):
        # the MA search kernel's seasonal factor, one filter per column (phase)
        x = np.random.default_rng(20).normal(size=(40, 24))
        np.testing.assert_array_equal(lfilter([1.0], np.array(a), x, axis=0),
                                      scipy.signal.lfilter([1.0], a, x, axis=0))

    def test_broadcast_variances_equal_scipy(self):
        # the per-origin plan arrives as a read-only broadcast view
        psi = np.array([1.0, 0.7, 0.35, 0.1])
        for given in (np.asarray(0.3), np.linspace(0.1, 0.5, 6)[:, None]):
            s2 = np.broadcast_to(given, (6, 12))
            np.testing.assert_array_equal(lfilter(psi**2, [1.0], s2), scipy.signal.lfilter(psi**2, [1.0], s2))

    @pytest.mark.parametrize("shape", [(300,), (4, 300)], ids=["1d", "2d"])
    def test_with_initial_state_equals_scipy(self, shape):
        # ``integrate_array``'s form: a continued recursion
        a, b = seasonal_array(), np.array([1.0])
        rng = np.random.default_rng(19)
        x = rng.normal(size=shape)
        zi = rng.normal(size=shape[:-1] + (a.shape[0] - 1,))
        got = lfilter(b, a, x, zi=zi)
        expected = scipy.signal.lfilter(b, a, x, zi=zi)
        assert len(got) == 2
        for mine, theirs in zip(got, expected):
            np.testing.assert_array_equal(mine, theirs)

    def test_missing_extension_names_the_scipy_version(self, tmp_path):
        with pytest.raises(ImportError, match=re.escape(f"_sigtools._linear_filter, which SciPy {scipy.__version__} ")):
            lagpoly._load_scipy_routines(str(tmp_path))


class TestStability:
    def test_single_root(self):
        result = is_stable(LagPolynomial.from_factor_coefficients([0.5]))
        assert result.stable
        assert result.margin == pytest.approx(1.0, abs=1e-9)

    def test_unit_root(self):
        result = is_stable(difference_polynomial(DifferenceSpec(d=1)))
        assert not result.stable
        assert result.margin == pytest.approx(0.0, abs=1e-9)

    def test_factored_quadratic(self):
        # (1 - 0.5B)(1 - 0.7B) has roots 2 and 1/0.7
        result = is_stable(LagPolynomial.from_factor_coefficients([1.2, -0.35]))
        assert result.stable
        assert result.margin == pytest.approx(1.0 / 0.7 - 1.0, abs=1e-9)

    def test_explosive(self):
        assert not is_stable(LagPolynomial.from_factor_coefficients([1.2])).stable

    def test_degree_zero(self):
        assert is_stable(LagPolynomial.identity()).stable
        assert is_stable(np.array([1.0])) == (True, float("inf"))

    def test_dense_array_matches_polynomial(self):
        poly = LagPolynomial({0: 1.0, 1: -0.5, 24: -0.3, 25: 0.15})
        np.testing.assert_array_equal(poly.dense(), seasonal_array())
        assert is_stable(seasonal_array()) == is_stable(poly)
        assert is_stable(seasonal_array()).stable

    def test_a_repeated_check_answers_for_its_own_tolerance_and_coefficients(self):
        # results are reused by exact coefficients and tolerance
        poly = LagPolynomial.from_factor_coefficients([1.0 / 1.000001])
        for _ in range(2):
            assert is_stable(poly, 1e-7).stable
            assert not is_stable(poly, 1e-5).stable
            assert not is_stable(LagPolynomial.from_factor_coefficients([1.0 / 0.999999]), 1e-7).stable
        assert is_stable(poly, 1e-7).margin == pytest.approx(1e-6, rel=1e-6)

    def test_stable_ar_simulation_bounded(self):
        # impulse response of a stable AR stays bounded over 10^5 steps
        from scipy.signal import lfilter

        poly = LagPolynomial.from_factor_coefficients([1.2, -0.35])
        assert is_stable(poly).stable
        rng = np.random.default_rng(13)
        path = lfilter([1.0], poly.dense(), rng.normal(size=100000))
        assert np.all(np.isfinite(path))
        assert np.max(np.abs(path)) < 50.0
