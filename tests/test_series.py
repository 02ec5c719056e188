"""Calendar series container and price transforms."""

import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from lmpcast.errors import (
    AlignmentError,
    DegenerateSeries,
    NonPositiveArgument,
)
from lmpcast.series import (
    HOUR,
    UNITS_LOG,
    UNITS_PRICE,
    ClipBounds,
    HourlySeries,
    LogOffset,
    clip_prices,
    concat,
    delta_lmp,
    format_hour,
    inverse_log_transform,
    log_transform,
    parse_hour,
    reconstruct_rtlmp,
    sample_acf,
    sample_pacf,
    weekend_indicator,
)
from lmpcast.series import _check_whole_hour

MONDAY = datetime(2015, 1, 5, tzinfo=timezone.utc)  # a Monday


def series(values, start=MONDAY, units=UNITS_PRICE):
    return HourlySeries(start, np.asarray(values, dtype=np.float64), units)


class TestHourlySeries:
    def test_basic_calendar(self):
        s = series([1.0, 2.0, 3.0])
        assert len(s) == 3
        assert s.end == MONDAY + 3 * HOUR
        assert s.timestamp_at(2) == MONDAY + 2 * HOUR
        assert s.index_of(MONDAY + HOUR) == 1

    def test_rejects_fractional_hour(self):
        with pytest.raises(ValueError):
            HourlySeries(MONDAY + timedelta(minutes=30), np.array([1.0]), UNITS_PRICE)

    def test_rejects_naive_timestamp(self):
        with pytest.raises(ValueError):
            HourlySeries(datetime(2015, 1, 5), np.array([1.0]), UNITS_PRICE)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            series([1.0, np.nan])

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            series([])

    def test_values_read_only(self):
        s = series([1.0, 2.0])
        with pytest.raises(ValueError):
            s.values[0] = 5.0

    def test_window(self):
        s = series([1.0, 2.0, 3.0, 4.0])
        w = s.window(1, 2)
        assert w.start == MONDAY + HOUR
        np.testing.assert_array_equal(w.values, [2.0, 3.0])
        with pytest.raises(AlignmentError):
            s.window(2, 3)

    def test_window_shares_read_only_values(self):
        s = series([1.0, 2.0, 3.0, 4.0])
        w = s.window(1, 2)
        assert np.shares_memory(w.values, s.values)
        with pytest.raises(ValueError):
            w.values[0] = 5.0

    def test_index_of_outside(self):
        s = series([1.0, 2.0])
        with pytest.raises(AlignmentError):
            s.index_of(s.end)  # end is one past the last hour

    def test_concat(self):
        a = series([1.0, 2.0])
        b = series([3.0], start=MONDAY + 2 * HOUR)
        joined = concat(a, b)
        np.testing.assert_array_equal(joined.values, [1.0, 2.0, 3.0])
        with pytest.raises(AlignmentError):
            concat(b, a)


def test_hour_format_round_trip():
    assert format_hour(MONDAY) == "2015-01-05T00:00Z"
    assert parse_hour("2015-01-05T00:00Z") == MONDAY
    assert parse_hour("2015-01-05T00:00:00Z") == MONDAY  # seconds variant accepted
    assert parse_hour(format_hour(MONDAY + 37 * HOUR)) == MONDAY + 37 * HOUR


def _strptime_hour(text):
    """parse_hour without its canonical fast path: the strptime loop alone."""
    for pattern in ("%Y-%m-%dT%H:%MZ", "%Y-%m-%dT%H:%M:%SZ"):
        try:
            parsed = datetime.strptime(text, pattern)
        except ValueError:
            continue
        return _check_whole_hour(parsed.replace(tzinfo=timezone.utc))
    raise ValueError(f"not an ISO-8601 UTC whole hour: {text!r}")


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError as exc:
        return f"ValueError: {exc}"


def test_canonical_fast_path_matches_strptime():
    start = datetime(1999, 12, 31, 22, tzinfo=timezone.utc)
    for k in range(0, 24 * 800, 7):
        text = format_hour(start + k * HOUR)
        parsed = parse_hour(text)
        assert parsed == _strptime_hour(text)
        assert parsed.tzinfo is timezone.utc


@pytest.mark.parametrize(
    "text",
    [
        "2015-01-05T00:00:00Z",  # seconds form
        "2015-1-5T7:00Z",  # single-digit fields
        "2015-01-05t07:00z",
        "\u0662\u0660\u0661\u0665-01-05T07:00Z",  # non-ASCII digits
        "2015-02-30T00:00Z",  # 30 February
        "2015-13-05T00:00Z",
        "2015-01-05T24:00Z",
        "0000-01-05T00:00Z",
        "2015-01-05T00:30Z",  # minute 30
        "2015-01-05T00:00:30Z",
        "2015-01-05T00:00Z trailing",
        "2015-01-05T00:00Z\n",
        "2015-01-05T00:00",
    ],
)
def test_other_strings_behave_as_strptime(text):
    assert _outcome(parse_hour, text) == _outcome(_strptime_hour, text)


def test_rejections_keep_their_messages():
    with pytest.raises(ValueError, match="^not an ISO-8601 UTC whole hour: '2015-02-30T00:00Z'$"):
        parse_hour("2015-02-30T00:00Z")
    with pytest.raises(ValueError, match="^timestamp must be a whole hour"):
        parse_hour("2015-01-05T00:30Z")
    with pytest.raises(ValueError, match="^not an ISO-8601 UTC whole hour"):
        parse_hour("2015-01-05T00:00Z trailing")


class TestClip:
    def test_boundary_clamping(self):
        out = clip_prices(series([150.0, 50.0, -120.0]), ClipBounds(ub=100.0, lb=-100.0))
        np.testing.assert_array_equal(out.values, [100.0, 50.0, -100.0])

    def test_identity_inside_bounds(self):
        out = clip_prices(series([0.0, 0.0]), ClipBounds(ub=1.0, lb=-1.0))
        np.testing.assert_array_equal(out.values, [0.0, 0.0])

    def test_extreme_differential(self):
        # clamp of a deep negative outlier
        out = clip_prices(series([-457.45]), ClipBounds(ub=100.0, lb=-100.0))
        np.testing.assert_array_equal(out.values, [-100.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        s = series(rng.normal(0.0, 200.0, size=500))
        bounds = ClipBounds(ub=100.0, lb=-100.0)
        once = clip_prices(s, bounds)
        twice = clip_prices(once, bounds)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_invalid_bounds(self):
        with pytest.raises(ValueError):
            ClipBounds(ub=-1.0, lb=1.0)


class TestLogTransform:
    def test_known_values(self):
        out = log_transform(series([-29.0, 70.0, -28.7]), LogOffset(30.0))
        assert out.units == UNITS_LOG
        np.testing.assert_allclose(
            out.values, [0.0, math.log(100.0), math.log(1.3)], atol=1e-12
        )

    def test_rejects_nonpositive_argument(self):
        with pytest.raises(NonPositiveArgument):
            log_transform(series([-30.0]), LogOffset(30.0))

    def test_round_trip(self):
        # round-trip error is relative to P + c (the log argument), so keep
        # prices bounded away from -c when asserting a plain relative bound
        rng = np.random.default_rng(1)
        s = series(rng.uniform(20.0, 80.0, size=1000))
        back = inverse_log_transform(log_transform(s, LogOffset(30.0)), LogOffset(30.0))
        np.testing.assert_allclose(back.values, s.values, rtol=1e-12)

    def test_round_trip_near_zero_prices(self):
        rng = np.random.default_rng(1)
        s = series(rng.normal(20.0, 40.0, size=1000))
        c = LogOffset(1000.0)
        back = inverse_log_transform(log_transform(s, c), c)
        scale = c.c + np.max(np.abs(s.values))
        assert np.max(np.abs(back.values - s.values)) < 1e-12 * scale

    def test_inverse_known_values(self):
        logged = HourlySeries(MONDAY, np.array([0.0, math.log(100.0)]), UNITS_LOG)
        out = inverse_log_transform(logged, LogOffset(30.0))
        np.testing.assert_allclose(out.values, [-29.0, 70.0], atol=1e-12)

    def test_inverse_requires_log_units(self):
        with pytest.raises(ValueError):
            inverse_log_transform(series([1.0]), LogOffset(30.0))

    def test_offset_positive(self):
        with pytest.raises(ValueError):
            LogOffset(0.0)


class TestDelta:
    def test_elementwise(self):
        d = delta_lmp(series([30.0, 40.0]), series([25.0, 45.0]))
        np.testing.assert_array_equal(d.values, [5.0, -5.0])

    def test_equal_series_zero(self):
        s = series([12.0, 13.0, 14.0])
        np.testing.assert_array_equal(delta_lmp(s, s).values, [0.0, 0.0, 0.0])

    def test_single_point(self):
        d = delta_lmp(series([0.0]), series([-28.7]))
        np.testing.assert_array_equal(d.values, [28.7])

    def test_misaligned(self):
        with pytest.raises(AlignmentError):
            delta_lmp(series([1.0, 2.0]), series([1.0]))
        with pytest.raises(AlignmentError):
            delta_lmp(series([1.0]), series([1.0], start=MONDAY + HOUR))

    def test_reconstruct_known(self):
        out = reconstruct_rtlmp(series([30.0]), series([5.0]))
        np.testing.assert_array_equal(out.values, [25.0])

    def test_reconstruct_zero_forecast_is_dalmp(self):
        da = series([31.0, 29.5])
        out = reconstruct_rtlmp(da, series([0.0, 0.0]))
        np.testing.assert_array_equal(out.values, da.values)

    def test_compose_bit_exact(self):
        # a - (a - b) == b holds bitwise when prices sit on a dyadic grid
        # (real feeds quote cents); continuous doubles can round twice
        rng = np.random.default_rng(2)
        grid = 2.0**20
        da = series(np.round(rng.normal(30.0, 10.0, size=2000) * grid) / grid)
        rt = series(np.round(rng.normal(30.0, 15.0, size=2000) * grid) / grid)
        back = reconstruct_rtlmp(da, delta_lmp(da, rt))
        assert np.array_equal(back.values, rt.values)


class TestWeekendIndicator:
    def test_monday_week(self):
        ind = weekend_indicator(MONDAY, 168)
        np.testing.assert_array_equal(ind.values[:120], np.ones(120))
        np.testing.assert_array_equal(ind.values[120:], np.zeros(48))
        assert ind.values.sum() == 120.0

    def test_saturday_start(self):
        sat = datetime(2015, 1, 10, tzinfo=timezone.utc)
        ind = weekend_indicator(sat, 48)
        np.testing.assert_array_equal(ind.values, np.zeros(48))

    def test_week_boundary(self):
        sun_23 = datetime(2015, 1, 11, 23, tzinfo=timezone.utc)
        ind = weekend_indicator(sun_23, 2)
        np.testing.assert_array_equal(ind.values, [0.0, 1.0])


class TestAcfPacf:
    def test_lag_zero_is_one(self):
        rng = np.random.default_rng(3)
        acf = sample_acf(series(rng.normal(size=100)), 10)
        assert acf[0] == 1.0

    def test_alternating_series(self):
        n = 1000
        acf = sample_acf(series([1.0, -1.0] * (n // 2)), 1)
        assert abs(acf[1] - (-1.0)) < 2.0 / n

    def test_ar1_acf_matches_analytic(self):
        # AR(1) with phi=0.5 has acf 0.5^k; biased estimator at n=10000
        rng = np.random.default_rng(4)
        eps = rng.normal(size=10500)
        x = np.zeros(10500)
        for t in range(1, 10500):
            x[t] = 0.5 * x[t - 1] + eps[t]
        acf = sample_acf(series(x[500:]), 5)
        for k in range(1, 6):
            assert abs(acf[k] - 0.5**k) < 0.03

    def test_degenerate(self):
        with pytest.raises(DegenerateSeries):
            sample_acf(series([7.0, 7.0, 7.0]), 1)

    def test_range_bounds(self):
        rng = np.random.default_rng(5)
        s = series(rng.normal(size=400))
        acf = sample_acf(s, 30)
        pacf = sample_pacf(s, 30)
        assert np.all(np.abs(acf) <= 1.0)
        assert np.all(np.abs(pacf) <= 1.0)

    def test_pacf_lag1_equals_acf_lag1(self):
        rng = np.random.default_rng(6)
        s = series(rng.normal(size=500))
        assert sample_pacf(s, 1)[1] == pytest.approx(sample_acf(s, 1)[1], abs=1e-12)

    def test_ar2_pacf_cutoff(self):
        # AR(2) pacf should vanish beyond lag 2: inside the 2/sqrt(n) band
        n = 10000
        rng = np.random.default_rng(7)
        eps = rng.normal(size=n + 500)
        x = np.zeros(n + 500)
        for t in range(2, n + 500):
            x[t] = 0.5 * x[t - 1] - 0.3 * x[t - 2] + eps[t]
        pacf = sample_pacf(series(x[500:]), 24)
        band = 2.0 / math.sqrt(n)
        inside = sum(1 for k in range(3, 25) if abs(pacf[k]) < band)
        assert inside >= 0.9 * 22

    def test_white_noise_pacf_near_zero(self):
        rng = np.random.default_rng(8)
        pacf = sample_pacf(series(rng.normal(size=10000)), 20)
        assert np.all(np.abs(pacf[1:]) < 0.03)
