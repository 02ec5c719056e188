"""Tests for CSV ingestion, the synthetic market generator, and plot exports."""

import logging
import re
import tracemalloc
from datetime import datetime, timezone

import numpy as np
import pytest

from lmpcast import dataio
from lmpcast.arima import ModelSpec, ParameterVector
from lmpcast.dataio import (
    MarketDataset,
    SynthConfig,
    csv_table,
    export_plot_data,
    load_lmp_csv,
    synth_market,
    write_lmp_csv,
)
from lmpcast.errors import (
    AlignmentError,
    GapError,
    IoError,
    LmpcastError,
    ParseError,
    SchemaError,
    UnstableParameters,
)
from lmpcast.series import HOUR, UNITS_PRICE, HourlySeries, delta_lmp, format_hour, weekend_indicator

MONDAY = datetime(2015, 1, 5, tzinfo=timezone.utc)

HEADER = "timestamp,dalmp,rtlmp\n"


def series(values, start=MONDAY):
    return HourlySeries(start, np.asarray(values, dtype=float), UNITS_PRICE)


def write(path, body):
    path.write_text(HEADER + body, encoding="utf-8")
    return path


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = write(
            tmp_path / "two.csv",
            "2015-01-05T00:00Z,25.10,24.80\n2015-01-05T01:00Z,24.30,26.00\n",
        )
        data = load_lmp_csv(path)
        assert len(data) == 2
        assert data.start == MONDAY
        np.testing.assert_allclose(data.dalmp.values, [25.10, 24.30])
        np.testing.assert_allclose(data.rtlmp.values, [24.80, 26.00])

    def test_rows_sorted_by_timestamp(self, tmp_path):
        path = write(
            tmp_path / "shuffled.csv",
            "2015-01-05T01:00Z,24.30,26.00\n2015-01-05T00:00Z,25.10,24.80\n",
        )
        data = load_lmp_csv(path)
        assert data.start == MONDAY
        np.testing.assert_allclose(data.dalmp.values, [25.10, 24.30])

    def test_missing_hour_rejected_with_timestamp(self, tmp_path):
        path = write(
            tmp_path / "gap.csv",
            "2015-01-05T00:00Z,25.10,24.80\n2015-01-05T02:00Z,24.30,26.00\n",
        )
        with pytest.raises(GapError, match="2015-01-05T01:00Z"):
            load_lmp_csv(path)

    def test_forward_fill_repeats_previous_row(self, tmp_path, caplog):
        path = write(
            tmp_path / "gap.csv",
            "2015-01-05T00:00Z,25.10,24.80\n2015-01-05T03:00Z,24.30,26.00\n",
        )
        with caplog.at_level(logging.WARNING, logger="lmpcast.dataio"):
            data = load_lmp_csv(path, gap_policy="forward-fill")
        assert len(data) == 4
        np.testing.assert_allclose(data.dalmp.values, [25.10, 25.10, 25.10, 24.30])
        np.testing.assert_allclose(data.rtlmp.values, [24.80, 24.80, 24.80, 26.00])
        assert "forward-filled 2" in caplog.text

    def test_duplicate_hours_averaged(self, tmp_path, caplog):
        path = write(
            tmp_path / "dup.csv",
            "2015-01-05T00:00Z,20.00,30.00\n"
            "2015-01-05T00:00Z,30.00,40.00\n"
            "2015-01-05T01:00Z,24.30,26.00\n",
        )
        with caplog.at_level(logging.WARNING, logger="lmpcast.dataio"):
            data = load_lmp_csv(path)
        assert len(data) == 2
        assert data.dalmp.values[0] == pytest.approx(25.0)
        assert data.rtlmp.values[0] == pytest.approx(35.0)
        assert "averaged 1" in caplog.text

    def test_shuffled_triple_hour_next_to_a_gap_forward_filled(self, tmp_path, caplog):
        # 01:00 appears three times, 02:00 and 03:00 are missing, 04:00 and
        # 05:00 come before the rows they follow
        path = write(
            tmp_path / "mixed.csv",
            "2015-01-05T04:00Z,40.000000,44.000000\n"
            "2015-01-05T01:00Z,10.100000,11.000000\n"
            "2015-01-05T00:00Z,5.000000,6.000000\n"
            "2015-01-05T01:00Z,10.200000,12.000000\n"
            "2015-01-05T05:00Z,50.000000,55.000000\n"
            "2015-01-05T01:00Z,10.400000,13.000000\n",
        )
        with caplog.at_level(logging.WARNING, logger="lmpcast.dataio"):
            data = load_lmp_csv(path, gap_policy="forward-fill")
        triple_da = (10.1 + 10.2 + 10.4) / 3
        assert data.start == MONDAY
        assert data.dalmp.values.tolist() == [5.0, triple_da, triple_da, triple_da, 40.0, 50.0]
        assert data.rtlmp.values.tolist() == [6.0, 12.0, 12.0, 12.0, 44.0, 55.0]
        assert "averaged 1 duplicated hour(s)" in caplog.text
        assert "forward-filled 2 missing hour(s)" in caplog.text

    def test_duplicate_before_a_gap_rejected_naming_first_missing_hour(self, tmp_path, caplog):
        path = write(
            tmp_path / "dupgap.csv",
            "2015-01-05T00:00Z,1.0,2.0\n"
            "2015-01-05T01:00Z,3.0,4.0\n"
            "2015-01-05T01:00Z,5.0,6.0\n"
            "2015-01-05T04:00Z,7.0,8.0\n",
        )
        with caplog.at_level(logging.WARNING, logger="lmpcast.dataio"):
            with pytest.raises(GapError) as raised:
                load_lmp_csv(path)
        assert str(raised.value) == f"{path}: missing hour 2015-01-05T02:00Z"
        assert "averaged 1 duplicated hour(s)" in caplog.text

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_a_row_by_row_reference(self, tmp_path, seed):
        # the reference sorts rows by hour (stably), averages each hour's rows
        # left to right in file order and repeats the last hour into gaps
        rng = np.random.default_rng(seed)
        rows = [(int(h), *rng.normal(30.0, 20.0, 2).tolist()) for h in rng.integers(0, 60, 90)]
        by_hour = {}
        for h, da, rt in sorted(rows, key=lambda r: r[0]):
            by_hour.setdefault(h, []).append((da, rt))
        want, last = [], None
        for h in range(min(by_hour), max(by_hour) + 1):
            group = by_hour.get(h)
            if group:
                last = (sum(r[0] for r in group) / len(group), sum(r[1] for r in group) / len(group))
            want.append(last)
        body = "".join(f"{format_hour(MONDAY + HOUR * h)},{da!r},{rt!r}\n" for h, da, rt in rows)
        data = load_lmp_csv(write(tmp_path / "random.csv", body), gap_policy="forward-fill")
        assert data.start == MONDAY + HOUR * min(by_hour)
        assert data.dalmp.values.tolist() == [r[0] for r in want]
        assert data.rtlmp.values.tolist() == [r[1] for r in want]

    def test_malformed_rows_name_the_line(self, tmp_path):
        path = write(tmp_path / "wide.csv", "2015-01-05T00:00Z,25.10,24.80,9\n")
        with pytest.raises(ParseError, match="line 2"):
            load_lmp_csv(path)
        path = write(
            tmp_path / "ts.csv",
            "2015-01-05T00:00Z,25.10,24.80\n2015-01-05 01:00,24.30,26.00\n",
        )
        with pytest.raises(ParseError, match="line 3"):
            load_lmp_csv(path)
        path = write(tmp_path / "price.csv", "2015-01-05T00:00Z,25.10,cheap\n")
        with pytest.raises(ParseError, match="line 2"):
            load_lmp_csv(path)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", "NaN"])
    def test_non_finite_prices_name_the_line(self, tmp_path, field):
        body = f"2015-01-05T00:00Z,25.10,24.80\n2015-01-05T01:00Z,{field},26.00\n"
        with pytest.raises(ParseError, match="line 3: .*finite"):
            load_lmp_csv(write(tmp_path / "inf.csv", body))

    def test_schema_violations(self, tmp_path):
        path = tmp_path / "head.csv"
        path.write_text("time,da,rt\n2015-01-05T00:00Z,25.10,24.80\n", encoding="utf-8")
        with pytest.raises(SchemaError):
            load_lmp_csv(path)
        with pytest.raises(SchemaError, match="no data rows"):
            load_lmp_csv(write(tmp_path / "empty.csv", ""))

    def test_oversized_field_names_the_path_and_line(self, tmp_path):
        body = "2015-01-05T00:00Z,25.10,24.80\n2015-01-05T01:00Z,25.10," + "9" * 200_000 + "\n"
        path = write(tmp_path / "wide.csv", body)
        with pytest.raises(ParseError, match=re.escape(f"{path}: line 3: field larger than field limit")):
            load_lmp_csv(path)

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_crlf_and_cr_line_endings_read_as_lf(self, tmp_path, ending):
        body = HEADER + "2015-01-05T00:00Z,25.10,24.80\n2015-01-05T01:00Z,24.30,26.00\n"
        want = load_lmp_csv(write(tmp_path / "lf.csv", body[len(HEADER):]))
        path = tmp_path / "other.csv"
        path.write_bytes(body.replace("\n", ending).encode())
        got = load_lmp_csv(path)
        assert got.start == want.start
        assert got.dalmp.values.tolist() == want.dalmp.values.tolist()
        assert got.rtlmp.values.tolist() == want.rtlmp.values.tolist()

    @pytest.mark.parametrize("line", [1, 3])
    def test_non_utf8_byte_names_the_path_and_line(self, tmp_path, line):
        rows = [HEADER.encode(), b"2015-01-05T00:00Z,25.10,24.80\n", b"2015-01-05T01:00Z,25.10,24.80\n"]
        rows[line - 1] = rows[line - 1].replace(b",", b",\xff", 1)
        path = tmp_path / "latin.csv"
        path.write_bytes(b"".join(rows))
        with pytest.raises(ParseError, match=re.escape(f"{path}: line {line}: 'utf-8' codec can't decode byte 0xff")):
            load_lmp_csv(path)

    def test_unreadable_path(self, tmp_path):
        path = tmp_path / "absent.csv"
        with pytest.raises(IoError) as raised:
            load_lmp_csv(path)
        assert str(raised.value) == f"cannot read {path}: [Errno 2] No such file or directory: {str(path)!r}"

    def test_gap_policy_validated(self, tmp_path):
        path = write(tmp_path / "ok.csv", "2015-01-05T00:00Z,25.10,24.80\n")
        with pytest.raises(ValueError):
            load_lmp_csv(path, gap_policy="interpolate")


class TestWriteCsv:
    def test_exact_bytes(self, tmp_path):
        data = MarketDataset(series([25.10, 24.30]), series([24.80, 26.00]))
        path = tmp_path / "out.csv"
        write_lmp_csv(data, path)
        assert path.read_bytes() == (
            b"timestamp,dalmp,rtlmp\n"
            b"2015-01-05T00:00Z,25.100000,24.800000\n"
            b"2015-01-05T01:00Z,24.300000,26.000000\n"
        )

    @pytest.mark.parametrize("start", [
        datetime(2016, 2, 28, 20, tzinfo=timezone.utc),  # leap day
        datetime(2015, 12, 31, 20, tzinfo=timezone.utc),  # year boundary
        datetime(999, 12, 31, 20, tzinfo=timezone.utc),  # numpy and strftime pad years below 1000 differently
    ], ids=["leap-day", "year-boundary", "year-999-to-1000"])
    def test_series_column_renders_its_hours_as_format_hour_does(self, start):
        hours = series(np.zeros(60), start)
        one_at_a_time = [format_hour(hours.timestamp_at(i)) for i in range(len(hours))]
        assert csv_table({"timestamp": hours}) == "\n".join(["timestamp", *one_at_a_time]) + "\n"

    def test_round_trip_within_serialization_precision(self, tmp_path):
        rng = np.random.default_rng(30)
        data = MarketDataset(
            series(rng.normal(30.0, 10.0, 500)), series(rng.normal(30.0, 15.0, 500))
        )
        path = tmp_path / "rt.csv"
        write_lmp_csv(data, path)
        loaded = load_lmp_csv(path)
        # six decimal places quantize to at most 5e-7 per value
        np.testing.assert_allclose(loaded.dalmp.values, data.dalmp.values, atol=5e-7)
        np.testing.assert_allclose(loaded.rtlmp.values, data.rtlmp.values, atol=5e-7)
        assert loaded.start == data.start

    def test_round_trip_exact_on_six_decimal_values(self, tmp_path):
        # values already on the 1e-6 grid survive write -> load bit-exactly,
        # comfortably inside the documented 1e-9 round-trip bound
        rng = np.random.default_rng(31)
        da = np.round(rng.normal(30.0, 10.0, 500), 6)
        rt = np.round(rng.normal(30.0, 15.0, 500), 6)
        data = MarketDataset(series(da), series(rt))
        path = tmp_path / "grid.csv"
        write_lmp_csv(data, path)
        loaded = load_lmp_csv(path)
        np.testing.assert_array_equal(loaded.dalmp.values, da)
        np.testing.assert_array_equal(loaded.rtlmp.values, rt)


def synth_config(**overrides):
    base = dict(
        delta_spec=ModelSpec(p=1, q=2),
        delta_params=ParameterVector(phi=(0.9,), theta=(0.25, 0.1), mu=0.6, sigma2=1.0),
        dalmp_spec=ModelSpec(p=1),
        dalmp_params=ParameterVector(phi=(0.6,), mu=7.0, sigma2=9.0),
        length=2000,
        start=MONDAY,
        seed=0,
    )
    base.update(overrides)
    return SynthConfig(**base)


def line_reader_only(monkeypatch):
    """Send every file through the line reader, as if none had write_lmp_csv's shape."""
    monkeypatch.setattr(dataio, "_read_canonical", lambda data: None)


def synth_rows(start, length=60, seed=0):
    """The data lines of a spiky synth market written by write_lmp_csv."""
    data = synth_market(synth_config(start=start, length=length, seed=seed, spike_rate=0.05))
    columns = dict(zip(HEADER.strip().split(","), (data.dalmp, data.dalmp.values, data.rtlmp.values)))
    return csv_table(columns, floats=("dalmp", "rtlmp")).splitlines(keepends=True)[1:]


def positional(values, digits=None):
    """Prices as plain decimals: shortest round-trip digits, or ``digits`` after the point."""
    return [f"{v:.{digits}f}" if digits else np.format_float_positional(v, trim="0") for v in values]


def corpus():
    """The equality oracle's files: name -> (lines, gap policy, whether the array reader takes the file)."""
    leap = synth_rows(datetime(2016, 2, 28, 20, tzinfo=timezone.utc))
    new_year = synth_rows(datetime(2015, 12, 31, 20, tzinfo=timezone.utc), seed=1)
    other = synth_rows(datetime(2016, 2, 28, 20, tzinfo=timezone.utc), seed=2)
    shuffled = list(leap)
    np.random.default_rng(40).shuffle(shuffled)
    gappy = leap[:10] + leap[13:30] + leap[31:]
    rng = np.random.default_rng(41)
    hours = [format_hour(MONDAY + HOUR * h) for h in range(40)]
    wide = rng.normal(30.0, 20.0, (40, 2))
    extremes = [5e-324, 2.5e-320, -2.2250738585072014e-308, 1e300, -1.7976931348623157e308, 0.1 + 0.2]
    return {
        "leap-day": (leap, "reject", True),
        "year-boundary": (new_year, "reject", True),
        "shuffled": (shuffled, "reject", True),
        "duplicated-hours": (leap + other[5:9] + other[7:8], "reject", True),
        "missing-hours-rejected": (gappy, "reject", True),
        "missing-hours-filled": (gappy, "forward-fill", True),
        "shuffled-duplicated-missing-filled": (shuffled[::2] + shuffled[:7], "forward-fill", True),
        "negative-zero": (["2015-01-05T00:00Z,-0.000000,0.000000\n", "2015-01-05T01:00Z,-0.000000,-1.500000\n",
                           "2015-01-05T01:00Z,-0.000000,1.500000\n"], "reject", True),
        "subnormal-and-extreme": ([f"{h},{a},{b}\n" for h, a, b in zip(hours, positional(extremes),
                                                                   positional(extremes[::-1]))], "reject", True),
        "17-significant-digits": ([f"{h},{a},{b}\n" for h, (a, b) in zip(hours, zip(
            positional(wide[:, 0] + 50.0, digits=15), positional(wide[:, 1])))], "reject", True),
        "one-row": (leap[:1], "reject", True),
        "year-0": (["0000-12-31T22:00Z,1.0,2.0\n", "0000-12-31T23:00Z,3.0,4.0\n"], "reject", False),
    }


def outcome(path, gap_policy, caplog):
    """What loading ``path`` gives: the dataset or the error, the WARNING lines and the DEBUG lines."""
    caplog.clear()
    try:
        data = load_lmp_csv(path, gap_policy)
    except LmpcastError as exc:
        result = (type(exc), str(exc))
    else:
        result = (data.start, data.node, [(s.units, s.values.tolist(), np.signbit(s.values).tolist())
                                          for s in (data.dalmp, data.rtlmp)])
    warnings = [r.getMessage() for r in caplog.records if r.levelno == logging.WARNING]
    readers = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    return result, warnings, readers


class TestArrayReader:
    @pytest.mark.parametrize("name", list(corpus()))
    def test_both_readers_give_equal_datasets_warnings_and_errors(self, tmp_path, monkeypatch, caplog, name):
        lines, gap_policy, canonical = corpus()[name]
        path = write(tmp_path / f"{name}.csv", "".join(lines))
        assert (dataio._read_canonical(path.read_bytes()) is not None) == canonical
        with caplog.at_level(logging.DEBUG, logger="lmpcast.dataio"):
            arrays, arrays_warned, arrays_read = outcome(path, gap_policy, caplog)
            with monkeypatch.context() as patched:
                line_reader_only(patched)
                lines_only, lines_warned, _ = outcome(path, gap_policy, caplog)
        assert arrays == lines_only
        assert arrays_warned == lines_warned
        if isinstance(arrays[0], datetime):
            reader = "array" if canonical else "line"
            assert re.fullmatch(rf"{re.escape(str(path))}: read {len(lines)} rows with the {reader} reader in [0-9.]+ ms",
                                arrays_read[-1])

    @pytest.mark.parametrize("row, error", [
        ("0000-01-05T00:00Z,1.0,2.0", "not an ISO-8601 UTC whole hour: '0000-01-05T00:00Z'"),  # numpy reads year 0
        ("2001-02-29T00:00Z,1.0,2.0", "not an ISO-8601 UTC whole hour: '2001-02-29T00:00Z'"),
        ("2015-01-05T24:00Z,1.0,2.0", "not an ISO-8601 UTC whole hour: '2015-01-05T24:00Z'"),
        ("2015-01-05T02:00Z,1" + "0" * 400 + ".0,2.0", "price fields must be finite"),
        ("2015-01-05T02:00Z,0." + "0" * 200_000 + "1,2.0", "field larger than field limit"),
    ], ids=["year-0", "2001-02-29", "hour-24", "infinite-price", "oversized-field"])
    def test_rows_the_arrays_would_misread_go_to_the_line_reader(self, tmp_path, row, error):
        path = write(tmp_path / "guard.csv", f"2015-01-05T00:00Z,25.10,24.80\n{row}\n")
        assert dataio._read_canonical(path.read_bytes()) is None
        with pytest.raises(ParseError, match=re.escape(f"{path}: line 3: ") + ".*" + re.escape(error)):
            load_lmp_csv(path)

    @pytest.mark.parametrize("body", [
        HEADER + '"2015-01-05T00:00Z","25.10","24.80"\n',
        HEADER + "2015-01-05T00:00Z,25.10,24.80\r\n2015-01-05T01:00Z,24.30,26.00\r\n",
        HEADER + "2015-01-05T00:00Z,25.10,24.80\r2015-01-05T01:00Z,24.30,26.00\r",
        HEADER + "2015-01-05T00:00:00Z,25.10,24.80\n",
        HEADER + "2015-01-05T00:00Z,25.10,24.80\n\n2015-01-05T01:00Z,24.30,26.00\n",
        HEADER + "2015-01-05T00:00Z,25.10,24.80\n2015-01-05T01:00Z,1e-05,26.00\n",
        HEADER + "2015-01-05T00:00Z,25.10,24.80,9\n",
        HEADER + "2015-01-05T00:00Z,25.10\n",
        HEADER + "2015-01-05T00:00Z,25.10,24.80\n2015-01-05 01:00,24.30,26.00\n",
        HEADER + "2015-01-05T00:00Z,25.10,cheap\n",
        HEADER + "2015-01-05T00:00Z,25.10,24.80\n2015-01-05T01:00Z,inf,26.00\n",
        HEADER + "2015-01-05T00:00Z,25.10,24.80\n2015-01-05T01:00Z,25.10," + "9" * 200_000 + "\n",
        HEADER + "2015-01-05T00:30Z,25.10,24.80\n",
        HEADER + "2015-01-05T00:00Z,25,24.80\n",
        HEADER + "2015-01-05T00:00Z,25.10,24.80",
        HEADER,
        "time,da,rt\n2015-01-05T00:00Z,25.10,24.80\n",
        HEADER.encode() + b"2015-01-05T00:00Z,\xff25.10,24.80\n",
    ], ids=["quotes", "crlf", "cr", "seconds", "blank-line", "repr-exponent", "four-fields", "two-fields",
            "space-timestamp", "word-price", "infinite-word", "oversized-field", "half-hour", "integer-price",
            "no-final-newline", "header-only", "wrong-header", "non-utf8"])
    def test_every_other_shape_goes_to_the_line_reader(self, tmp_path, monkeypatch, body):
        path = tmp_path / "other.csv"
        path.write_bytes(body if isinstance(body, bytes) else body.encode())
        calls, read_lines = [], dataio._read_lines

        def recording(*args):
            calls.append(args[0])
            return read_lines(*args)

        monkeypatch.setattr(dataio, "_read_lines", recording)
        try:
            load_lmp_csv(path)
        except LmpcastError:
            pass
        assert calls == [path]

    @pytest.mark.parametrize("ending", ["\n", "\r\n"], ids=["array-reader", "line-reader"])
    def test_the_file_is_opened_once(self, tmp_path, monkeypatch, ending):
        path = tmp_path / "once.csv"
        path.write_bytes((HEADER + "2015-01-05T00:00Z,25.10,24.80\n").replace("\n", ending).encode())
        opened = []
        monkeypatch.setattr(dataio, "open", lambda *args: opened.append(args) or open(*args), raising=False)
        assert load_lmp_csv(path).rtlmp.values.tolist() == [24.80]
        assert opened == [(path, "rb")]

    def test_array_reader_peak_memory_stays_below_the_line_reader(self, tmp_path, monkeypatch):
        # two years of hours: a greedy whole-file regex (13 MB) or per-field
        # lists would lift the array reader's peak above the line reader's
        path = tmp_path / "two-years.csv"
        write_lmp_csv(synth_market(synth_config(length=17_520, spike_rate=0.01)), path)

        def traced_peak():
            tracemalloc.start()
            try:
                data = load_lmp_csv(path)
                return tracemalloc.get_traced_memory()[1], data
            finally:
                tracemalloc.stop()

        arrays, by_arrays = traced_peak()
        line_reader_only(monkeypatch)
        lines, by_lines = traced_peak()
        assert by_arrays.dalmp.values.tolist() == by_lines.dalmp.values.tolist()
        assert arrays < lines


class TestSynthMarket:
    def test_deterministic_given_seed(self):
        a = synth_market(synth_config(seed=42, spike_rate=0.01, weekend_effect=5.0))
        b = synth_market(synth_config(seed=42, spike_rate=0.01, weekend_effect=5.0))
        np.testing.assert_array_equal(a.dalmp.values, b.dalmp.values)
        np.testing.assert_array_equal(a.rtlmp.values, b.rtlmp.values)
        c = synth_market(synth_config(seed=43, spike_rate=0.01, weekend_effect=5.0))
        assert not np.array_equal(a.rtlmp.values, c.rtlmp.values)

    def test_delta_acf_matches_analytic(self):
        # psi-weight convolution gives the ARMA(1,2) autocorrelations:
        # rho(k) = sum_j psi_j psi_{j+k} / sum_j psi_j^2
        config = synth_config(length=20000)
        data = synth_market(config)
        delta = delta_lmp(data.dalmp, data.rtlmp)

        ar = np.zeros(300)
        ar[0] = 1.0
        ar[1] = -0.9
        ma = np.zeros(300)
        ma[0], ma[1], ma[2] = 1.0, -0.25, -0.1
        psi = np.zeros(300)
        for j in range(300):
            acc = ma[j] - sum(ar[i] * psi[j - i] for i in range(1, j + 1))
            psi[j] = acc
        denom = float(np.dot(psi, psi))
        for lag in range(1, 25):
            want = float(np.dot(psi[:-lag], psi[lag:])) / denom
            got = np.corrcoef(delta.values[:-lag], delta.values[lag:])[0, 1]
            assert got == pytest.approx(want, abs=0.03)

    def test_weekend_effect_group_means(self):
        data = synth_market(synth_config(length=20000, weekend_effect=10.0))
        delta = delta_lmp(data.dalmp, data.rtlmp)
        weekday = weekend_indicator(MONDAY, 20000).values.astype(bool)
        gap = float(delta.values[~weekday].mean() - delta.values[weekday].mean())
        # effect is added on weekday hours, so weekend sits lower
        assert gap == pytest.approx(-10.0, abs=0.5)

    def test_no_spurious_spikes_at_rate_zero(self):
        data = synth_market(synth_config(length=20000))
        delta = delta_lmp(data.dalmp, data.rtlmp).values
        bound = 8.0 * delta.std()
        assert np.all(np.abs(delta - delta.mean()) < bound)

    def test_spikes_exceed_clean_bound(self):
        clean = synth_market(synth_config(length=20000))
        spiky = synth_market(synth_config(length=20000, spike_rate=0.008))
        clean_delta = delta_lmp(clean.dalmp, clean.rtlmp).values
        spiky_delta = delta_lmp(spiky.dalmp, spiky.rtlmp).values
        bound = 8.0 * clean_delta.std()
        outliers = np.abs(spiky_delta - spiky_delta.mean()) > bound
        # expect roughly 0.8% of 20000 hours hit
        assert 100 <= int(outliers.sum()) <= 250

    def test_unstable_generator_rejected(self):
        with pytest.raises(UnstableParameters):
            synth_config(
                delta_spec=ModelSpec(p=1, q=0),
                delta_params=ParameterVector(phi=(1.2,), mu=0.0, sigma2=1.0),
            )

    def test_generator_models_must_not_take_regressors(self):
        with pytest.raises(ValueError, match="exogenous"):
            synth_config(
                delta_spec=ModelSpec(p=1, q=0, exog_count=1),
                delta_params=ParameterVector(phi=(0.5,), gamma=(1.0,), mu=0.0),
            )

    def test_config_validation(self):
        with pytest.raises(ValueError):
            synth_config(length=0)
        with pytest.raises(ValueError):
            synth_config(spike_rate=1.0)

    def test_negative_seed_rejected_naming_it(self):
        with pytest.raises(ValueError, match=r"seed = -1: expected a non-negative integer"):
            synth_config(seed=-1)


class TestExportPlotData:
    def test_acf_pacf_columns_and_band(self, tmp_path):
        rng = np.random.default_rng(32)
        data = series(rng.normal(0.0, 1.0, 400))
        path = tmp_path / "acf.csv"
        export_plot_data("acf_pacf", path, series=data, max_lag=24)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "lag,acf,pacf,band"
        assert len(lines) == 1 + 25
        first = lines[1].split(",")
        assert first[0] == "0"
        assert float(first[1]) == pytest.approx(1.0)
        assert float(first[3]) == pytest.approx(2.0 / np.sqrt(400), abs=1e-6)

    def test_improvement_curve_one_row_per_horizon(self, tmp_path):
        curves = {
            "arma": [26.64 - k for k in range(12)],
            "armax": [27.21 - k for k in range(12)],
        }
        path = tmp_path / "curve.csv"
        export_plot_data("improvement_curve", path, curves=curves)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "horizon,arma,armax"
        assert len(lines) == 1 + 12
        assert lines[1].startswith("1,26.640000,27.210000")

    def test_improvement_curve_exact_bytes_with_integer_entries(self, tmp_path):
        path = tmp_path / "curve.csv"
        export_plot_data("improvement_curve", path, curves={"arma": [5, -2], "oracle": [100.0, 2.5]})
        assert path.read_bytes() == (
            b"horizon,arma,oracle\n"
            b"1,5.000000,100.000000\n"
            b"2,-2.000000,2.500000\n"
        )

    def test_improvement_curve_validation(self, tmp_path):
        with pytest.raises(ValueError):
            export_plot_data("improvement_curve", tmp_path / "x.csv", curves={})
        with pytest.raises(ValueError, match="horizon"):
            export_plot_data("improvement_curve", tmp_path / "x.csv", curves={"horizon": [1.0]})
        with pytest.raises(AlignmentError):
            export_plot_data(
                "improvement_curve",
                tmp_path / "x.csv",
                curves={"a": [1.0, 2.0], "b": [1.0]},
            )

    def test_forecast_overlay_row_count(self, tmp_path):
        rng = np.random.default_rng(33)
        actual = series(rng.normal(30.0, 5.0, 48))
        forecast = series(actual.values + 0.5)
        baseline = series(actual.values + 1.5)
        path = tmp_path / "overlay.csv"
        export_plot_data(
            "forecast_overlay", path, actual=actual, forecast=forecast, baseline=baseline
        )
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "timestamp,actual,forecast,baseline"
        assert len(lines) == 1 + 48
        assert lines[1].startswith("2015-01-05T00:00Z,")

    def test_forecast_overlay_exact_bytes(self, tmp_path):
        path = tmp_path / "overlay.csv"
        export_plot_data(
            "forecast_overlay", path,
            actual=series([30.5, -1.25]), forecast=series([30.0, 0.0]), baseline=series([1e-7, 12.0]),
        )
        assert path.read_bytes() == (
            b"timestamp,actual,forecast,baseline\n"
            b"2015-01-05T00:00Z,30.500000,30.000000,0.000000\n"
            b"2015-01-05T01:00Z,-1.250000,0.000000,12.000000\n"
        )

    def test_forecast_overlay_alignment(self, tmp_path):
        actual = series([1.0, 2.0])
        short = series([1.0])
        with pytest.raises(AlignmentError):
            export_plot_data(
                "forecast_overlay",
                tmp_path / "x.csv",
                actual=actual,
                forecast=short,
                baseline=actual,
            )

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError, match="unknown plot-data kind"):
            export_plot_data("histogram", tmp_path / "x.csv", series=series([1.0]))

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(IoError):
            export_plot_data(
                "improvement_curve", tmp_path, curves={"a": [1.0]}
            )
