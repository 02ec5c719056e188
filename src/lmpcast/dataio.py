"""CSV ingestion, the seeded synthetic market generator, and plot-data export.

The CSV schema is a single header line ``timestamp,dalmp,rtlmp`` followed
by one row per hour: ISO-8601 UTC whole-hour timestamps and plain decimal
prices. Every CSV the package writes, this schema and the plot, forecast,
grid and comparison tables alike, goes through :func:`csv_table`: a header
line, floats at six decimal places, hours as ``format_hour`` renders them,
UTF-8 with LF line endings.

The synthetic market builds a day-ahead price path and a differential path
from configured models, sets ``rtlmp = dalmp - delta`` so the pipeline's
reconstruction is a strict inverse, and optionally injects two-sided
spikes into the real-time series so downstream clipping has something to
remove.
"""

from __future__ import annotations

import csv
import io
import logging
import math
import re
import time
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Collection, Iterable, Mapping, Sequence

import numpy as np

from .arima import DEFAULT_ORIGIN, ModelSpec, ParameterVector, check_conforms, simulate
from .errors import AlignmentError, GapError, IoError, ParseError, SchemaError
from .series import (
    UNITS_PRICE,
    HourlySeries,
    format_hour,
    parse_hour,
    require_aligned,
    sample_acf,
    sample_pacf,
    weekend_indicator,
)

__all__ = [
    "MarketDataset",
    "SynthConfig",
    "load_lmp_csv",
    "write_lmp_csv",
    "csv_table",
    "write_text",
    "synth_market",
    "export_plot_data",
]

_HEADER = ["timestamp", "dalmp", "rtlmp"]

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MarketDataset:
    """Aligned day-ahead and real-time price series for one pricing node."""

    dalmp: HourlySeries
    rtlmp: HourlySeries
    node: str = "NODE"

    def __post_init__(self) -> None:
        require_aligned(self.dalmp, self.rtlmp)

    def __len__(self) -> int:
        return len(self.dalmp)

    @property
    def start(self) -> datetime:
        return self.dalmp.start

    @property
    def end(self) -> datetime:
        return self.dalmp.end

    def window(self, index: int, length: int) -> "MarketDataset":
        """Sub-dataset of ``length`` hours beginning at ``index``.

        Both windows cut one calendar, which is already aligned, so it is
        not checked again (as :meth:`HourlySeries.window` skips its checks).
        """
        sub = object.__new__(MarketDataset)
        object.__setattr__(sub, "dalmp", self.dalmp.window(index, length))
        object.__setattr__(sub, "rtlmp", self.rtlmp.window(index, length))
        object.__setattr__(sub, "node", self.node)
        return sub


@dataclass(frozen=True)
class SynthConfig:
    """Recipe for a reproducible synthetic market.

    ``delta`` models the day-ahead/real-time differential; the weekend
    effect is added to it on weekday hours (times the weekday indicator),
    so weekend hours sit ``weekend_effect`` lower than weekday hours.
    Spikes of magnitude ``spike_minimum`` plus an exponential tail of scale
    ``spike_scale``, with random sign, hit the real-time price at
    ``spike_rate`` per hour.
    """

    delta_spec: ModelSpec
    delta_params: ParameterVector
    dalmp_spec: ModelSpec
    dalmp_params: ParameterVector
    length: int
    weekend_effect: float = 0.0
    spike_rate: float = 0.0
    spike_minimum: float = 150.0
    spike_scale: float = 50.0
    start: datetime = DEFAULT_ORIGIN
    seed: int = 0
    node: str = "SYNTH"

    def __post_init__(self) -> None:
        check_conforms(self.delta_spec, self.delta_params)
        check_conforms(self.dalmp_spec, self.dalmp_params)
        if self.delta_spec.exog_count or self.dalmp_spec.exog_count:
            raise ValueError("generator models must not declare exogenous terms")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if not 0.0 <= self.spike_rate < 1.0:
            raise ValueError(f"spike_rate must be in [0, 1), got {self.spike_rate}")
        if self.seed < 0:
            raise ValueError(f"seed = {self.seed}: expected a non-negative integer")


def synth_market(config: SynthConfig) -> MarketDataset:
    """Generate a dataset from the recipe; deterministic given config.seed."""
    seeds = np.random.SeedSequence(config.seed).generate_state(4)
    dalmp = simulate(
        config.dalmp_spec,
        config.dalmp_params,
        config.length,
        seed=int(seeds[0]),
        start=config.start,
        units=UNITS_PRICE,
    )
    delta = simulate(
        config.delta_spec,
        config.delta_params,
        config.length,
        seed=int(seeds[1]),
        start=config.start,
        units=UNITS_PRICE,
    )
    delta_values = delta.values
    if config.weekend_effect:
        weekday = weekend_indicator(config.start, config.length)
        delta_values = delta_values + config.weekend_effect * weekday.values

    rtlmp_values = dalmp.values - delta_values
    if config.spike_rate > 0.0:
        hit = np.random.default_rng(int(seeds[2])).random(config.length) < config.spike_rate
        rng = np.random.default_rng(int(seeds[3]))
        magnitude = config.spike_minimum + rng.exponential(config.spike_scale, config.length)
        sign = rng.choice([-1.0, 1.0], config.length)
        rtlmp_values = rtlmp_values + hit * sign * magnitude
    rtlmp = HourlySeries(config.start, rtlmp_values, UNITS_PRICE)
    return MarketDataset(dalmp, rtlmp, config.node)


def _hour(number) -> datetime:
    """The UTC hour that the loader numbers ``toordinal() * 24 + hour``."""
    day, hour = divmod(int(number), 24)
    return datetime.fromordinal(day).replace(hour=hour, tzinfo=timezone.utc)


# the whole shape write_lmp_csv writes; the possessive repeat keeps no
# backtracking frame per line, where a greedy one costs 13 MB on two years
_CANONICAL = re.compile(
    re.escape(",".join(_HEADER).encode()) + rb"\n"
    rb"(?:[0-9]{4}-[0-9]{2}-[0-9]{2}T[0-9]{2}:00Z,-?[0-9]+\.[0-9]+,-?[0-9]+\.[0-9]+\n)++"
)
_STAMP = len("YYYY-MM-DDTHH")  # the leading bytes of a line that numpy reads as datetime64[h]
_EPOCH_HOUR = datetime(1970, 1, 1).toordinal() * 24
_FIRST_HOUR = datetime.min.toordinal() * 24  # numpy reads year 0, datetime starts at year 1


def _read_canonical(data: bytes) -> tuple[np.ndarray, np.ndarray] | None:
    """Hours and prices of a file in write_lmp_csv's shape, parsed as arrays; None for any other.

    None too wherever the arrays could differ from the line reader: a date
    that numpy rejects, an hour before year 1, a line longer than the ``csv``
    field limit, or a price too large to be finite. The line reader then
    raises that row's error.
    """
    if _CANONICAL.fullmatch(data) is None:
        return None
    buf = np.frombuffer(data, dtype=np.uint8)
    ends = np.flatnonzero(buf == ord("\n"))
    if np.diff(ends).max() > csv.field_size_limit():
        return None
    starts = ends[:-1] + 1
    stamps = np.empty((len(starts), _STAMP), dtype=np.uint8)
    for k in range(_STAMP):
        stamps[:, k] = buf[starts + k]
    try:
        hours = stamps.view(f"S{_STAMP}").ravel().astype("datetime64[h]")
    except ValueError:
        return None
    hours = hours.astype(np.int64) + _EPOCH_HOUR
    prices = np.loadtxt(io.BytesIO(data), delimiter=",", usecols=(1, 2), comments=None, skiprows=1, ndmin=2)
    if hours.min() < _FIRST_HOUR or not np.isfinite(prices).all():
        return None
    return hours, prices


def _read_lines(path, data: bytes) -> tuple[list[int], list[tuple[float, float]]]:
    """Hours and prices of any file, one line at a time: the one place that raises row errors."""
    hours: list[int] = []
    prices: list[tuple[float, float]] = []
    # lines end at LF, CR or CRLF, as in text mode with newline=""; each is decoded on its own
    reader = csv.reader(line.decode("utf-8") for chunk in io.BytesIO(data) for line in chunk.splitlines(keepends=True))
    try:
        header = next(reader, None)
        if header != _HEADER:
            raise SchemaError(f"{path}: line 1: expected header {','.join(_HEADER)!r}, got {header!r}")
        for row in reader:
            if not row:
                continue
            if len(row) != 3:
                raise ValueError(f"expected 3 fields, got {len(row)}")
            ts = parse_hour(row[0])
            da, rt = float(row[1]), float(row[2])
            if not (math.isfinite(da) and math.isfinite(rt)):
                raise ValueError(f"price fields must be finite, got {row[1]!r}, {row[2]!r}")
            hours.append(ts.toordinal() * 24 + ts.hour)
            prices.append((da, rt))
    except UnicodeDecodeError as exc:  # the reader has not yet counted the line it could not decode
        raise ParseError(f"{path}: line {reader.line_num + 1}: {exc}") from exc
    except (csv.Error, ValueError) as exc:
        raise ParseError(f"{path}: line {reader.line_num}: {exc}") from exc
    if not hours:
        raise SchemaError(f"{path}: no data rows")
    return hours, prices


def _assemble(path, hours, prices, gap_policy: str, node: str) -> MarketDataset:
    """The dataset of the rows read: sorted, duplicates averaged, gaps rejected or filled."""
    # each distinct hour starts from its first row and adds the others in
    # file order (np.add.at is sequential, as a left-to-right sum is)
    unique, first, group, counts = np.unique(hours, return_index=True, return_inverse=True, return_counts=True)
    table = np.asarray(prices, dtype=float)
    values = table[first]
    later = np.ones(len(hours), dtype=bool)
    later[first] = False
    np.add.at(values, group[later], table[later])
    values /= counts[:, None]
    duplicated = np.count_nonzero(counts > 1)
    if duplicated:
        log.warning("%s: averaged %d duplicated hour(s)", path, duplicated)

    steps = np.diff(unique)
    if gap_policy == "reject" and np.any(steps > 1):
        missing = unique[np.argmax(steps > 1)] + 1
        raise GapError(f"{path}: missing hour {format_hour(_hour(missing))}")
    every = np.arange(unique[0], unique[-1] + 1)
    values = values[np.searchsorted(unique, every, side="right") - 1]
    if len(every) > len(unique):
        log.warning("%s: forward-filled %d missing hour(s)", path, len(every) - len(unique))

    start = _hour(unique[0])
    return MarketDataset(
        HourlySeries(start, values[:, 0], UNITS_PRICE),
        HourlySeries(start, values[:, 1], UNITS_PRICE),
        node,
    )


def load_lmp_csv(path, gap_policy: str = "reject", node: str = "NODE") -> MarketDataset:
    """Read a dataset from CSV, validating hourly continuity.

    Rows are sorted by timestamp; duplicated hours are averaged in file order
    (logged). Missing hours either raise GapError (``gap_policy="reject"``)
    or repeat the previous hour's prices (``"forward-fill"``, logged). A row
    that cannot be read raises ParseError naming the path and the line; a
    wrong header (line 1) and a gap name the path too.

    A file in the shape write_lmp_csv writes is parsed as arrays; any other
    is read one line at a time, to the same dataset. One DEBUG line names
    the rows read, the reader and the wall time.
    """
    if gap_policy not in ("reject", "forward-fill"):
        raise ValueError(f"gap_policy must be 'reject' or 'forward-fill', got {gap_policy!r}")
    began = time.perf_counter()
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    reader, rows = "array", _read_canonical(data)
    if rows is None:
        reader, rows = "line", _read_lines(path, data)
    del data  # as large as the file, and not needed by the assembly
    dataset = _assemble(path, *rows, gap_policy, node)
    log.debug("%s: read %d rows with the %s reader in %.1f ms", path, len(rows[0]), reader,
              (time.perf_counter() - began) * 1e3)
    return dataset


def _hour_cells(series: HourlySeries) -> list[str]:
    """The hours of ``series`` as :func:`format_hour` renders them, in one array operation.

    numpy writes a year below 1000 with four digits and ``strftime`` without
    leading zeros, so a series that starts before year 1000 keeps ``format_hour``.
    """
    if series.start.year < 1000:
        return [format_hour(series.timestamp_at(i)) for i in range(len(series))]
    hours = np.datetime64(series.start.replace(tzinfo=None), "h") + np.arange(len(series))
    return (np.datetime_as_string(hours, unit="m") + "Z").tolist()


def _cells(values: Iterable, floats: bool) -> list[str]:
    """One column's values as cells, in the one format picked for the column."""
    if isinstance(values, HourlySeries):
        return _hour_cells(values)
    values = values.tolist() if isinstance(values, np.ndarray) else list(values)
    present = next((v for v in values if v is not None), None)
    render = "{:.6f}".format if floats else format_hour if isinstance(present, datetime) else str
    return ["" if v is None else render(v) for v in values]


def csv_table(columns: Mapping[str, Iterable], floats: Collection[str] = ()) -> str:
    """The CSV text of a table: a header line of the column names, then one row per index.

    The columns named in ``floats`` are written at six decimal places. In
    the others a datetime is written as :func:`format_hour` renders it, and
    an integer or a text as it is. A column given as an :class:`HourlySeries`
    is that series' hours. A missing value (None) is an empty cell. Lines
    end in LF.
    """
    cells = [_cells(values, name in floats) for name, values in columns.items()]
    return "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n"


def write_text(path, text: str) -> None:
    """Write ``text`` to ``path`` in UTF-8 with LF line endings; IoError if that fails."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as out:
            out.write(text)
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_lmp_csv(dataset: MarketDataset, path) -> None:
    """Write a dataset in the load_lmp_csv schema."""
    da, rt = dataset.dalmp, dataset.rtlmp
    columns = dict(zip(_HEADER, (da, da.values, rt.values)))
    write_text(path, csv_table(columns, floats=_HEADER[1:]))


def export_plot_data(kind: str, path, **inputs) -> None:
    """Write plotting-ready CSV for correlograms, improvement curves, or overlays.

    ``acf_pacf`` needs ``series`` and optionally ``max_lag`` (default 48):
    columns ``lag,acf,pacf,band`` with the plus/minus band at ``2/sqrt(n)``.
    ``improvement_curve`` needs ``curves``, a mapping of model name to
    per-horizon improvement percentages: columns ``horizon,<name>...``.
    ``forecast_overlay`` needs aligned ``actual``, ``forecast`` and
    ``baseline`` series: columns ``timestamp,actual,forecast,baseline``.
    """
    if kind == "acf_pacf":
        series: HourlySeries = inputs["series"]
        max_lag = int(inputs.get("max_lag", 48))
        band = 2.0 / np.sqrt(len(series))
        columns = {"lag": range(max_lag + 1), "acf": sample_acf(series, max_lag),
                   "pacf": sample_pacf(series, max_lag), "band": [band] * (max_lag + 1)}
        floats = ("acf", "pacf", "band")
    elif kind == "improvement_curve":
        curves: Mapping[str, Sequence[float]] = inputs["curves"]
        if not curves:
            raise ValueError("improvement_curve needs at least one model")
        if "horizon" in curves:
            raise ValueError("a model named 'horizon' would replace the horizon column")
        horizons = len(next(iter(curves.values())))
        if any(len(curve) != horizons for curve in curves.values()):
            raise AlignmentError("improvement curves must cover the same horizons")
        columns, floats = {"horizon": range(1, horizons + 1), **curves}, curves
    elif kind == "forecast_overlay":
        actual: HourlySeries = inputs["actual"]
        forecast: HourlySeries = inputs["forecast"]
        baseline: HourlySeries = inputs["baseline"]
        require_aligned(actual, forecast)
        require_aligned(actual, baseline)
        columns = {"timestamp": actual, "actual": actual.values,
                   "forecast": forecast.values, "baseline": baseline.values}
        floats = ("actual", "forecast", "baseline")
    else:
        raise ValueError(f"unknown plot-data kind {kind!r}")
    write_text(path, csv_table(columns, floats))
