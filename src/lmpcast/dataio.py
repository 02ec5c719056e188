"""CSV ingestion, the seeded synthetic market generator, and plot-data export.

The CSV schema is a single header line ``timestamp,dalmp,rtlmp`` followed
by one row per hour: ISO-8601 UTC whole-hour timestamps and plain decimal
prices. Files are UTF-8 with LF line endings and prices serialize at six
decimal places.

The synthetic market builds a day-ahead price path and a differential path
from configured models, sets ``rtlmp = dalmp - delta`` so the pipeline's
reconstruction is a strict inverse, and optionally injects two-sided
spikes into the real-time series so downstream clipping has something to
remove.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass
from datetime import datetime
from typing import Mapping, Sequence

import numpy as np

from .arima import DEFAULT_ORIGIN, ModelSpec, ParameterVector, check_conforms, simulate
from .errors import AlignmentError, GapError, IoError, ParseError, SchemaError
from .series import (
    HOUR,
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
        return MarketDataset(
            self.dalmp.window(index, length), self.rtlmp.window(index, length), self.node
        )


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


def load_lmp_csv(path, gap_policy: str = "reject", node: str = "NODE") -> MarketDataset:
    """Read a dataset from CSV, validating hourly continuity.

    Rows are sorted by timestamp; duplicated hours are averaged (logged).
    Missing hours either raise GapError (``gap_policy="reject"``) or repeat
    the previous row's prices (``"forward-fill"``, logged).
    """
    if gap_policy not in ("reject", "forward-fill"):
        raise ValueError(f"gap_policy must be 'reject' or 'forward-fill', got {gap_policy!r}")
    rows: list[tuple[datetime, float, float]] = []
    try:
        handle = open(path, encoding="utf-8", newline="")
    except OSError as exc:
        raise IoError(f"cannot read {path}: {exc}") from exc
    with handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        if header != _HEADER:
            raise SchemaError(f"expected header {','.join(_HEADER)!r}, got {header!r}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 3:
                raise ParseError(f"line {lineno}: expected 3 fields, got {len(row)}")
            try:
                ts = parse_hour(row[0])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: {exc}") from exc
            try:
                da, rt = float(row[1]), float(row[2])
            except ValueError as exc:
                raise ParseError(f"line {lineno}: bad price field: {exc}") from exc
            if not (math.isfinite(da) and math.isfinite(rt)):
                raise ParseError(f"line {lineno}: price fields must be finite, got {row[1]!r}, {row[2]!r}")
            rows.append((ts, da, rt))
    if not rows:
        raise SchemaError(f"{path}: no data rows")

    rows.sort(key=lambda r: r[0])
    deduped: list[tuple[datetime, float, float]] = []
    duplicate_hours = 0
    i = 0
    while i < len(rows):
        j = i
        while j + 1 < len(rows) and rows[j + 1][0] == rows[i][0]:
            j += 1
        if j > i:
            duplicate_hours += 1
            da = sum(r[1] for r in rows[i : j + 1]) / (j - i + 1)
            rt = sum(r[2] for r in rows[i : j + 1]) / (j - i + 1)
            deduped.append((rows[i][0], da, rt))
        else:
            deduped.append(rows[i])
        i = j + 1
    if duplicate_hours:
        log.warning("%s: averaged %d duplicated hour(s)", path, duplicate_hours)

    filled: list[tuple[datetime, float, float]] = [deduped[0]]
    gap_hours = 0
    for row in deduped[1:]:
        expected = filled[-1][0] + HOUR
        while row[0] > expected:
            if gap_policy == "reject":
                raise GapError(f"missing hour {format_hour(expected)}")
            filled.append((expected, filled[-1][1], filled[-1][2]))
            gap_hours += 1
            expected += HOUR
        filled.append(row)
    if gap_hours:
        log.warning("%s: forward-filled %d missing hour(s)", path, gap_hours)

    start = filled[0][0]
    da_values = np.array([r[1] for r in filled])
    rt_values = np.array([r[2] for r in filled])
    return MarketDataset(
        HourlySeries(start, da_values, UNITS_PRICE),
        HourlySeries(start, rt_values, UNITS_PRICE),
        node,
    )


def _open_out(path):
    try:
        return open(path, "w", encoding="utf-8", newline="\n")
    except OSError as exc:
        raise IoError(f"cannot write {path}: {exc}") from exc


def write_lmp_csv(dataset: MarketDataset, path) -> None:
    """Write a dataset in the load_lmp_csv schema, six decimal places."""
    with _open_out(path) as out:
        out.write(",".join(_HEADER) + "\n")
        for t in range(len(dataset)):
            ts = format_hour(dataset.dalmp.timestamp_at(t))
            out.write(f"{ts},{dataset.dalmp.values[t]:.6f},{dataset.rtlmp.values[t]:.6f}\n")


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
        acf = sample_acf(series, max_lag)
        pacf = sample_pacf(series, max_lag)
        band = 2.0 / np.sqrt(len(series))
        with _open_out(path) as out:
            out.write("lag,acf,pacf,band\n")
            for lag in range(max_lag + 1):
                out.write(f"{lag},{acf[lag]:.6f},{pacf[lag]:.6f},{band:.6f}\n")
    elif kind == "improvement_curve":
        curves: Mapping[str, Sequence[float]] = inputs["curves"]
        if not curves:
            raise ValueError("improvement_curve needs at least one model")
        names = list(curves)
        horizons = len(curves[names[0]])
        if any(len(curves[name]) != horizons for name in names):
            raise AlignmentError("improvement curves must cover the same horizons")
        with _open_out(path) as out:
            out.write("horizon," + ",".join(names) + "\n")
            for h in range(horizons):
                cells = ",".join(f"{curves[name][h]:.6f}" for name in names)
                out.write(f"{h + 1},{cells}\n")
    elif kind == "forecast_overlay":
        actual: HourlySeries = inputs["actual"]
        forecast: HourlySeries = inputs["forecast"]
        baseline: HourlySeries = inputs["baseline"]
        require_aligned(actual, forecast)
        require_aligned(actual, baseline)
        with _open_out(path) as out:
            out.write("timestamp,actual,forecast,baseline\n")
            for t in range(len(actual)):
                out.write(
                    f"{format_hour(actual.timestamp_at(t))},{actual.values[t]:.6f},"
                    f"{forecast.values[t]:.6f},{baseline.values[t]:.6f}\n"
                )
    else:
        raise ValueError(f"unknown plot-data kind {kind!r}")
