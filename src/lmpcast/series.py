"""Calendar-anchored hourly series and the preprocessing transforms.

The central type is :class:`HourlySeries`: an immutable, gap-free hourly
sequence anchored to a UTC whole-hour start. All operations return new
series; nothing mutates in place, so instances are safe to share across
threads.

Price units are carried as a metadata string (``"$/MWh"``,
``"log-transformed"`` or ``"dimensionless"``) so that the log transform and
its inverse can refuse to run on the wrong scale.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from typing import Sequence

import numpy as np

from .errors import (
    AlignmentError,
    DegenerateSeries,
    NonPositiveArgument,
)

__all__ = [
    "HourlySeries",
    "ClipBounds",
    "LogOffset",
    "UNITS_PRICE",
    "UNITS_LOG",
    "UNITS_NONE",
    "format_hour",
    "parse_hour",
    "concat",
    "clip_prices",
    "log_transform",
    "clip_and_log",
    "inverse_log_transform",
    "delta_lmp",
    "reconstruct_rtlmp",
    "weekend_indicator",
    "sample_acf",
    "sample_pacf",
]

UNITS_PRICE = "$/MWh"
UNITS_LOG = "log-transformed"
UNITS_NONE = "dimensionless"

HOUR = timedelta(hours=1)


def _check_whole_hour(ts: datetime) -> datetime:
    if ts.tzinfo is timezone.utc and not (ts.minute or ts.second or ts.microsecond):
        return ts  # what astimezone returns for it
    if ts.tzinfo is None or ts.utcoffset() != timedelta(0):
        raise ValueError(f"timestamp must be timezone-aware UTC: {ts!r}")
    if ts.minute or ts.second or ts.microsecond:
        raise ValueError(f"timestamp must be a whole hour: {ts!r}")
    return ts.astimezone(timezone.utc)


@dataclass(frozen=True, eq=False)
class HourlySeries:
    """Hourly sequence of real values anchored at a UTC whole-hour start.

    Index ``t`` of :attr:`values` corresponds to ``start + t`` hours. Values
    are stored as a read-only float64 array; construction rejects empty,
    NaN or infinite data (gaps are repaired or rejected at ingestion, never
    represented here).
    """

    start: datetime
    values: np.ndarray
    units: str = UNITS_PRICE

    def __post_init__(self) -> None:
        object.__setattr__(self, "start", _check_whole_hour(self.start))
        arr = np.array(self.values, dtype=np.float64, copy=True).reshape(-1)
        if arr.size == 0:
            raise ValueError("HourlySeries requires at least one value")
        if not np.isfinite(arr).all():
            raise ValueError("HourlySeries values must be finite (no NaN/inf)")
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)

    def __len__(self) -> int:
        return int(self.values.shape[0])

    @property
    def end(self) -> datetime:
        """First hour after the series (exclusive)."""
        return self.start + HOUR * len(self)

    def timestamp_at(self, index: int) -> datetime:
        return self.start + HOUR * index

    def index_of(self, ts: datetime) -> int:
        """Index of ``ts`` in this series; raises AlignmentError if outside."""
        ts = _check_whole_hour(ts)
        offset = (ts - self.start) / HOUR
        idx = int(offset)
        if offset != idx or not 0 <= idx < len(self):
            raise AlignmentError(f"{format_hour(ts)} is not an hour of this series")
        return idx

    def window(self, index: int, length: int) -> "HourlySeries":
        """Sub-series of ``length`` hours beginning at ``index``.

        The window shares this series' read-only values, which are already
        checked, so taking one costs the same at any length.
        """
        if index < 0 or length < 1 or index + length > len(self):
            raise AlignmentError(
                f"window [{index}, {index + length}) outside series of length {len(self)}"
            )
        sub = object.__new__(HourlySeries)
        object.__setattr__(sub, "start", self.timestamp_at(index))
        object.__setattr__(sub, "values", self.values[index : index + length])
        object.__setattr__(sub, "units", self.units)
        return sub

    def with_values(self, values: np.ndarray, units: str | None = None) -> "HourlySeries":
        """Same calendar anchor, new values (and optionally new units)."""
        return HourlySeries(self.start, values, self.units if units is None else units)

    def same_calendar(self, other: "HourlySeries") -> bool:
        return self.start == other.start and len(self) == len(other)


def require_aligned(a: HourlySeries, b: HourlySeries) -> None:
    if not a.same_calendar(b):
        raise AlignmentError(
            f"series are not aligned: [{format_hour(a.start)}, n={len(a)}] vs "
            f"[{format_hour(b.start)}, n={len(b)}]"
        )


def format_hour(ts: datetime) -> str:
    """Render a whole hour as ``2015-01-05T00:00Z``."""
    return _check_whole_hour(ts).strftime("%Y-%m-%dT%H:%MZ")


# the canonical form format_hour writes, ASCII digits only
_CANONICAL_HOUR = re.compile(r"([0-9]{4})-([0-9]{2})-([0-9]{2})T([0-9]{2}):([0-9]{2})Z")


def parse_hour(text: str) -> datetime:
    """Parse an ISO-8601 UTC whole hour (``...T00:00Z``, seconds optional).

    The canonical ``YYYY-MM-DDTHH:MMZ`` form is built directly; every other
    string, and a canonical one with an out-of-range field, goes through
    ``strptime``, which alone decides what else is accepted.
    """
    match = _CANONICAL_HOUR.fullmatch(text) if isinstance(text, str) else None
    if match is not None:
        try:
            parsed = datetime(*map(int, match.groups()), tzinfo=timezone.utc)
        except ValueError:
            pass
        else:
            return _check_whole_hour(parsed)
    for pattern in ("%Y-%m-%dT%H:%MZ", "%Y-%m-%dT%H:%M:%SZ"):
        try:
            parsed = datetime.strptime(text, pattern)
        except ValueError:
            continue
        return _check_whole_hour(parsed.replace(tzinfo=timezone.utc))
    raise ValueError(f"not an ISO-8601 UTC whole hour: {text!r}")


def concat(first: HourlySeries, second: HourlySeries) -> HourlySeries:
    """Join two back-to-back series into one."""
    if second.start != first.end:
        raise AlignmentError(
            f"series are not contiguous: first ends {format_hour(first.end)}, "
            f"second starts {format_hour(second.start)}"
        )
    if first.units != second.units:
        raise ValueError(f"units differ: {first.units!r} vs {second.units!r}")
    return HourlySeries(first.start, np.concatenate([first.values, second.values]), first.units)


@dataclass(frozen=True)
class ClipBounds:
    """Upper/lower clamp for removing price spikes, in $/MWh."""

    ub: float
    lb: float

    def __post_init__(self) -> None:
        if not self.lb < self.ub:
            raise ValueError(f"require LB < UB, got LB={self.lb}, UB={self.ub}")


@dataclass(frozen=True)
class LogOffset:
    """Positive constant added before taking the natural logarithm."""

    c: float

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise ValueError(f"log offset must be positive, got {self.c}")


def clip_prices(series: HourlySeries, bounds: ClipBounds) -> HourlySeries:
    """Clamp every value into [LB, UB]; calendar and units unchanged.

    Idempotent: clipping a clipped series is a no-op.
    """
    return series.with_values(np.clip(series.values, bounds.lb, bounds.ub))


def log_transform(series: HourlySeries, offset: LogOffset) -> HourlySeries:
    """Elementwise ``ln(value + c)``; marks the result as log-transformed.

    Raises NonPositiveArgument if any shifted value is <= 0.
    """
    shifted = series.values + offset.c
    if np.any(shifted <= 0.0):
        worst = float(series.values.min())
        raise NonPositiveArgument(
            f"log transform needs min(value) + c > 0; min value {worst} with c={offset.c}"
        )
    return series.with_values(np.log(shifted), units=UNITS_LOG)


def clip_and_log(series: HourlySeries, clip: ClipBounds | None, offset: LogOffset | None) -> HourlySeries:
    """:func:`clip_prices` then :func:`log_transform`, each skipped when not configured."""
    if clip is not None:
        series = clip_prices(series, clip)
    if offset is not None:
        series = log_transform(series, offset)
    return series


def inverse_log_transform(series: HourlySeries, offset: LogOffset) -> HourlySeries:
    """Elementwise ``exp(value) - c``, undoing :func:`log_transform`."""
    if series.units != UNITS_LOG:
        raise ValueError(f"series is not log-transformed (units={series.units!r})")
    return series.with_values(np.exp(series.values) - offset.c, units=UNITS_PRICE)


def delta_lmp(dalmp: HourlySeries, rtlmp: HourlySeries) -> HourlySeries:
    """Differential series: day-ahead price minus realized real-time price."""
    require_aligned(dalmp, rtlmp)
    return dalmp.with_values(dalmp.values - rtlmp.values)


def reconstruct_rtlmp(dalmp_future: HourlySeries, delta_forecast: HourlySeries) -> HourlySeries:
    """Real-time price forecast: published day-ahead price minus the differential forecast."""
    require_aligned(dalmp_future, delta_forecast)
    return dalmp_future.with_values(dalmp_future.values - delta_forecast.values)


def weekend_indicator(start: datetime, length: int) -> HourlySeries:
    """1.0 for weekday hours (Mon 00:00 - Fri 23:00), 0.0 for Saturday/Sunday.

    Uses the civil calendar of the UTC timestamp, so any start day works; a
    Monday-anchored week yields the canonical 120 ones followed by 48 zeros.
    """
    start = _check_whole_hour(start)
    if length < 1:
        raise ValueError("length must be >= 1")
    base = start.weekday() * 24 + start.hour
    hours_into_week = (base + np.arange(length)) % 168
    values = (hours_into_week < 120).astype(np.float64)
    return HourlySeries(start, values, UNITS_NONE)


def _autocovariances(x: np.ndarray, lags: np.ndarray) -> np.ndarray:
    """Biased (divide-by-n) sample autocovariances at each of ``lags``."""
    n = x.shape[0]
    centered = x - x.mean()
    return np.array([np.dot(centered[k:], centered[: n - k]) / n for k in lags])


def sample_acf(series: HourlySeries, max_lag: int) -> list[float]:
    """Sample autocorrelations for lags 0..max_lag (biased estimator).

    The divide-by-n estimator keeps the autocovariance sequence positive
    semidefinite, so every value lies in [-1, 1] and lag 0 is exactly 1.
    """
    n = len(series)
    if not 0 <= max_lag < n:
        raise ValueError(f"max_lag must satisfy 0 <= max_lag < n, got {max_lag} with n={n}")
    gamma = _autocovariances(series.values, np.arange(max_lag + 1))
    if gamma[0] <= 0.0:
        raise DegenerateSeries("series has zero variance; autocorrelation undefined")
    return [float(g / gamma[0]) for g in gamma]


def sample_pacf(series: HourlySeries, max_lag: int) -> list[float]:
    """Sample partial autocorrelations for lags 0..max_lag.

    Computed by the Durbin-Levinson recursion on the sample ACF; lag 0 is 1
    by convention and lag 1 equals the lag-1 autocorrelation.
    """
    return [1.0, *_durbin_levinson(sample_acf(series, max_lag))]


def _levinson(r: Sequence[float], a: Sequence[float] = ()) -> list[float]:
    """Levinson recursion: step the factor coefficients ``a`` up by each partial autocorrelation in ``r``."""
    for rk in r:
        a = [x - rk * y for x, y in zip(a, reversed(a))] + [rk]
    return list(a)


def _durbin_levinson(gamma: Sequence[float]) -> list[float]:
    """Partial autocorrelations at lags 1..k from autocovariances at lags 0..k.

    Durbin-Levinson: ``r_k = (g_k - sum_j a_j g_{k-j}) / v_{k-1}`` with ``a``
    the order-(k-1) coefficients and ``v_{k-1}`` their innovation variance.
    DegenerateSeries where that variance is not positive.
    """
    a, r, v = [], [], gamma[0]
    for m in range(1, len(gamma)):
        if not v > 0.0:
            raise DegenerateSeries(f"Durbin-Levinson breakdown at lag {m} (non-positive innovation variance)")
        rk = (gamma[m] - sum(x * g for x, g in zip(a, gamma[m - 1 : 0 : -1]))) / v
        a, v = _levinson([rk], a), v * (1.0 - rk * rk)
        r.append(rk)
    return r
