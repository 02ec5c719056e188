"""Exception types raised across the toolkit, and the reader of JSON objects.

Every error inherits from :class:`LmpcastError` so callers (notably the CLI)
can catch toolkit failures in one place while letting programming errors
propagate. :func:`read_fields` reads a JSON object through a field table,
raising :class:`SchemaError` naming the key path of whatever it rejects.
"""

from typing import Any, Mapping, NamedTuple


class LmpcastError(Exception):
    """Base class for all toolkit errors."""


class AlignmentError(LmpcastError):
    """Two series that must share a calendar (start and length) do not."""


class NonPositiveArgument(LmpcastError):
    """A log transform was asked to take the log of a non-positive value."""


class DegenerateSeries(LmpcastError):
    """A series has zero variance where variation is required."""


class SeriesTooShort(LmpcastError):
    """A series is shorter than an operation's minimum length."""


class InsufficientPresample(LmpcastError):
    """Integration was given fewer presample values than the differencing order needs."""


class UnstableParameters(LmpcastError):
    """AR or MA polynomial has a root on or inside the unit circle."""


class MissingExogenousFuture(LmpcastError):
    """A forecast with exogenous regressors lacks future regressor values."""


class InvalidParameters(LmpcastError):
    """Conditional-variance parameters violate positivity or stationarity constraints."""


class EstimationFailed(LmpcastError):
    """Numerical likelihood maximization did not produce a usable fit."""


class AllTermsExcluded(LmpcastError):
    """Every term of the improvement index fell below the denominator threshold."""


class MismatchedWindows(LmpcastError):
    """Backtest reports being compared do not share a test window or horizon set."""


class ParseError(LmpcastError):
    """A data file row could not be parsed."""


class GapError(LmpcastError):
    """Hourly data has a missing hour and the gap policy is to reject."""


class SchemaError(LmpcastError):
    """A data file does not match the expected schema."""


class MissingKey(SchemaError):
    """A JSON object lacks a required key."""

    def __init__(self, path: str, key: str) -> None:
        super().__init__(f"{path}{key} is missing")
        self.key = key


class IoError(LmpcastError):
    """A file could not be written."""


# ---------------------------------------------------------------------------
# field tables: each key of a JSON object mapped to the reader of its value


def integer(value: Any) -> int:
    """A JSON integer; an integral number such as ``2.0`` reads as one, a boolean does not."""
    if isinstance(value, bool) or not (isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise TypeError("expected an integer")
    return int(value)


def non_negative_integer(value: Any) -> int:
    """A JSON integer that is zero or more, such as a random seed."""
    value = integer(value)
    if value < 0:
        raise ValueError("expected a non-negative integer")
    return value


def number(value: Any) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    return float(value)


def boolean(value: Any) -> bool:
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def text(value: Any) -> str:
    if not isinstance(value, str):
        raise TypeError("expected a string")
    return value


def list_of(read: Any) -> Any:
    """The reader of a JSON list whose items ``read`` reads, giving a tuple."""

    def read_list(value: Any) -> tuple:
        if not isinstance(value, (list, tuple)):
            raise TypeError("expected a list")
        return tuple(map(read, value))

    return read_list


numbers = list_of(number)


class Field(NamedTuple):
    """A field-table entry that may be absent or null: ``read`` is a reader or
    a nested table, an ``optional`` key may be missing (it is then left out of
    the result) and a ``nullable`` value may be null (it then reads as None)."""

    read: Any
    optional: bool = False
    nullable: bool = False


def read_fields(block: Any, path: str, fields: Mapping[str, Any]) -> dict[str, Any]:
    """The values of ``block``'s keys in the field table ``fields``, each by its
    reader; a nested table reads a nested object, and other keys are ignored.

    A missing key raises :class:`MissingKey`, a rejected value a
    :class:`SchemaError` naming its key path (``path`` prefixes every key).
    """
    if not isinstance(block, Mapping):
        raise SchemaError(f"{path.rstrip('.') or 'JSON document'} must be an object, got {block!r}")
    out = {}
    for key, entry in fields.items():
        field = entry if isinstance(entry, Field) else Field(entry)
        if key not in block:
            if not field.optional:
                raise MissingKey(path, key)
        elif block[key] is None and field.nullable:
            out[key] = None
        elif isinstance(field.read, Mapping):
            out[key] = read_fields(block[key], f"{path}{key}.", field.read)
        else:
            try:
                out[key] = field.read(block[key])
            except (TypeError, ValueError, OverflowError) as exc:
                raise SchemaError(f"{path}{key} = {block[key]!r}: {exc}") from None
    return out
