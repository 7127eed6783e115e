"""Exception hierarchy shared by all marketfacts modules, and the checks of config values."""

import contextlib
import math
import numbers


class MarketFactsError(Exception):
    """Base class for all errors raised by this package."""


class InsufficientData(MarketFactsError):
    """Not enough observations for the requested computation."""


class InvalidPrice(MarketFactsError):
    """A price series contains non-positive, non-finite or misaligned entries."""


class DegenerateSample(MarketFactsError):
    """The sample has zero variance (or degenerate range) where spread is required."""


class InsufficientTail(MarketFactsError):
    """Too few positive observations to form the requested tail fraction."""


class DegenerateTail(MarketFactsError):
    """All top-order statistics coincide with the tail threshold."""


class LagTooLarge(MarketFactsError):
    """Requested autocorrelation lag leaves fewer than two overlapping points."""


class InsufficientPositivePoints(MarketFactsError):
    """Fewer than five strictly positive points available for a log-log fit."""


class NumericalBlowup(MarketFactsError):
    """The simulated log price left the representable range.

    Carries the step index at which the run was aborted.
    """

    def __init__(self, message, step_index=None):
        super().__init__(message)
        self.step_index = step_index


class ConfigError(MarketFactsError):
    """A run configuration field is missing or invalid.

    ``field`` holds the dotted path of the offending entry.
    """

    def __init__(self, message, field=None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


def _at_least(value, low, field: str):
    """``value``, or a ConfigError naming ``field`` if it is below ``low`` (None: no bound)."""
    if low is not None and value < low:
        raise ConfigError(f"must be >= {low:g}, got {value!r}", field=field)
    return value


def finite_number(value, field: str, low: float | None = None) -> float:
    """``value``, a finite real number but not a bool and at least ``low``, as a float."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        with contextlib.suppress(OverflowError):  # an int beyond the float range
            if math.isfinite(number := float(value)):
                return _at_least(number, low, field)
    raise ConfigError(f"must be a finite number, got {value!r}", field=field)


def integer(value, field: str, low: int | None = None) -> int:
    """``value``, an integer but not a bool and at least ``low``, as an int."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return _at_least(int(value), low, field)
    raise ConfigError(f"must be of type int, got {value!r}", field=field)


class SchemaError(MarketFactsError):
    """An input file (price CSV, analysis manifest or simulation config) is
    not UTF-8, not valid JSON, or does not have the expected layout."""


class UnreadableFile(MarketFactsError):
    """An input file is missing or cannot be opened."""


class UnwritableOutput(MarketFactsError):
    """An output directory or file cannot be created or written."""


class InvalidWindow(MarketFactsError, ValueError):
    """A date-window bound is not a YYYY-MM-DD date, or the window starts
    after it ends."""


class EmptyWindow(MarketFactsError):
    """No usable rows remain after date filtering."""


class DuplicateDate(MarketFactsError):
    """The same calendar date appears on two rows of an input file."""
