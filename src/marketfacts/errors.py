"""Exception hierarchy shared by all marketfacts modules."""


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


class NoAgents(MarketFactsError):
    """An aggregation was requested over an empty agent population."""


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


class SchemaError(MarketFactsError):
    """An input file (price CSV or analysis manifest) does not have the
    expected layout."""


class UnreadableFile(MarketFactsError):
    """An input file is missing or cannot be opened."""


class InvalidWindow(MarketFactsError, ValueError):
    """A date-window bound is not a YYYY-MM-DD date, or the window starts
    after it ends."""


class EmptyWindow(MarketFactsError):
    """No usable rows remain after date filtering."""


class DuplicateDate(MarketFactsError):
    """The same calendar date appears on two rows of an input file."""
