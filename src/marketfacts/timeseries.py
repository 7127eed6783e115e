"""Dated price records and the log returns derived from them."""

from __future__ import annotations

import datetime as _dt
import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, InvalidPrice


def _readonly(values) -> np.ndarray:
    """``values`` as a read-only float array: a read-only float array is
    shared, anything else is built into a new array once."""
    if (type(values) is np.ndarray and values.dtype == np.float64
            and not values.flags.writeable):
        return values
    arr = np.array(values, dtype=float)
    arr.setflags(write=False)
    return arr


def _is_date_type(kind) -> bool:
    """A ``datetime.datetime`` is a ``date`` too, but cannot be compared with one."""
    return issubclass(kind, _dt.date) and not issubclass(kind, _dt.datetime)


@dataclass(frozen=True)
class PriceSeries:
    """Daily prices of a single asset, strictly positive and strictly dated.

    Validation happens here, once: anything that needs cleaning (missing
    rows, zero prices) must be handled upstream in :mod:`marketfacts.ingest`.
    """

    dates: tuple
    prices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "dates", tuple(self.dates))
        object.__setattr__(self, "prices", _readonly(self.prices))
        if len(self.dates) != len(self.prices):
            raise InvalidPrice(
                f"{len(self.dates)} dates but {len(self.prices)} prices"
            )
        # each check scans in C; only a failed scan looks for the entry to name
        if not all(map(_is_date_type, set(map(type, self.dates)))):
            d = next(d for d in self.dates if not _is_date_type(type(d)))
            kind = "a datetime.datetime, not" if isinstance(d, _dt.datetime) else "not"
            raise InvalidPrice(f"date entry {d!r} is {kind} a datetime.date")
        if any(map(operator.ge, self.dates, itertools.islice(self.dates, 1, None))):
            a, b = next((a, b) for a, b in itertools.pairwise(self.dates) if a >= b)
            raise InvalidPrice(f"dates not strictly increasing at {a} -> {b}")
        if self.prices.size and (
            not np.all(np.isfinite(self.prices)) or np.any(self.prices <= 0.0)
        ):
            raise InvalidPrice("every price must be finite and > 0")

    def __len__(self) -> int:
        return len(self.prices)


def log_returns(prices: PriceSeries) -> np.ndarray:
    """Log returns r_k = ln(p_{k+1}) - ln(p_k) of a price series, as a
    read-only float array without dates: every statistic is index-based,
    so date alignment stays with :class:`PriceSeries`."""
    if len(prices) < 2:
        raise InsufficientData(
            f"need at least 2 prices for returns, got {len(prices)}"
        )
    p = prices.prices
    # log1p of the relative change keeps full relative precision even when
    # consecutive prices are nearly equal (plain log differences do not)
    with np.errstate(over="ignore", divide="ignore"):
        values = np.log1p(np.diff(p) / p[:-1])
    # a price ratio past the float range gives +-inf there; the difference
    # of the two logs is finite for any two positive finite prices
    bad = ~np.isfinite(values)
    if bad.any():
        values[bad] = np.log(p[1:][bad]) - np.log(p[:-1][bad])
    values.setflags(write=False)
    return values


def absolute_returns(returns) -> np.ndarray:
    """Elementwise absolute value of a return array, read-only."""
    values = np.abs(np.asarray(returns, dtype=float))
    values.setflags(write=False)
    return values
