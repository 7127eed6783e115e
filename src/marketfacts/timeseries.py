"""Core time-series types: dated price records and log-return sequences."""

from __future__ import annotations

import datetime as _dt
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientData, InvalidKind, InvalidPrice

RAW = "raw"
ABSOLUTE = "absolute"


def _readonly(values) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    arr = arr.copy() if arr.flags.writeable else arr
    arr.setflags(write=False)
    return arr


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
        for d in self.dates:
            if not isinstance(d, _dt.date):
                raise InvalidPrice(f"date entry {d!r} is not a datetime.date")
        for a, b in zip(self.dates, self.dates[1:]):
            if a >= b:
                raise InvalidPrice(f"dates not strictly increasing at {a} -> {b}")
        if self.prices.size and (
            not np.all(np.isfinite(self.prices)) or np.any(self.prices <= 0.0)
        ):
            raise InvalidPrice("every price must be finite and > 0")

    def __len__(self) -> int:
        return len(self.prices)


@dataclass(frozen=True)
class ReturnSeries:
    """A plain sequence of log returns, without dates.

    All downstream statistics are index-based, so date alignment stays with
    :class:`PriceSeries` only.
    """

    values: np.ndarray
    kind: str = RAW

    def __post_init__(self):
        object.__setattr__(self, "values", _readonly(self.values))
        if self.kind not in (RAW, ABSOLUTE):
            raise InvalidKind(f"kind must be {RAW!r} or {ABSOLUTE!r}, got {self.kind!r}")
        if self.kind == ABSOLUTE and self.values.size and np.any(self.values < 0.0):
            raise InvalidKind("absolute return series contains negative values")

    def __len__(self) -> int:
        return len(self.values)


def log_returns(prices: PriceSeries) -> ReturnSeries:
    """Log returns r_k = ln(p_{k+1}) - ln(p_k) of a price series."""
    if len(prices) < 2:
        raise InsufficientData(
            f"need at least 2 prices for returns, got {len(prices)}"
        )
    p = prices.prices
    # log1p of the relative change keeps full relative precision even when
    # consecutive prices are nearly equal (plain log differences do not)
    values = np.log1p(np.diff(p) / p[:-1])
    return ReturnSeries(values, kind=RAW)


def absolute_returns(returns: ReturnSeries) -> ReturnSeries:
    """Elementwise absolute value of a raw return series."""
    if returns.kind != RAW:
        raise InvalidKind("absolute_returns expects a raw return series")
    return ReturnSeries(np.abs(returns.values), kind=ABSOLUTE)
