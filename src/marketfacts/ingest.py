"""File-based ingestion of daily OHLC CSV data (stooq/yahoo layouts) into
validated :class:`~marketfacts.timeseries.PriceSeries`.

The layout is fixed: comma-delimited, a header row naming a ``Date`` column
of ISO ``YYYY-MM-DD`` dates, and the price in a column chosen by name
(``Open`` by default).
"""

from __future__ import annotations

import csv
import datetime as _dt
import io
import json
import math
from dataclasses import dataclass

from .errors import DuplicateDate, EmptyWindow, InvalidWindow, SchemaError, UnreadableFile
from .timeseries import PriceSeries


@dataclass(frozen=True)
class IngestReport:
    """Row accounting of one file read; rows_in = used + skipped + out_of_window."""

    rows_in: int
    rows_used: int
    rows_skipped: int
    rows_out_of_window: int


def _parse_date(text: str) -> _dt.date:
    """The date of a ``YYYY-MM-DD`` string; ValueError if it is not one.

    Accepts exactly what ``strptime(text.strip(), "%Y-%m-%d")`` accepts.
    ``date.fromisoformat`` is much faster but also takes ``2020-W01-1`` and
    ``20200105``, hence the shape guard; ``strptime`` also takes
    ``2020-1-05``, hence the fallback.
    """
    text = text.strip()
    if len(text) == 10 and text[4] == "-" and text[7] == "-":
        try:
            return _dt.date.fromisoformat(text)
        except ValueError:
            pass
    return _dt.datetime.strptime(text, "%Y-%m-%d").date()


def _window_date(value, name: str):
    """A window bound given as None, a ``datetime.date`` or an ISO date string.

    A ``datetime.datetime`` is a ``date`` too, but cannot be compared with one.
    """
    if value is None or (
        isinstance(value, _dt.date) and not isinstance(value, _dt.datetime)
    ):
        return value
    if isinstance(value, str):
        try:
            return _parse_date(value)
        except ValueError:
            pass
    raise InvalidWindow(f"{name}: {value!r} is not a YYYY-MM-DD date")


def _open(path, **kwargs):
    try:
        return open(path, "r", encoding="utf-8", **kwargs)
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc.strerror}") from exc


def read_prices_report(
    path,
    price_column: str = "Open",
    from_date=None,
    to_date=None,
) -> tuple[PriceSeries, IngestReport]:
    """Parse, window-filter and validate a daily price file.

    Window boundaries are inclusive; ``from_date``/``to_date`` may be ISO
    date strings or ``datetime.date``.  Rows whose price is missing,
    unparseable, non-finite or non-positive (or whose date is unparseable)
    are skipped and counted.  Duplicate dates are an error, not a dedup.
    """
    from_date = _window_date(from_date, "from")
    to_date = _window_date(to_date, "to")
    if from_date is not None and to_date is not None and from_date > to_date:
        raise InvalidWindow(f"from: window start {from_date} after end {to_date}")

    with _open(path, newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from exc

    reader = csv.reader(io.StringIO(text, newline=""))
    rows_in = rows_used = rows_skipped = rows_out = 0
    seen: dict = {}  # date -> line number
    records = []
    try:
        header = next(reader, None)
        if header is None:
            raise SchemaError(f"{path}: empty file, no header")
        header = [h.strip() for h in header]
        indices = []
        for column in ("Date", price_column):
            try:
                indices.append(header.index(column))
            except ValueError:
                raise SchemaError(f"{path}: column {column!r} not in header {header}") from None
        date_idx, price_idx = indices
        last_idx = max(indices)

        next_line = reader.line_num + 1
        for row in reader:
            # the line a record starts on; a quoted cell may span lines
            lineno, next_line = next_line, reader.line_num + 1
            if not any(map(str.strip, row)):
                continue
            rows_in += 1
            if last_idx >= len(row):
                rows_skipped += 1
                continue
            try:
                date = _parse_date(row[date_idx])
            except ValueError:
                rows_skipped += 1
                continue
            try:
                price = float(row[price_idx])
            except ValueError:
                rows_skipped += 1
                continue
            if not 0.0 < price < math.inf:
                rows_skipped += 1
                continue
            if date in seen:
                raise DuplicateDate(
                    f"{path}: date {date} on lines {seen[date]} and {lineno}"
                )
            seen[date] = lineno
            if (from_date is not None and date < from_date) or (
                to_date is not None and date > to_date
            ):
                rows_out += 1
                continue
            rows_used += 1
            records.append((date, price))
    except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
        raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from exc

    if not records:
        raise EmptyWindow(
            f"{path}: no usable rows in window [{from_date}, {to_date}]"
        )
    records.sort(key=lambda rec: rec[0])
    series = PriceSeries(
        dates=tuple(d for d, _ in records),
        prices=[p for _, p in records],
    )
    report = IngestReport(
        rows_in=rows_in,
        rows_used=rows_used,
        rows_skipped=rows_skipped,
        rows_out_of_window=rows_out,
    )
    return series, report


def read_prices(path, price_column: str = "Open", from_date=None, to_date=None) -> PriceSeries:
    series, _ = read_prices_report(path, price_column, from_date, to_date)
    return series


@dataclass(frozen=True)
class ManifestEntry:
    """One (label, file, window) item of a batch-analysis manifest."""

    label: str
    path: str
    from_date: str | None = None
    to_date: str | None = None
    price_column: str | None = None


_MANIFEST_KEYS = {"label", "path", "from", "to", "price_column"}


def load_manifest(path) -> list[ManifestEntry]:
    """Read a JSON manifest: a list of {label, path, from, to, price_column}.

    Any other key is a :class:`SchemaError`, so a misspelt ``from`` never
    silently widens the window."""
    with _open(path) as fh:
        try:
            doc = json.load(fh)
        except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
            raise SchemaError(f"{path}: manifest is not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise SchemaError(f"{path}: manifest must be a JSON list")
    entries = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or "label" not in item or "path" not in item:
            raise SchemaError(f"{path}: entry {i} needs 'label' and 'path'")
        unknown = sorted(item.keys() - _MANIFEST_KEYS)
        if unknown:
            raise SchemaError(f"{path}: entry {i}: unknown key(s) {unknown}")
        entries.append(
            ManifestEntry(
                label=str(item["label"]),
                path=str(item["path"]),
                from_date=item.get("from"),
                to_date=item.get("to"),
                price_column=item.get("price_column"),
            )
        )
    return entries
