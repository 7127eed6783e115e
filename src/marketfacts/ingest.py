"""The one module that reads input files: daily OHLC price CSVs
(stooq/yahoo layouts) into validated :class:`~marketfacts.timeseries.PriceSeries`,
and the JSON of analysis manifests and simulation configs.

Every file is UTF-8; a leading byte order mark reads as absent, and a byte
offset counts from the start of the file.  The price layout is fixed:
comma-delimited, a header row naming a ``Date`` column of ISO ``YYYY-MM-DD``
dates, and the price in a column chosen by name (``Open`` by default).

Every input file (price file, manifest or config) is opened once, checked
to be UTF-8 64 KB at a time, then decoded 8 KB at a time, so it is never
held whole; a file that cannot be rewound (a pipe, such as bash's ``<(…)``)
is held once in memory.  A price read's memory is the date, price and line
number of each row that parses, in the window or not; a map from each date
to its line is built only for a file whose dates do not increase.  A
manifest ``path`` that holds a NUL character is a :class:`SchemaError`.
"""

from __future__ import annotations

import array
import bisect
import codecs
import contextlib
import csv
import datetime as _dt
import io
import json
import math
from dataclasses import dataclass

from .errors import DuplicateDate, EmptyWindow, InvalidWindow, SchemaError, UnreadableFile
from .timeseries import PriceSeries, _is_date_type


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
    """A window bound given as None, a ``datetime.date`` (not a
    ``datetime.datetime``) or an ISO date string."""
    if value is None or _is_date_type(type(value)):
        return value
    if isinstance(value, str):
        try:
            return _parse_date(value)
        except ValueError:
            pass
    raise InvalidWindow(f"{name}: {value!r} is not a YYYY-MM-DD date")


# bytes of a file read and decoded at a time to check that it is UTF-8
_CHECK_CHUNK = 1 << 16


def _check_utf8(path, fh) -> None:
    """Read binary handle ``fh`` to its end and raise a :class:`SchemaError`
    naming its first byte that is not UTF-8, counted from where ``fh`` began
    (a byte order mark is UTF-8)."""
    start, pending = 0, b""  # pending starts at byte `start`
    while True:
        chunk = fh.read(_CHECK_CHUNK)
        data = pending + chunk
        try:
            # a character cut by the chunk's end is left for the next chunk
            used = codecs.utf_8_decode(data, "strict", not chunk)[1]
        except UnicodeDecodeError as exc:
            raise SchemaError(
                f"{path}: not UTF-8 text: {exc.reason} at byte {start + exc.start}"
            ) from exc
        if not chunk:
            return
        start, pending = start + used, data[used:]


def _lines(fh):
    """The lines of checked UTF-8 binary handle ``fh``, split at ``\\r``,
    ``\\n`` and ``\\r\\n`` as ``io.StringIO(text, newline="")`` splits them; a
    leading byte order mark reads as absent.  They are read and decoded 8 KB
    at a time."""
    return io.TextIOWrapper(fh, encoding="utf-8-sig", newline="")


@contextlib.contextmanager
def _open(path):
    """The lines of UTF-8 input file ``path``, as :func:`_lines` gives them,
    once :func:`_check_utf8` has passed the whole file; the file is closed
    on leaving.  A file that cannot be rewound (a pipe) is held once in
    memory, since it can be read only once.  An OSError while the file is
    opened or read is an :class:`UnreadableFile` naming the path."""
    try:
        with open(path, "rb") as fh:
            data = fh if fh.seekable() else io.BytesIO(fh.read())
            _check_utf8(path, data)
            data.seek(0)
            yield _lines(data)
    except OSError as exc:
        raise UnreadableFile(f"{path}: {exc.strerror or exc}") from exc


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

    rows_skipped = 0
    # every row that parses, in file order: its date, price and first line
    dates, prices, lines = [], array.array("d"), array.array("q")
    last = _dt.date.min  # the last date, while dates increase
    seen = None  # date -> line, built at the first date that does not increase
    with _open(path) as text:
        reader = csv.reader(text)
        try:
            header = next(reader, None)
            if header is None:
                raise SchemaError(f"{path}: empty file, no header")
            header = [h.strip() for h in header]
            for column in ("Date", price_column):
                if column not in header:
                    raise SchemaError(f"{path}: column {column!r} not in header {header}")
            date_idx, price_idx = header.index("Date"), header.index(price_column)

            next_line = reader.line_num + 1
            for row in reader:
                # the line a record starts on; a quoted cell may span lines
                lineno, next_line = next_line, reader.line_num + 1
                try:  # IndexError: the row is too short for one of the columns
                    date = _parse_date(row[date_idx])
                    price = float(row[price_idx])
                    if not 0.0 < price < math.inf:
                        raise ValueError(price)
                except (IndexError, ValueError):
                    if any(map(str.strip, row)):  # a blank row is not counted
                        rows_skipped += 1
                    continue
                if seen is None and date > last:  # later than every date before it
                    last = date
                else:
                    if seen is None:
                        seen = dict(zip(dates, lines))
                    if date in seen:
                        raise DuplicateDate(
                            f"{path}: date {date} on lines {seen[date]} and {lineno}"
                        )
                    seen[date] = lineno
                dates.append(date)
                prices.append(price)
                lines.append(lineno)
        except csv.Error as exc:  # e.g. a field over csv.field_size_limit()
            raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:  # the file changed after its check
            raise SchemaError(f"{path}: not UTF-8 text: {exc.reason}") from exc

    parsed = len(dates)
    if seen is not None:  # a date did not increase: sort the rows by date
        del seen
        order = sorted(range(parsed), key=dates.__getitem__)
        dates = [dates[k] for k in order]
        prices = array.array("d", map(prices.__getitem__, order))
    # the window, cut in place from the sorted dates
    end = parsed if to_date is None else bisect.bisect_right(dates, to_date)
    del dates[end:], prices[end:]
    start = 0 if from_date is None else bisect.bisect_left(dates, from_date)
    del dates[:start], prices[:start]
    if not dates:
        raise EmptyWindow(
            f"{path}: no usable rows in window [{from_date}, {to_date}]"
        )
    report = IngestReport(
        rows_in=parsed + rows_skipped,
        rows_used=len(dates),
        rows_skipped=rows_skipped,
        rows_out_of_window=parsed - len(dates),
    )
    return PriceSeries(dates=dates, prices=prices), report


def read_prices(path, price_column: str = "Open", from_date=None, to_date=None) -> PriceSeries:
    series, _ = read_prices_report(path, price_column, from_date, to_date)
    return series


def read_json(path):
    """The JSON document of a UTF-8 file.  A document that does not parse, or
    an object that repeats a key, is a :class:`SchemaError` naming the path."""
    def unique_keys(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise SchemaError(f"{path}: key {key!r} repeated in one object")
            doc[key] = value
        return doc

    try:
        with _open(path) as text:
            return json.load(text, object_pairs_hook=unique_keys)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deep
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


# manifest key -> the read_prices keyword it sets
_READ_ARGS = {"from": "from_date", "to": "to_date", "price_column": "price_column"}


def load_manifest(path) -> list[tuple[str, str, dict]]:
    """Read a JSON manifest: a list of {label, path, from, to, price_column}.

    ``label`` and ``path`` are strings, the other keys strings or null.  Any
    other key or type is a :class:`SchemaError`, so a misspelt ``from``
    never silently widens the window.  Each entry comes back as
    ``(label, path, read_args)``, where ``read_args`` holds the
    :func:`read_prices` keyword of each of its other keys that is not null."""
    doc = read_json(path)
    if not isinstance(doc, list):
        raise SchemaError(f"{path}: manifest must be a JSON list")
    entries = []
    for i, item in enumerate(doc):
        if not isinstance(item, dict) or "label" not in item or "path" not in item:
            raise SchemaError(f"{path}: entry {i} needs 'label' and 'path'")
        unknown = sorted(item.keys() - {"label", "path", *_READ_ARGS})
        if unknown:
            raise SchemaError(f"{path}: entry {i}: unknown key(s) {unknown}")
        for key, value in item.items():
            required = key in ("label", "path")
            if not (isinstance(value, str) or (value is None and not required)):
                kind = "a string" if required else "a string or null"
                raise SchemaError(
                    f"{path}: entry {i}: {key!r} must be {kind}, got {json.dumps(value)}")
        if "\0" in item["path"]:  # open() would raise a bare ValueError
            raise SchemaError(f"{path}: entry {i}: 'path' holds a NUL character")
        read_args = {_READ_ARGS[key]: value for key, value in item.items()
                     if key in _READ_ARGS and value is not None}
        entries.append((item["label"], item["path"], read_args))
    return entries
