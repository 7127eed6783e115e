import array
import codecs
import csv
import dataclasses
import datetime as dt
import gc
import io
import itertools
import json
import math
import operator
import os
import tracemalloc
import warnings

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marketfacts.errors import (
    DuplicateDate,
    EmptyWindow,
    InvalidWindow,
    SchemaError,
    UnreadableFile,
)
from marketfacts import ingest, sim
from marketfacts.ingest import (
    IngestReport,
    _check_utf8,
    _lines,
    _parse_date,
    load_manifest,
    read_prices,
    read_prices_report,
)
from marketfacts.timeseries import PriceSeries

STOOQ_HEADER = "Date,Open,High,Low,Close,Volume\n"


def write_csv(tmp_path, rows, header=STOOQ_HEADER, name="prices.csv"):
    path = tmp_path / name
    path.write_text(header + "".join(rows))
    return path


class TestReadPrices:
    def test_well_formed_file(self, tmp_path):
        path = write_csv(tmp_path, [
            "2010-01-04,100.0,101,99,100.5,1000\n",
            "2010-01-05,100.5,102,99,101.0,1100\n",
            "2010-01-06,101.0,103,99,102.0,1200\n",
        ])
        series = read_prices(path)
        assert len(series) == 3
        assert series.dates[0] == dt.date(2010, 1, 4)
        assert series.prices[2] == 101.0

    def test_skips_nonpositive_price(self, tmp_path):
        path = write_csv(tmp_path, [
            "2010-01-04,0,101,99,100.5,1000\n",
            "2010-01-05,100.5,102,99,101.0,1100\n",
            "2010-01-06,101.0,103,99,102.0,1200\n",
        ])
        series, report = read_prices_report(path)
        assert len(series) == 2
        assert report.rows_skipped == 1

    def test_skips_nonfinite_price(self, tmp_path):
        path = write_csv(tmp_path, [
            "2010-01-04,inf,101,99,100.5,1000\n",
            "2010-01-05,100.5,102,99,101.0,1100\n",
            "2010-01-06,-inf,103,99,102.0,1200\n",
            "2010-01-07,101.0,103,99,102.0,1200\n",
        ])
        series, report = read_prices_report(path)
        assert list(series.prices) == [100.5, 101.0]
        assert report.rows_skipped == 2

    def test_skips_missing_and_unparseable(self, tmp_path):
        path = write_csv(tmp_path, [
            "2010-01-04,,101,99,100.5,1000\n",
            "2010-01-05,n/a,102,99,101.0,1100\n",
            "not-a-date,100.0,102,99,101.0,1100\n",
            "2010-01-07,100.0,102,99,101.0,1100\n",
            "2010-01-08\n",
        ])
        series, report = read_prices_report(path)
        assert len(series) == 1
        assert report.rows_skipped == 4
        assert report.rows_in == 5

    def test_skips_row_too_short_for_a_last_date_column(self, tmp_path):
        path = write_csv(tmp_path, [
            "100.0,2010-01-04\n",
            "101.0\n",
            "102.0,2010-01-06\n",
        ], header="Open,Date\n")
        series, report = read_prices_report(path)
        assert series.prices.tolist() == [100.0, 102.0]
        assert (report.rows_in, report.rows_used, report.rows_skipped) == (3, 2, 1)

    def test_row_accounting_invariant(self, tmp_path):
        path = write_csv(tmp_path, [
            "2009-12-31,99.0,0,0,0,0\n",
            "2010-01-04,100.0,0,0,0,0\n",
            "2010-01-05,-1,0,0,0,0\n",
            "2010-01-06,101.0,0,0,0,0\n",
            "2011-06-01,120.0,0,0,0,0\n",
        ])
        series, r = read_prices_report(path, from_date="2010-01-01", to_date="2010-12-31")
        assert r.rows_in == r.rows_used + r.rows_skipped + r.rows_out_of_window
        assert (r.rows_used, r.rows_skipped, r.rows_out_of_window) == (2, 1, 2)

    def test_window_boundaries_inclusive(self, tmp_path):
        path = write_csv(tmp_path, [
            "2010-01-04,100.0,0,0,0,0\n",
            "2010-01-05,101.0,0,0,0,0\n",
            "2010-01-06,102.0,0,0,0,0\n",
        ])
        series = read_prices(path, from_date="2010-01-04", to_date="2010-01-06")
        assert len(series) == 3

    def test_invalid_window(self, tmp_path):
        path = write_csv(tmp_path, ["2010-01-04,100.0,0,0,0,0\n"])
        with pytest.raises(ValueError):
            read_prices(path, from_date="2011-01-01", to_date="2010-01-01")

    def test_unsorted_input_is_sorted(self, tmp_path):
        path = write_csv(tmp_path, [
            "2010-01-06,102.0,0,0,0,0\n",
            "2010-01-04,100.0,0,0,0,0\n",
            "2010-01-05,101.0,0,0,0,0\n",
        ])
        series = read_prices(path)
        assert list(series.prices) == [100.0, 101.0, 102.0]

    def test_duplicate_dates_rejected_with_line_numbers(self, tmp_path):
        path = write_csv(tmp_path, [
            "2010-01-04,100.0,0,0,0,0\n",
            "2010-01-05,101.0,0,0,0,0\n",
            "2010-01-04,102.0,0,0,0,0\n",
        ])
        with pytest.raises(DuplicateDate, match="lines 2 and 4"):
            read_prices(path)

    def test_duplicate_date_line_numbers_count_quoted_newlines(self, tmp_path):
        # the record on lines 3-5 holds a quoted cell with two newlines
        path = write_csv(tmp_path, [
            "2010-01-04,100.0,0,0,0,0\n",
            '2010-01-05,101.0,"a\nb\nc",0,0,0\n',
            "2010-01-04,102.0,0,0,0,0\n",
        ])
        with pytest.raises(DuplicateDate, match="lines 2 and 6"):
            read_prices(path)

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path, ["2010-01-04,100.0\n"], header="Date,Close\n")
        with pytest.raises(SchemaError, match="Open"):
            read_prices(path)

    def test_close_column_selectable(self, tmp_path):
        path = write_csv(tmp_path, [
            "2010-01-04,100.0,101,99,200.5,1000\n",
            "2010-01-05,100.5,102,99,201.0,1100\n",
        ])
        series = read_prices(path, price_column="Close")
        assert list(series.prices) == [200.5, 201.0]

    def test_empty_window(self, tmp_path):
        path = write_csv(tmp_path, ["2010-01-04,100.0,0,0,0,0\n"])
        with pytest.raises(EmptyWindow):
            read_prices(path, from_date="2015-01-01", to_date="2015-12-31")

    @pytest.mark.parametrize("text", [
        "2010-01-04,100.0\n2010-01-05,101.0\n",
        "Date;Open\n2010-01-04;100.0\n2010-01-05;101.0\n",
    ], ids=["headerless", "semicolons"])
    def test_layout_other_than_comma_header_rejected(self, tmp_path, text):
        path = tmp_path / "raw.csv"
        path.write_text(text)
        with pytest.raises(SchemaError, match="column 'Date' not in header"):
            read_prices(path)

    def test_rereading_is_identical(self, tmp_path):
        path = write_csv(tmp_path, [
            "2010-01-04,100.0,0,0,0,0\n",
            "2010-01-05,101.0,0,0,0,0\n",
        ])
        a, b = read_prices(path), read_prices(path)
        assert a.dates == b.dates
        assert list(a.prices) == list(b.prices)

    def test_non_utf8_file(self, tmp_path):
        path = tmp_path / "bin.csv"
        path.write_bytes(STOOQ_HEADER.encode() + b"2010-01-04,\xff,0,0,0,0\n")
        with pytest.raises(SchemaError, match=f"{path}: not UTF-8 text"):
            read_prices_report(path)

    def test_non_utf8_offset_counts_from_file_start(self, tmp_path):
        head = STOOQ_HEADER.encode() + b"".join(
            f"{dt.date(2000, 1, 1) + dt.timedelta(days=k)},100.0,0,0,0,0\n".encode()
            for k in range(400)
        )
        assert len(head) > 8192  # past the first decode chunk of a text file
        path = tmp_path / "bin.csv"
        path.write_bytes(head + b"2010-01-04,\xff,0,0,0,0\n")
        offset = len(head) + len(b"2010-01-04,")
        with pytest.raises(SchemaError) as info:
            read_prices_report(path)
        assert str(info.value) == f"{path}: not UTF-8 text: invalid start byte at byte {offset}"

    def test_non_utf8_offset_behind_a_byte_order_mark_counts_the_mark(self, tmp_path):
        head = codecs.BOM_UTF8 + b"Date,Open\n2010-01-04,"
        path = tmp_path / "bin.csv"
        path.write_bytes(head + b"\xff\n")
        with pytest.raises(SchemaError) as info:
            read_prices_report(path)
        assert str(info.value) == f"{path}: not UTF-8 text: invalid start byte at byte {len(head)}"

    def test_csv_parser_error_is_schema_error(self, tmp_path):
        path = write_csv(tmp_path, [
            "2010-01-04,100.0,0,0,0,0\n",
            '2010-01-05,"' + "x" * (csv.field_size_limit() + 1) + '",0,0,0,0\n',
        ])
        with pytest.raises(SchemaError) as info:
            read_prices_report(path)
        assert str(info.value) == (
            f"{path}: line 3: field larger than field limit ({csv.field_size_limit()})"
        )

    @pytest.mark.parametrize("bound, name", [("from_date", "from"), ("to_date", "to")])
    def test_datetime_window_bound_rejected(self, tmp_path, bound, name):
        path = write_csv(tmp_path, ["2000-01-04,100.0,0,0,0,0\n"])
        with pytest.raises(InvalidWindow, match=rf"^{name}: datetime\.datetime\(2000, 1, 4, 0, 0\)"):
            read_prices(path, **{bound: dt.datetime(2000, 1, 4)})
        assert len(read_prices(path, **{bound: dt.date(2000, 1, 4)})) == 1

    @pytest.mark.parametrize("ending", ["\r\n", "\r"])
    def test_line_endings_read_alike(self, tmp_path, ending):
        head = "Date,Open,Note" + ending + "2010-01-04,100.0,"
        lines = [
            "Date,Open,Note",
            # the ending of this line starts at byte 8191, the last of the
            # first 8 KB decode chunk, so a \r\n straddles the chunk's end
            "2010-01-04,100.0," + "p" * (8191 - len(head)),
            '2010-01-05,101.0,"two\nlines"',
            "",
            "2010-01-06,n/a,x",
            "2010-01-07,102.0,x",
        ]
        reads, duplicates = [], []
        for name, sep in (("lf.csv", "\n"), ("other.csv", ending)):
            path = tmp_path / name
            path.write_bytes((sep.join(lines) + sep).encode())
            reads.append(read_prices_report(path))
            # an ending read as two line breaks would shift the line numbers
            path.write_bytes((sep.join(lines + lines[-1:]) + sep).encode())
            with pytest.raises(DuplicateDate) as info:
                read_prices_report(path)
            duplicates.append(str(info.value).removeprefix(f"{path}: "))
        assert path.read_bytes()[8191:8191 + len(ending)] == ending.encode()
        assert duplicates == ["date 2010-01-07 on lines 7 and 8"] * 2
        (lf, lf_report), (other, other_report) = reads
        assert other.dates == lf.dates
        assert list(other.prices) == list(lf.prices) == [100.0, 101.0, 102.0]
        assert other_report == lf_report == IngestReport(4, 3, 1, 0)


    def test_extra_bytes_cost_at_most_twice_their_size(self, tmp_path):
        # the file is held once, as bytes; a whole decoded copy of the text
        # (4 bytes a character once io.StringIO has been read) would show here
        def peak(pad):
            path = tmp_path / f"pad{len(pad)}.csv"
            path.write_text("Date,Open,Note\n" + "".join(
                f"{dt.date(1950, 1, 2) + dt.timedelta(days=k)},{100 + k / 64},{pad}\n"
                for k in range(20_000)))
            tracemalloc.start()
            try:
                read_prices_report(path)
                return path.stat().st_size, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        (narrow_size, narrow_peak), (wide_size, wide_peak) = peak(""), peak("x" * 200)
        assert (wide_peak - narrow_peak) / (wide_size - narrow_size) < 2

    def test_file_bytes_are_not_held(self, tmp_path):
        # the file is read a chunk at a time, so an unused column costs
        # almost nothing; holding the file's bytes would cost 1 per byte
        (narrow_size, narrow_peak), (wide_size, wide_peak) = (
            _read_peak(tmp_path, pad) for pad in ("", "x" * 200))
        assert (wide_peak - narrow_peak) / (wide_size - narrow_size) < 0.1

    def test_file_changed_after_its_check_is_a_schema_error(self, tmp_path, monkeypatch):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"Date,Open\n2000-01-01,100.0\n2000-01-02,\xff\n")
        monkeypatch.setattr(ingest, "_check_utf8", lambda path, fh: None)
        with pytest.raises(SchemaError) as info:
            read_prices_report(path)
        assert str(info.value) == f"{path}: not UTF-8 text: invalid start byte"

    @pytest.mark.parametrize("data, error", [
        (b"Date;Open\n2000-01-01;100.0\n", SchemaError),
        (b'Date,Open\n2000-01-01,"' + b"x" * (csv.field_size_limit() + 1) + b'"\n', SchemaError),
        (b"Date,Open\n2000-01-01,100.0\n2000-01-01,101.0\n", DuplicateDate),
        (b"Date,Open\n2000-01-01,abc\n", EmptyWindow),
        (b"Date,Open\n2000-01-01,\xff\n", SchemaError),
    ], ids=["missing_column", "csv_error", "duplicate_date", "empty_window", "not_utf8"])
    def test_error_paths_close_the_file(self, tmp_path, monkeypatch, data, error):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        def fail():  # the traceback, and any handle it holds, ends here
            with pytest.raises(error):
                read_prices_report(path)

        monkeypatch.setattr(ingest, "open", recording_open, raising=False)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fail()
            gc.collect()
        assert len(handles) == 1 and handles[0].closed
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_in_order_file_holds_no_date_map(self, tmp_path):
        # an in-order file costs its parsed dates, prices and line numbers,
        # about 75 B a row; a map from each date to its line took 139
        n = 32_000
        path = tmp_path / "in_order.csv"
        path.write_text("Date,Open\n" + "".join(
            f"{dt.date(1900, 1, 1) + dt.timedelta(days=k)},{100 + k / 64}\n" for k in range(n)))
        tracemalloc.start()
        try:
            read_prices_report(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak / n < 100


def _read_peak(tmp_path, pad):
    """The size of a 20 000-row file whose unused column holds ``pad``, and
    the tracemalloc peak of reading it."""
    path = tmp_path / f"pad{len(pad)}.csv"
    path.write_text("Date,Open,Note\n" + "".join(
        f"{dt.date(1950, 1, 2) + dt.timedelta(days=k)},{100 + k / 64},{pad}\n"
        for k in range(20_000)))
    tracemalloc.start()
    try:
        read_prices_report(path)
        return path.stat().st_size, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# ASCII, with more weight on what ends csv lines and fields, and characters
# of two and three UTF-8 bytes
_CSV_TOKENS = st.characters(max_codepoint=127) | st.sampled_from(
    [",", '"', "\r", "\n", "\r\n", "é", "€"])


@st.composite
def _csv_texts(draw):
    """Drawn tokens that start at a drawn byte, most often just before the
    end of the first 8192-byte decode chunk, behind a drawn unit repeated."""
    unit, tail = ("".join(draw(st.lists(_CSV_TOKENS, min_size=least, max_size=most)))
                  for least, most in ((1, 6), (0, 60)))
    start = draw(st.integers(0, 64) | st.integers(8192 - 16, 8192))
    pad = unit * (start // len(unit.encode()))
    return pad + "x" * (start - len(pad.encode())) + tail


def _rows_and_line_numbers(reader):
    read = []
    try:
        for row in reader:
            read.append((row, reader.line_num))
    except csv.Error as exc:
        read.append(str(exc))
    return read


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_csv_texts(), st.booleans())
@example("x" * 8191 + "\r\ny", False)  # \r\n across the chunk's end
@example("x" * 8188 + "\r\ny", True)  # the same behind a byte order mark
@example("x" * 8191 + "€\n", False)  # a character cut by the chunk's end
@example('"' + "x" * 8190 + '\r\n"\r\n', False)  # a quoted \r\n across it
def test_line_source_matches_string_reader(text, bom):
    data = (codecs.BOM_UTF8 if bom else b"") + text.encode()
    expected = _rows_and_line_numbers(csv.reader(io.StringIO(text, newline="")))
    assert _rows_and_line_numbers(csv.reader(_lines(io.BytesIO(data)))) == expected


def _whole_file_message(data):
    """The message of a whole-file decode, the check's reference."""
    try:
        data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # utf-8-sig counts from the end of the mark, the message from the file's start
        start = exc.start + (len(codecs.BOM_UTF8) if data.startswith(codecs.BOM_UTF8) else 0)
        return f"f.csv: not UTF-8 text: {exc.reason} at byte {start}"
    return None


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(st.sampled_from([b"a", b"\n", b"\xc3\xa9", b"\xe2\x82\xac", b"\xf0\x9f\x98\x80",
                                 b"\xe2\x82", b"\xf0\x80", b"\xed\xa0\x80", b"\xff", b"\x80",
                                 codecs.BOM_UTF8]), max_size=40),
       st.integers(4, 9))
@example([codecs.BOM_UTF8, b"a", b"\xff"], 4)
def test_utf8_check_in_chunks_matches_a_whole_file_decode(parts, chunk):
    data = b"".join(parts)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_CHECK_CHUNK", chunk)
        try:
            _check_utf8("f.csv", io.BytesIO(data))
        except SchemaError as exc:
            assert str(exc) == _whole_file_message(data)
        else:
            assert _whole_file_message(data) is None


def _reference_read(path, price_column, from_date, to_date):
    """``read_prices_report`` with the row loop that maps every date to its
    line and tests every row for blankness and for the window."""
    from_date = ingest._window_date(from_date, "from")
    to_date = ingest._window_date(to_date, "to")
    if from_date is not None and to_date is not None and from_date > to_date:
        raise InvalidWindow(f"from: window start {from_date} after end {to_date}")

    rows_in = rows_skipped = rows_out = 0
    seen: dict = {}  # date -> line number
    dates, prices = [], array.array("d")
    with ingest._open(path) as text:
        reader = csv.reader(text)
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
                    raise SchemaError(
                        f"{path}: column {column!r} not in header {header}") from None
            date_idx, price_idx = indices

            next_line = reader.line_num + 1
            for row in reader:
                lineno, next_line = next_line, reader.line_num + 1
                if not any(map(str.strip, row)):
                    continue
                rows_in += 1
                try:
                    date = _parse_date(row[date_idx])
                    price = float(row[price_idx])
                    if not 0.0 < price < math.inf:
                        raise ValueError(price)
                except (IndexError, ValueError):
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
                dates.append(date)
                prices.append(price)
        except csv.Error as exc:
            raise SchemaError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise SchemaError(f"{path}: not UTF-8 text: {exc.reason}") from exc

    if not dates:
        raise EmptyWindow(
            f"{path}: no usable rows in window [{from_date}, {to_date}]"
        )
    if any(itertools.starmap(operator.gt, itertools.pairwise(dates))):
        order = sorted(range(len(dates)), key=dates.__getitem__)
        dates = [dates[k] for k in order]
        prices = array.array("d", map(prices.__getitem__, order))
    report = IngestReport(
        rows_in=rows_in,
        rows_used=len(dates),
        rows_skipped=rows_skipped,
        rows_out_of_window=rows_out,
    )
    return PriceSeries(dates=dates, prices=prices), report


_DAYS = [dt.date(2000, 1, 3) + dt.timedelta(days=k) for k in range(16)]
# a cell longer than the field limit the oracle sets is a csv.Error
_FIELD_LIMIT = 40
# rows ingest skips and counts, one of each way a row is spoiled; {d} is a date
_BAD_ROWS = ["{d}", "{d},", "{d},n/a", "{d},0", "{d},-1.5", "{d},nan", "{d},inf",
             "03/01/2000,1.0", ",1.0", "{d} x,1.0"]
# rows that are not counted, and a row over the field limit
_OTHER_ROWS = ["", " ", " , ,", "\t,,", "{d},1.0," + "z" * (_FIELD_LIMIT + 1)]


@st.composite
def _price_files(draw):
    """A price file of drawn dates in order, reversed or as drawn, with
    repeats, quoted cells over several lines, bad, blank and oversized rows."""
    days = draw(st.lists(st.integers(0, len(_DAYS) - 1), max_size=12,
                         unique=draw(st.booleans())))
    order = draw(st.sampled_from(["in order", "reversed", "as drawn"]))
    if order != "as drawn":
        days.sort(reverse=order == "reversed")
    rows = []
    for day in days:
        pad = draw(st.sampled_from(["", " "]))
        price = draw(st.floats(1e-3, 1e6))
        note = draw(st.sampled_from(["", '"a\nb"', '"c\r\nd\ne"']))
        rows.append(f"{pad}{_DAYS[day]}{pad},{price!r},{note}")
    extras = draw(st.lists(st.tuples(st.integers(0, len(rows)),
                                     st.sampled_from(_BAD_ROWS + _OTHER_ROWS),
                                     st.sampled_from(_DAYS)), max_size=5))
    for at, extra, day in sorted(extras, key=lambda e: e[0], reverse=True):
        rows.insert(at, extra.format(d=day))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join(["Date,Open,Note", *rows]) + draw(st.sampled_from(["", ending]))


def _outcome(read, path, from_date, to_date):
    """The dates, price bytes and report of a read, or its error."""
    try:
        series, report = read(path, "Open", from_date, to_date)
    except Exception as exc:
        return type(exc), str(exc)
    return series.dates, series.prices.tobytes(), report


_WINDOW_BOUNDS = st.none() | st.sampled_from(_DAYS)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_price_files(), _WINDOW_BOUNDS, _WINDOW_BOUNDS)
# a repeated date whose first row lies outside the window
@example("Date,Open\n2000-01-03,1.0\n2000-01-05,2.0\n2000-01-03,3.0\n",
         dt.date(2000, 1, 4), None)
# a repeated date ahead of a row over the field limit
@example("Date,Open\n2000-01-04,1.0\n2000-01-04,2.0\n2000-01-05," + "z" * 50 + "\n",
         None, None)
def test_row_loop_matches_a_map_of_every_date(tmp_path_factory, text, from_date, to_date):
    path = tmp_path_factory.getbasetemp() / "oracle.csv"
    path.write_bytes(text.encode())
    limit = csv.field_size_limit(_FIELD_LIMIT)
    try:
        expected = _outcome(_reference_read, path, from_date, to_date)
        assert _outcome(read_prices_report, path, from_date, to_date) == expected
    finally:
        csv.field_size_limit(limit)


_FULL_WIDTH = str.maketrans("0123456789", "０１２３４５６７８９")


@st.composite
def _near_iso(draw):
    """Strings shaped like, or close to, ``YYYY-MM-DD``."""
    year = draw(st.integers(0, 10_000))
    month, day = draw(st.integers(0, 13)), draw(st.integers(0, 32))
    width = draw(st.sampled_from([1, 2]))
    text = draw(st.sampled_from([
        f"{year:04d}-{month:0{width}d}-{day:0{width}d}",
        f"{year:04d}{month:02d}{day:02d}",  # compact ISO
        f"{year:04d}-W{month:02d}-{day % 10}",  # ISO week date
        f"{year}-{month:02d}-{day:02d}",
    ]))
    full_width = draw(st.lists(st.booleans(), min_size=len(text), max_size=len(text)))
    text = "".join(c.translate(_FULL_WIDTH) if w else c for c, w in zip(text, full_width))
    pad = st.sampled_from(["", " ", "\t", "\u3000", "\n"])
    return draw(pad) + text + draw(pad)


class TestParseDate:
    @settings(max_examples=300)
    @given(st.text() | _near_iso())
    @example("2020-01-05")
    @example(" 2020-1-05 ")  # strptime only: the fallback
    @example("2020-W01-1")  # fromisoformat only: the shape guard
    @example("20200105")
    @example("２０２０-01-05")  # strptime takes non-ASCII digits where its pattern has \d
    @example("２０２０-０１-０５")
    @example("2020-02-30")
    def test_agrees_with_strptime(self, text):
        try:
            expected = dt.datetime.strptime(text.strip(), "%Y-%m-%d").date()
        except ValueError:
            with pytest.raises(ValueError):
                _parse_date(text)
        else:
            assert _parse_date(text) == expected


class TestManifest:
    def test_load(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            '[{"label": "DJ", "path": "dj.csv", "from": "1896-05-27", "to": "2018-11-14"}]'
        )
        assert load_manifest(path) == [
            ("DJ", "dj.csv", {"from_date": "1896-05-27", "to_date": "2018-11-14"})]
        # a null key sets no read_prices argument
        path.write_text(
            '[{"label": "DJ", "path": "dj.csv", "from": null, "price_column": "Close"}]')
        assert load_manifest(path) == [("DJ", "dj.csv", {"price_column": "Close"})]

    def test_rejects_bad_shape(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"label": "DJ"}')
        with pytest.raises(SchemaError):
            load_manifest(path)
        path.write_text('[{"path": "x.csv"}]')
        with pytest.raises(SchemaError):
            load_manifest(path)

    def test_byte_order_mark_reads_as_absent(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_bytes(codecs.BOM_UTF8 + b'[{"label": "DJ", "path": "dj.csv"}]')
        assert load_manifest(path) == [("DJ", "dj.csv", {})]

    def test_non_utf8_manifest_names_the_offset(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_bytes(codecs.BOM_UTF8 + b'[{"label": "\xff"}]')
        with pytest.raises(SchemaError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: not UTF-8 text: invalid start byte at byte 15"

    def test_repeated_key(self, tmp_path):
        # the last value would win silently: the entry would read b.csv
        path = tmp_path / "manifest.json"
        path.write_text('[{"label": "a", "path": "a.csv", "path": "b.csv"}]')
        with pytest.raises(SchemaError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: key 'path' repeated in one object"

    @pytest.mark.parametrize("key, value, expected", [
        ("label", None, "'label' must be a string, got null"),
        ("label", 5, "'label' must be a string, got 5"),
        ("label", float("nan"), "'label' must be a string, got NaN"),
        ("path", True, "'path' must be a string, got true"),
        ("path", ["x.csv"], "'path' must be a string, got [\"x.csv\"]"),
        ("from", 2000, "'from' must be a string or null, got 2000"),
        ("to", {}, "'to' must be a string or null, got {}"),
        ("price_column", 5, "'price_column' must be a string or null, got 5"),
        ("path", "a\u0000b.csv", "'path' holds a NUL character"),
    ])
    def test_values_have_json_types(self, tmp_path, key, value, expected):
        path = tmp_path / "manifest.json"
        entries = [{"label": "a", "path": "a.csv"}, {"label": "b", "path": "b.csv", key: value}]
        path.write_text(json.dumps(entries))
        with pytest.raises(SchemaError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: entry 1: {expected}"


@pytest.fixture
def piped(tmp_path):
    """Make ``(pipe_path, file_path)`` for a payload: a ``/dev/fd`` path
    that reads it from a pipe, and a regular file that holds it."""
    if not os.path.isdir("/dev/fd"):
        pytest.skip("no /dev/fd to open a pipe by path")
    read_ends = []

    def make(payload, name):
        # the whole payload fits the pipe's 64 KB buffer, so no writer thread
        assert len(payload) < 1 << 16
        r, w = os.pipe()
        read_ends.append(r)
        os.write(w, payload)
        os.close(w)
        path = tmp_path / name
        path.write_bytes(payload)
        return f"/dev/fd/{r}", path

    yield make
    for r in read_ends:
        os.close(r)


class TestInputFiles:
    """A pipe reads as a regular file of the same bytes; it cannot be read
    twice, so ``_open`` holds its bytes once."""

    def test_piped_price_file(self, piped):
        days = [dt.date(2000, 1, 1) + dt.timedelta(days=k) for k in range(300)]
        rows = [f"{day},{100 + k / 7}\n" for k, day in enumerate(days)]
        rows[40], rows[41] = rows[41], rows[40]  # a date that does not increase
        rows[90] = f"{days[90]},abc\n"  # a skipped row
        pipe, path = piped(("Date,Open\n" + "".join(rows)).encode(), "p.csv")
        (series, report), (expected, expected_report) = (
            read_prices_report(name, from_date="2000-01-10") for name in (pipe, path))
        assert series.dates == expected.dates
        assert series.prices.tobytes() == expected.prices.tobytes()
        assert report == expected_report == IngestReport(300, 290, 1, 9)

    def test_piped_config(self, piped):
        config = sim.cross_herding_defaults(seed=3, steps=500)
        pipe, path = piped(json.dumps(dataclasses.asdict(config)).encode(), "c.json")
        assert sim.load_config(pipe) == sim.load_config(path) == config

    def test_piped_manifest(self, piped):
        entries = [{"label": "a", "path": "a.csv", "from": "2000-01-01"},
                   {"label": "b", "path": "b.csv", "price_column": "Close"}]
        pipe, path = piped(codecs.BOM_UTF8 + json.dumps(entries).encode(), "m.json")
        assert load_manifest(pipe) == load_manifest(path) == [
            ("a", "a.csv", {"from_date": "2000-01-01"}), ("b", "b.csv", {"price_column": "Close"})]

    @pytest.mark.parametrize("read", [read_prices_report, load_manifest])
    def test_non_utf8_pipe_names_the_file_offset(self, piped, read):
        payload = b"Date,Open\n" + b"2000-01-01,100.0\n" * 3000 + b"\xff\n"
        messages = []
        for name in piped(payload, "bad"):
            with pytest.raises(SchemaError) as info:
                read(name)
            messages.append(str(info.value).removeprefix(str(name)))
        assert messages == [": not UTF-8 text: invalid start byte at byte 51010"] * 2

    @pytest.mark.parametrize("read", [read_prices_report, load_manifest])
    def test_os_error_without_strerror_is_named(self, tmp_path, monkeypatch, read):
        def fail(*args, **kwargs):
            raise OSError("boom")

        path = tmp_path / "any"
        monkeypatch.setattr(ingest, "open", fail, raising=False)
        with pytest.raises(UnreadableFile) as info:
            read(path)
        assert str(info.value) == f"{path}: boom"
