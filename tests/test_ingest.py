import codecs
import csv
import datetime as dt
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from marketfacts.errors import DuplicateDate, EmptyWindow, InvalidWindow, SchemaError
from marketfacts.ingest import (
    IngestReport,
    _parse_date,
    load_manifest,
    read_prices,
    read_prices_report,
)

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
        lines = [
            "Date,Open,Note",
            "2010-01-04,100.0,plain",
            '2010-01-05,101.0,"two\nlines"',
            "",
            "2010-01-06,n/a,x",
            "2010-01-07,102.0,x",
        ]
        reads = []
        for name, sep in (("lf.csv", "\n"), ("other.csv", ending)):
            path = tmp_path / name
            path.write_bytes((sep.join(lines) + sep).encode())
            reads.append(read_prices_report(path))
        (lf, lf_report), (other, other_report) = reads
        assert other.dates == lf.dates
        assert list(other.prices) == list(lf.prices) == [100.0, 101.0, 102.0]
        assert other_report == lf_report == IngestReport(4, 3, 1, 0)


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
    ])
    def test_values_have_json_types(self, tmp_path, key, value, expected):
        path = tmp_path / "manifest.json"
        entries = [{"label": "a", "path": "a.csv"}, {"label": "b", "path": "b.csv", key: value}]
        path.write_text(json.dumps(entries))
        with pytest.raises(SchemaError) as info:
            load_manifest(path)
        assert str(info.value) == f"{path}: entry 1: {expected}"
