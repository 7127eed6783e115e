import datetime as dt

import pytest

from marketfacts.errors import DuplicateDate, EmptyWindow, SchemaError
from marketfacts.ingest import (
    IngestReport,
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
        ])
        series, report = read_prices_report(path)
        assert len(series) == 1
        assert report.rows_skipped == 3
        assert report.rows_in == 4

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


class TestManifest:
    def test_load(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(
            '[{"label": "DJ", "path": "dj.csv", "from": "1896-05-27", "to": "2018-11-14"}]'
        )
        entries = load_manifest(path)
        assert entries[0].label == "DJ"
        assert entries[0].from_date == "1896-05-27"

    def test_rejects_bad_shape(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text('{"label": "DJ"}')
        with pytest.raises(SchemaError):
            load_manifest(path)
        path.write_text('[{"path": "x.csv"}]')
        with pytest.raises(SchemaError):
            load_manifest(path)
