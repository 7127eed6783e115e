import codecs
import concurrent.futures
import contextlib
import copy
import csv
import dataclasses
import datetime as dt
import hashlib
import json
import math
import os
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from marketfacts import ingest, sim, stats, timeseries
from marketfacts.cli import main
from marketfacts.sim import cross_herding_defaults


def write_price_csv(path, n=5000, seed=0, vol=0.01):
    """Synthetic geometric random walk in stooq-like layout."""
    rng = np.random.default_rng(seed)
    returns = vol * rng.standard_normal(n - 1)
    prices = 100.0 * np.exp(np.concatenate([[0.0], np.cumsum(returns)]))
    day = dt.date(2000, 1, 1)
    with open(path, "w") as fh:
        fh.write("Date,Open,High,Low,Close,Volume\n")
        for k, p in enumerate(prices):
            fh.write(f"{day + dt.timedelta(days=k)},{p:.10f},0,0,{p:.10f},0\n")
    return prices


# finite, positive prices whose second ratio is past the float range
EXTREME_PRICES = [1.0, 1e308, 5e-324, 1.0, 2.0, 3.0]
# their log returns, each a difference of two logs
EXTREME_RETURNS = np.diff([math.log(p) for p in EXTREME_PRICES])


def write_overflowing_prices(path):
    with open(path, "w") as fh:
        fh.write("Date,Open\n")
        for k, p in enumerate(EXTREME_PRICES):
            fh.write(f"{dt.date(2000, 1, 1) + dt.timedelta(days=k)},{p!r}\n")


def write_config(path, **overrides):
    cfg = dataclasses.asdict(cross_herding_defaults(seed=7, steps=2000))
    cfg.update(overrides)
    path.write_text(json.dumps(cfg))
    return path


def read_table(path):
    with open(path) as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    return {row[0]: dict(zip(header[1:], row[1:])) for row in body}


class TestAnalyze:
    def test_gaussian_synthetic(self, tmp_path):
        src = tmp_path / "gauss.csv"
        write_price_csv(src, n=5000)
        out = tmp_path / "out"
        rc = main(["analyze", "--input", str(src), "--out-dir", str(out)])
        assert rc == 0
        table = read_table(out / "table.csv")
        n = 4999
        raw = {k: float(v["gauss (raw)"]) for k, v in table.items()}
        assert abs(raw["Excess Kurtosis"]) < 0.3
        assert raw["Hill 0.05"] > 3.0  # thin Gaussian tail, large exponent
        for lag in (10, 20, 50, 100):
            assert abs(raw[f"AutoCorr {lag}"]) < 3.0 / math.sqrt(n)
        doc = json.loads((out / "table.json").read_text())
        assert "gauss (absolute)" in doc

    def test_manifest_with_partial_failure(self, tmp_path):
        src = tmp_path / "gauss.csv"
        write_price_csv(src, n=500)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"label": "ok", "path": str(src)},
            {"label": "bad", "path": str(src), "from": "2050-01-01", "to": "2050-12-31"},
        ]))
        out = tmp_path / "out"
        rc = main(["analyze", "--manifest", str(manifest), "--out-dir", str(out)])
        assert rc == 0  # not ALL columns failed
        doc = json.loads((out / "table.json").read_text())
        assert "error" in doc["bad (raw)"]
        assert "EmptyWindow" in doc["bad (raw)"]["error"]
        assert "Skew" in doc["ok (raw)"]

    def test_all_columns_fail(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        src = tmp_path / "gauss.csv"
        write_price_csv(src, n=100)
        manifest.write_text(json.dumps([
            {"label": "bad", "path": str(src), "from": "2050-01-01", "to": "2050-12-31"},
        ]))
        rc = main(["analyze", "--manifest", str(manifest),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        error = json.loads((tmp_path / "out" / "table.json").read_text())["bad (raw)"]["error"]
        assert error.startswith("EmptyWindow: ")
        assert capsys.readouterr().err == f"analyze: every column failed; bad (raw): {error}\n"

    def test_every_cell_failing_in_every_column_is_reported(self, tmp_path, capsys):
        src = tmp_path / "three.csv"
        write_price_csv(src, n=3)
        assert main(["analyze", "--input", str(src), "--lags", "1",
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err == ("analyze: every column failed; three (raw): "
                                           "InsufficientData: need n >= 3 for skewness, got 2\n")
        good = tmp_path / "good.csv"
        write_price_csv(good, n=200)
        assert main(["analyze", "--input", str(src), "--input", str(good), "--lags", "1",
                     "--out-dir", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_empty_manifest_fails(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        manifest.write_text("[]")
        out = tmp_path / "out"
        assert main(["analyze", "--manifest", str(manifest), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == f"SchemaError: {manifest}: manifest lists no source\n"
        assert not out.exists()

    @pytest.mark.parametrize("window, message", [
        (["--from", "2000/01/01"], "InvalidWindow: from: '2000/01/01' is not a YYYY-MM-DD date"),
        (["--from", "2001-01-01", "--to", "2000-01-01"],
         "InvalidWindow: from: window start 2001-01-01 after end 2000-01-01"),
    ])
    def test_bad_window_fails_every_column(self, tmp_path, capsys, window, message):
        src = tmp_path / "gauss.csv"
        write_price_csv(src, n=100)
        out = tmp_path / "out"
        rc = main(["analyze", "--input", str(src), *window, "--out-dir", str(out)])
        assert rc == 1
        doc = json.loads((out / "table.json").read_text())
        assert [col["error"] for col in doc.values()] == [message, message]
        assert capsys.readouterr().err == f"analyze: every column failed; gauss (raw): {message}\n"

    def test_bad_manifest_entries_fail_only_their_columns(self, tmp_path):
        src = tmp_path / "gauss.csv"
        write_price_csv(src, n=500)
        missing = tmp_path / "missing.csv"
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"label": "ok", "path": str(src)},
            {"label": "bad_date", "path": str(src), "from": "2000/01/01"},
            {"label": "no_file", "path": str(missing)},
        ]))
        out = tmp_path / "out"
        assert main(["analyze", "--manifest", str(manifest), "--out-dir", str(out)]) == 0
        doc = json.loads((out / "table.json").read_text())
        assert "Skew" in doc["ok (raw)"] and "Skew" in doc["ok (absolute)"]
        for kind in ("raw", "absolute"):
            assert doc[f"bad_date ({kind})"]["error"].startswith("InvalidWindow: from:")
            assert doc[f"no_file ({kind})"]["error"] == (
                f"UnreadableFile: {missing}: No such file or directory")

    def test_malformed_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        # the second document nests past the JSON decoder's recursion limit
        for text, expected in [
            ('[{"label": "x",', f"SchemaError: {manifest}: not valid JSON: "),
            ("[" * 100_000, f"SchemaError: {manifest}: not valid JSON: "),
            (None, f"UnreadableFile: {manifest}: No such file or directory\n"),
        ]:
            if text is None:
                manifest.unlink()
            else:
                manifest.write_text(text)
            rc = main(["analyze", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith(expected)
            assert "Traceback" not in err

    def test_flags_are_defaults_for_manifest_entries(self, tmp_path):
        src = tmp_path / "gauss.csv"
        write_price_csv(src, n=400)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"label": "flags", "path": str(src)},
            {"label": "nulls", "path": str(src), "from": None, "to": None, "price_column": None},
            {"label": "own", "path": str(src), "from": "2000-01-15", "to": "2000-09-30"},
            {"label": "column", "path": str(src), "price_column": "High"},  # every High is 0
        ]))
        out = tmp_path / "out"
        assert main(["analyze", "--manifest", str(manifest), "--from", "2000-05-01",
                     "--to", "2001-01-31", "--price-column", "Open", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "table.json").read_text())

        def report(column, start, end):
            raw = timeseries.log_returns(ingest.read_prices(src, column, start, end))
            return stats.full_report(raw)

        assert doc["flags (raw)"] == doc["nulls (raw)"] == report("Open", "2000-05-01", "2001-01-31")
        assert doc["own (raw)"] == report("Open", "2000-01-15", "2000-09-30")
        assert doc["column (raw)"] == {
            "error": f"EmptyWindow: {src}: no usable rows in window [2000-05-01, 2001-01-31]"}

    def test_unknown_manifest_key_rejected(self, tmp_path, capsys):
        src = tmp_path / "gauss.csv"
        write_price_csv(src, n=500)
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([
            {"label": "ok", "path": str(src)},
            {"label": "typo", "path": str(src), "form": "2000-06-01"},
        ]))
        out = tmp_path / "out"
        assert main(["analyze", "--manifest", str(manifest), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"SchemaError: {manifest}: entry 1: unknown key(s) ['form']\n"
        assert not out.exists()

    def test_manifest_path_with_nul_fails_cleanly(self, tmp_path, capsys):
        # open() would end it in a bare ValueError: embedded null byte
        manifest = tmp_path / "m.json"
        manifest.write_text(json.dumps([{"label": "x", "path": "a\u0000b.csv"}]))
        out = tmp_path / "out"
        assert main(["analyze", "--manifest", str(manifest), "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"SchemaError: {manifest}: entry 0: 'path' holds a NUL character\n"
        assert not out.exists()

    def test_duplicate_labels_rejected(self, tmp_path, capsys):
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        first, second = tmp_path / "a" / "x.csv", tmp_path / "b" / "x.csv"
        write_price_csv(first, n=100)
        write_price_csv(second, n=100, seed=1)
        rc = main(["analyze", "--input", str(first), "--input", str(second),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err == f"SchemaError: label 'x' names both {first} and {second}\n"

    def test_non_utf8_file_only_source(self, tmp_path, capsys):
        binary = tmp_path / "bin.csv"
        binary.write_bytes(b"Date,Open\n2000-01-01,\xff\n")
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(binary), "--out-dir", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads((out / "table.json").read_text())
        assert [col["error"].startswith(f"SchemaError: {binary}: not UTF-8 text")
                for col in doc.values()] == [True, True]

    def test_file_changed_after_its_check_fails_cleanly(self, tmp_path, capsys, monkeypatch):
        binary = tmp_path / "bin.csv"
        binary.write_bytes(b"Date,Open\n2000-01-01,100.0\n2000-01-02,\xff\n")
        monkeypatch.setattr(ingest, "_check_utf8", lambda path, fh: None)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(binary), "--out-dir", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads((out / "table.json").read_text())
        assert [col["error"] for col in doc.values()] == [
            f"SchemaError: {binary}: not UTF-8 text: invalid start byte"] * 2

    @pytest.mark.parametrize("data, message", [
        (b"2000-01-01,100.0\n2000-01-02,101.0\n", "column 'Date' not in header"),
        (b"Date;Open\n2000-01-01;100.0\n2000-01-02;101.0\n", "column 'Date' not in header"),
        (b"", "empty file, no header"),
        (codecs.BOM_UTF8, "empty file, no header"),
    ], ids=["headerless", "semicolons", "empty", "byte_order_mark_only"])
    def test_file_without_date_column_fails(self, tmp_path, capsys, data, message):
        src = tmp_path / "raw.csv"
        src.write_bytes(data)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(src), "--out-dir", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads((out / "table.json").read_text())
        assert [col["error"].startswith(f"SchemaError: {src}: {message}")
                for col in doc.values()] == [True, True]

    def test_non_utf8_file_fails_only_its_columns(self, tmp_path):
        good, binary = tmp_path / "gauss.csv", tmp_path / "bin.csv"
        write_price_csv(good, n=500)
        binary.write_bytes(b"Date,Open\n2000-01-01,\xff\n")
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(good), "--input", str(binary),
                     "--out-dir", str(out)]) == 0
        table = read_table(out / "table.csv")
        for kind in ("raw", "absolute"):
            assert table["Skew"][f"bin ({kind})"].startswith("SchemaError: ")
            float(table["Skew"][f"gauss ({kind})"])

    def test_csv_parser_error_fails_only_its_columns(self, tmp_path, capsys):
        huge, good = tmp_path / "huge.csv", tmp_path / "ok.csv"
        huge.write_text('Date,Open\n2000-01-01,"' + "x" * (csv.field_size_limit() + 1) + '"\n')
        write_price_csv(good, n=500)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(huge), "--input", str(good),
                     "--out-dir", str(out)]) == 0
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads((out / "table.json").read_text())
        message = (f"SchemaError: {huge}: line 2: field larger than field limit "
                   f"({csv.field_size_limit()})")
        assert [doc[f"huge ({kind})"] for kind in ("raw", "absolute")] == [{"error": message}] * 2
        assert "Skew" in doc["ok (raw)"] and "Skew" in doc["ok (absolute)"]

    def test_table_csv_quotes_labels(self, tmp_path):
        src = tmp_path / 'q,"x".csv'
        write_price_csv(src, n=500)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(src), "--out-dir", str(out)]) == 0
        with open(out / "table.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["Statistic", 'q,"x" (raw)', 'q,"x" (absolute)']
        assert {len(row) for row in rows} == {3}

    def test_each_source_read_once(self, tmp_path, monkeypatch):
        reads = []
        read_prices_report = ingest.read_prices_report

        def counting(path, *args, **kwargs):
            reads.append(path)
            return read_prices_report(path, *args, **kwargs)

        monkeypatch.setattr(ingest, "read_prices_report", counting)
        good, single = tmp_path / "gauss.csv", tmp_path / "single.csv"
        write_price_csv(good, n=500)
        write_price_csv(single, n=1)  # one usable price: no returns
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(good), "--input", str(single),
                     "--out-dir", str(out)]) == 0
        assert reads == [str(good), str(single)]
        doc = json.loads((out / "table.json").read_text())
        error = {"error": "InsufficientData: need at least 2 prices for returns, got 1"}
        assert doc["single (raw)"] == doc["single (absolute)"] == error

    def test_reads_every_source_before_the_first_report(self, tmp_path, monkeypatch):
        events = []  # ("read", path) and ("report", returns), in call order
        read_prices, full_report = ingest.read_prices, stats.full_report

        def reading(path, *args, **kwargs):
            events.append(("read", path))
            return read_prices(path, *args, **kwargs)

        def reporting(returns, *args, **kwargs):
            events.append(("report", returns))
            return full_report(returns, *args, **kwargs)

        good, good2 = tmp_path / "good.csv", tmp_path / "good2.csv"
        missing, single = tmp_path / "missing.csv", tmp_path / "single.csv"
        write_price_csv(good, n=500)
        write_price_csv(good2, n=300, seed=1)
        write_price_csv(single, n=1)  # one usable price: no returns
        expected = []  # the reported series, in column order
        for src in (good, good2):
            raw = timeseries.log_returns(read_prices(str(src)))
            expected += [raw, timeseries.absolute_returns(raw)]
        monkeypatch.setattr(ingest, "read_prices", reading)
        monkeypatch.setattr(stats, "full_report", reporting)
        sources = [str(good), str(missing), str(good2), str(single)]
        out = tmp_path / "out"
        assert main(["analyze", *(arg for src in sources for arg in ("--input", src)),
                     "--out-dir", str(out)]) == 0

        kinds = [kind for kind, _ in events]
        assert kinds == ["read"] * 4 + ["report"] * 4
        assert [path for kind, path in events if kind == "read"] == sources
        reported = [returns for kind, returns in events if kind == "report"]
        assert all(np.array_equal(a, b) for a, b in zip(reported, expected, strict=True))
        with open(out / "table.csv", newline="") as fh:
            header = next(csv.reader(fh))[1:]
        assert header == [f"{label} ({kind})" for label in ("good", "missing", "good2", "single")
                          for kind in ("raw", "absolute")]
        # table.json holds the same columns under its sorted keys
        assert list(json.loads((out / "table.json").read_text())) == sorted(header)

    def test_price_ratio_past_the_float_range_is_analyzed(self, tmp_path):
        good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
        write_price_csv(good, n=200)
        write_overflowing_prices(bad)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(good), "--input", str(bad),
                     "--lags", "2", "--tail-fraction", "0.5", "--out-dir", str(out)]) == 0
        doc = json.loads((out / "table.json").read_text())
        for kind, returns in (("raw", EXTREME_RETURNS), ("absolute", np.abs(EXTREME_RETURNS))):
            expected = stats.full_report(returns, lags=[2], tail_fraction=0.5)
            assert doc[f"bad ({kind})"] == pytest.approx(expected, rel=1e-9)
        assert "Skew" in doc["good (raw)"]

    def test_failing_statistic_fails_only_its_cell(self, tmp_path):
        src = tmp_path / "q.csv"
        prices = write_price_csv(src, n=28)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(src), "--lags", "2,40", "--tail-fraction", "0.2",
                     "--out-dir", str(out)]) == 0
        doc, table = json.loads((out / "table.json").read_text()), read_table(out / "table.csv")
        raw = np.diff(np.log(prices))
        too_long = "LagTooLarge: lag 40 needs at least 42 points, got 27"
        for kind, returns in (("raw", raw), ("absolute", np.abs(raw))):
            column = doc[f"q ({kind})"]
            assert column.pop("AutoCorr 40") == table["AutoCorr 40"][f"q ({kind})"] == too_long
            expected = stats.full_report(returns, lags=(2,), tail_fraction=0.2)
            assert column == pytest.approx(expected, rel=1e-9)
            for row, value in expected.items():
                assert float(table[row][f"q ({kind})"]) == pytest.approx(value, abs=1e-5)

    def test_column_fails_when_every_cell_fails(self, tmp_path):
        good, flat = tmp_path / "good.csv", tmp_path / "flat.csv"
        write_price_csv(good, n=200)
        write_price_csv(flat, n=200, vol=0.0)  # every return is 0
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(flat), "--out-dir", str(out)]) == 1
        doc = json.loads((out / "table.json").read_text())
        assert doc["flat (raw)"]["Skew"] == "DegenerateSample: zero variance: skewness undefined"
        assert doc["flat (raw)"]["AutoCorr 10"] == (
            "DegenerateSample: zero variance: autocorrelation undefined")
        assert doc["flat (raw)"]["Hill 0.05"].startswith("InsufficientTail: ")
        assert main(["analyze", "--input", str(flat), "--input", str(good),
                     "--out-dir", str(out)]) == 0

    def test_byte_order_mark_reads_as_absent(self, tmp_path):
        (tmp_path / "plain").mkdir()
        (tmp_path / "marked").mkdir()
        plain, marked = tmp_path / "plain" / "p.csv", tmp_path / "marked" / "p.csv"
        write_price_csv(plain, n=300)
        marked.write_bytes(codecs.BOM_UTF8 + plain.read_bytes())
        for src in (plain, marked):
            assert main(["analyze", "--input", str(src),
                         "--out-dir", str(src.parent / "out")]) == 0
        for name in ("table.csv", "table.json"):
            assert ((tmp_path / "marked" / "out" / name).read_bytes()
                    == (tmp_path / "plain" / "out" / name).read_bytes())

    def test_requires_some_input(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        # a usage error comes before the --out-dir check
        for out in (tmp_path / "out", blocker):
            with pytest.raises(SystemExit) as exc:
                main(["analyze", "--out-dir", str(out)])
            assert exc.value.code == 2
            assert "analyze: need --input and/or --manifest" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert blocker.read_text() == "not a directory"

    def test_custom_lags_and_tail_fraction(self, tmp_path):
        src = tmp_path / "gauss.csv"
        write_price_csv(src, n=2000)
        out = tmp_path / "out"
        rc = main(["analyze", "--input", str(src), "--lags", "5,15",
                   "--tail-fraction", "0.1", "--out-dir", str(out)])
        assert rc == 0
        table = read_table(out / "table.csv")
        assert set(table) == {"Skew", "Excess Kurtosis", "Hill 0.1",
                              "AutoCorr 5", "AutoCorr 15"}


@pytest.mark.parametrize("argv, flag", [
    (["figures", "--bins", "0"], "--bins"),
    (["figures", "--bins", "-1"], "--bins"),
    (["figures", "--max-lag", "0"], "--max-lag"),
    (["analyze", "--tail-fraction", "nan"], "--tail-fraction"),
    (["analyze", "--tail-fraction", "inf"], "--tail-fraction"),
    (["analyze", "--tail-fraction", "0"], "--tail-fraction"),
    (["analyze", "--tail-fraction", "1"], "--tail-fraction"),
    (["ensemble", "--workers", "0"], "--workers"),
    (["ensemble", "--workers", "-1"], "--workers"),
    (["ensemble", "--replications", "0"], "--replications"),
    (["ensemble", "--replications", "-1"], "--replications"),
    (["analyze", "--lags", "10,10,5"], "--lags"),
    (["figures", "--bins", "100001"], "--bins"),
    (["figures", "--bins", "100000000"], "--bins"),
    (["analyze", "--tail-fraction", "abc"], "--tail-fraction"),
])
def test_bad_flag_is_usage_error(tmp_path, capsys, argv, flag):
    src = tmp_path / "gauss.csv"
    write_price_csv(src, n=200)
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--input", str(src), "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}: " in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["analyze", "--input", "{src}"],
    ["simulate", "--config", "{cfg}"],
    ["ensemble", "--config", "{cfg}", "--replications", "2"],
    ["figures", "--config", "{cfg}"],
], ids=lambda command: command[0])
@pytest.mark.parametrize("out_dir, message", [
    ("{blocker}", "{blocker}: {blocker} is not a directory"),
    ("{blocker}/out", "{blocker}/out: {blocker} is not a directory"),
    ("", "--out-dir '' names no directory"),
], ids=["file", "below_file", "empty"])
def test_out_dir_that_cannot_be_a_directory_fails_first(tmp_path, capsys, monkeypatch,
                                                         command, out_dir, message):
    src, cfg = tmp_path / "gauss.csv", write_config(tmp_path / "cfg.json")
    write_price_csv(src, n=200)
    cwd = tmp_path / "cwd"  # where an empty --out-dir would write
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    work = []  # every file read and every run, which the check must come before

    def spy(name):
        def record(*args, **kwargs):
            work.append(name)
            raise AssertionError(f"{name} called")
        return record

    monkeypatch.setattr(ingest, "_open", spy("read"))  # every input file opens here
    monkeypatch.setattr(sim, "run_simulation", spy("run_simulation"))
    monkeypatch.setattr(sim, "run_ensemble", spy("run_ensemble"))
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    argv = [arg.format(src=src, cfg=cfg) for arg in command]
    assert main([*argv, "--out-dir", out_dir.format(blocker=blocker)]) == 1
    assert capsys.readouterr().err == f"UnwritableOutput: {message.format(blocker=blocker)}\n"
    assert work == []
    assert blocker.read_text() == "not a directory"
    assert list(cwd.iterdir()) == []


# a price cell: any positive float (subnormals too), or one that ingest skips
positive_cells = st.floats(0.0, sys.float_info.max, exclude_min=True).map(repr)
price_cells = st.one_of(
    positive_cells, positive_cells,
    st.sampled_from(["", "abc", "nan", "inf", "-1.0", "0", "-0.0", "1e309", "5e-325"]),
)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.lists(price_cells, max_size=40), st.sampled_from(["1", "1,2"]),
       st.sampled_from(["0.2", "0.5"]))
def test_analyze_fuzz_ends_in_an_exit_code_and_finite_cells(cells, lags, tail_fraction):
    with tempfile.TemporaryDirectory() as tmp:
        src, out = os.path.join(tmp, "p.csv"), os.path.join(tmp, "out")
        with open(src, "w") as fh:
            fh.write("Date,Open\n")
            for k, cell in enumerate(cells):
                fh.write(f"{dt.date(2000, 1, 1) + dt.timedelta(days=k)},{cell}\n")
        code = main(["analyze", "--input", src, "--lags", lags,
                     "--tail-fraction", tail_fraction, "--out-dir", out])
        assert code in (0, 1)
        if code == 0:
            with open(os.path.join(out, "table.json")) as fh:
                doc = json.load(fh)
            numbers = [v for column in doc.values() for v in column.values() if not isinstance(v, str)]
            assert numbers and all(math.isfinite(v) for v in numbers)


# one small config per model; the fuzz below mutates them field by field
FUZZ_CONFIGS = {
    "fw": {
        "model": "fw_two_agent", "steps": 200, "dt": 0.1, "seed": 3,
        "initial_log_price": 0.0, "burn_in": 20,
        "price_rule": {"gamma": 1.0, "noise": "constant", "sigma0": 0.05, "delta": 0.0},
        "fw": {"a": 1.0, "b": 0.8, "log_fundamental": 0.0, "noise_std": 0.3},
    },
    "herding": {
        "model": "cross_herding", "steps": 200, "dt": 0.02, "seed": 3,
        "initial_log_price": 0.0, "burn_in": 20,
        "price_rule": {"gamma": 0.0, "noise": "proportional", "sigma0": 0.0, "delta": 0.03},
        "herding": {"n_agents": 50, "threshold_min": 1.0, "threshold_max": 2.0,
                    "ed_noise_std": 1.0},
    },
}
# the dotted path of every field and section of those configs, by model
FUZZ_SITES = {model: [f"{key}.{sub}" if sub else key for key, value in cfg.items()
                      for sub in [None, *(value if isinstance(value, dict) else ())]]
              for model, cfg in FUZZ_CONFIGS.items()}
SHORT_SCHEDULE = object()  # stands for a per-step list one value short of the steps
# huge ints are past what numpy can allocate, so no mutation allocates much
EDGE_VALUES = [0, -1, 2**62, 2**64, 10**20, 1e-320, 1e308, -1e308, math.nan, math.inf,
               -math.inf, "1", None, True, [], {}, SHORT_SCHEDULE]


def mutated_config(model, mutations):
    cfg = copy.deepcopy(FUZZ_CONFIGS[model])
    for path, value in mutations:
        if value is SHORT_SCHEDULE:
            value = [0.5] * (FUZZ_CONFIGS[model]["steps"] - 1)
        value = copy.deepcopy(value)  # a later mutation may write into it
        *section, key = path.split(".")
        target = cfg[section[0]] if section else cfg
        if isinstance(target, dict):  # an earlier mutation may have replaced it
            target[key] = value
    return cfg


def run_cli(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:  # argparse's usage errors
        return exc.code


def assert_finite_files(out_dir):
    """No file under ``out_dir`` holds a NaN or an infinity."""
    for root, _, names in os.walk(out_dir):
        for name in names:
            with open(os.path.join(root, name)) as fh:
                text = fh.read()
            if name.endswith(".json"):  # json.dump writes them as NaN, Infinity, -Infinity
                json.loads(text, parse_constant=lambda token: pytest.fail(f"{name}: {token}"))
                continue
            for row in csv.reader(text.splitlines()):
                for cell in row:
                    with contextlib.suppress(ValueError):  # a header, label or error cell
                        assert math.isfinite(float(cell)), (name, row)


def optional_flag(flag, values):
    return st.one_of(st.just([]), st.sampled_from(values).map(lambda v: [flag, v]))


# zero to two (path, value) mutations of one model's config
config_mutations = st.sampled_from(list(FUZZ_CONFIGS)).flatmap(lambda model: st.tuples(
    st.just(model),
    st.lists(st.tuples(st.sampled_from(FUZZ_SITES[model]), st.sampled_from(EDGE_VALUES)),
             max_size=2),
))


@settings(max_examples=150, derandomize=True, deadline=None)
@given(config_mutations,
       optional_flag("--lags", ["1", "5,1", "10,100", "179", "180", "0", "-1", "1.5", "x",
                                "", "1,1", str(10**20)]),
       optional_flag("--max-lag", ["1", "100", "179", "180", "0", "-1", "x", str(10**20)]),
       optional_flag("--bins", ["1", "40", "5000", "100001", "0", "x"]),
       st.sampled_from(["1", "3"]))
def test_sim_commands_fuzz_end_in_an_exit_code_and_finite_files(
        mutations, lags, max_lag, bins, replications):
    model, mutations = mutations
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "cfg.json")
        with open(cfg, "w") as fh:
            json.dump(mutated_config(model, mutations), fh)
        for command, flags in (
            ("simulate", []),
            ("ensemble", ["--replications", replications, "--workers", "1", *lags]),
            ("figures", [*max_lag, *bins]),
        ):
            out = os.path.join(tmp, command)
            code = run_cli([command, "--config", cfg, *flags, "--out-dir", out])
            assert code in (0, 1, 2)
            if code == 0:
                assert_finite_files(out)


MANIFEST_KEYS = ["label", "path", "from", "to", "price_column"]
WRONG_TYPES = [5, -1, 1.5, 2**64, 1e308, math.nan, None, True, [], {}, "", "x", "2000-02-30"]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 1), st.sampled_from([None, *MANIFEST_KEYS]),
                          st.sampled_from(WRONG_TYPES)), max_size=3),
       optional_flag("--from", ["2000-02-01", "2000-02-30", "x"]),
       optional_flag("--to", ["2000-05-01", "1999-01-01"]),
       optional_flag("--price-column", ["Close", "High", "x"]),
       optional_flag("--lags", ["1", "5,1", "150", "x"]))
def test_manifest_fuzz_ends_in_an_exit_code_and_finite_files(mutations, from_, to, column, lags):
    with tempfile.TemporaryDirectory() as tmp:
        src, manifest = os.path.join(tmp, "p.csv"), os.path.join(tmp, "m.json")
        out = os.path.join(tmp, "out")
        write_price_csv(src, n=200)
        entries = [{"label": "a", "path": src, "from": "2000-01-10", "to": "2000-06-30",
                    "price_column": "Open"}, {"label": "b", "path": src}]
        for index, key, value in mutations:  # key None: the whole entry
            value = copy.deepcopy(value)  # a later mutation may write into it
            if key is None:
                entries[index] = value
            elif isinstance(entries[index], dict):
                entries[index][key] = value
        with open(manifest, "w") as fh:
            json.dump(entries, fh)
        code = run_cli(["analyze", "--manifest", manifest, *from_, *to, *column, *lags,
                        "--out-dir", out])
        assert code in (0, 1, 2)
        if code == 0:
            assert_finite_files(out)


@pytest.mark.parametrize("command", ["simulate", "ensemble", "figures"])
def test_seed_comes_only_from_the_config(tmp_path, capsys, command):
    cfg = write_config(tmp_path / "cfg.json")
    required = ["--replications", "1"] if command == "ensemble" else []
    with pytest.raises(SystemExit) as exc:
        main([command, "--config", str(cfg), *required, "--seed", "1",
              "--out-dir", str(tmp_path / "out")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestSimulate:
    def test_outputs_and_byte_identity(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_b)]) == 0
        for name in ("sim_logprices.csv", "sim_returns.csv", "sim_diagnostics.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_zero_noise_fixed_point(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "fw_two_agent", "steps": 100, "dt": 1.0, "seed": 0,
            "price_rule": {"gamma": 1.0, "sigma0": 0.0},
            "fw": {"a": 1.0, "b": 0.5, "log_fundamental": 0.0, "noise_std": 0.0},
        }))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
        rows = (out / "sim_returns.csv").read_text().strip().splitlines()[1:]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        # a bad value is a ConfigError naming its field; a file that cannot be
        # read or parsed is an error naming the file.  The third document
        # nests past the JSON decoder's recursion limit.
        for data, expected in [
            (json.dumps({"model": "fw_two_agent"}).encode(), "ConfigError: steps: required\n"),
            (b"{not json", f"SchemaError: {cfg}: not valid JSON: "),
            (b"[" * 100_000, f"SchemaError: {cfg}: not valid JSON: "),
            (b'{"model": "fw_two_agent", "steps": 10, "steps": 50}',
             f"SchemaError: {cfg}: key 'steps' repeated in one object\n"),
            (codecs.BOM_UTF8 + b'{"model": "fw_two_agent", "steps": 50, "x": "\xff"}',
             f"SchemaError: {cfg}: not UTF-8 text: invalid start byte at byte 48\n"),
            (None, f"UnreadableFile: {cfg}: No such file or directory\n"),
        ]:
            if data is None:
                cfg.unlink()
            else:
                cfg.write_bytes(data)
            assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith(expected)
            assert "Traceback" not in err


    @pytest.mark.parametrize("overrides, field", [
        ({"steps": 2**62}, "steps"),
        ({"steps": 20, "herding": {"n_agents": 2**62}}, "herding.n_agents"),
        ({"steps": 20, "herding": {"n_agents": 2**64}}, "herding.n_agents"),
    ])
    def test_size_too_large_to_allocate(self, tmp_path, capsys, overrides, field):
        # numpy refuses 2**62 float64s, or a count past a C long, before it allocates anything
        size = overrides
        for key in field.split("."):
            size = size[key]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "cross_herding", **overrides}))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith(
            f"ConfigError: {field}: {size} is too large to allocate: ")
        assert not out.exists()


class TestEnsemble:
    def test_summary_and_parallel_identity(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json", steps=1000)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        rc = main(["ensemble", "--config", str(cfg), "--replications", "3",
                   "--out-dir", str(out_a)])
        assert rc == 0
        rc = main(["ensemble", "--config", str(cfg), "--replications", "3",
                   "--workers", "2", "--out-dir", str(out_b)])
        assert rc == 0
        names = [f"rep{r:03d}_returns.csv" for r in range(3)] + ["ensemble_summary.json"]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        summary = json.loads((out_a / "ensemble_summary.json").read_text())
        assert summary["replications"] == 3
        assert "Excess Kurtosis" in summary["raw"]
        assert set(summary["raw"]["Skew"]) == {"mean", "std"}

    def test_lag_too_long_fails_before_simulating(self, tmp_path, capsys, monkeypatch):
        def not_called(*args, **kwargs):
            raise AssertionError("run_ensemble called")

        monkeypatch.setattr(sim, "run_ensemble", not_called)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FW_CONFIG, "steps": 20}))
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(cfg), "--replications", "2",
                     "--lags", "10,100", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        # 20 steps less the default burn-in of 2 leave 18 returns
        assert err == "LagTooLarge: lag 100 needs at least 102 points, got 18\n"
        assert not out.exists()

    def test_failing_statistic_writes_no_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({  # a constant price: every return is 0
            **FW_CONFIG, "steps": 200,
            "price_rule": {"gamma": 1.0, "noise": "constant", "sigma0": 0.0},
            "fw": {"a": 0.0, "b": 0.0, "noise_std": 0.0},
        }))
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(cfg), "--replications", "2",
                     "--lags", "10", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "DegenerateSample: zero variance: autocorrelation undefined "
            "(replication 0, seed 11)\n")
        assert not out.exists() or not list(out.iterdir())

    def test_failing_statistic_names_its_replication(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({  # seed 2 is an exact tie: its price never moves
            "model": "cross_herding", "steps": 2000, "dt": 0.02, "seed": 1,
            "price_rule": {"noise": "proportional", "delta": 0.03},
            "herding": {"n_agents": 1000, "ed_noise_std": 0.0},
        }))
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(cfg), "--replications", "3",
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            "DegenerateSample: zero variance: autocorrelation undefined "
            "(replication 1, seed 2)\n")
        assert not out.exists() or not list(out.iterdir())

    def test_underflowing_variance_writes_no_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({  # returns of about 1e-120: var ** 1.5 is 0.0
            **FW_CONFIG, "steps": 200,
            "price_rule": {"gamma": 1.0, "noise": "constant", "sigma0": 1e-120},
            "fw": {"a": 0.0, "b": 0.0, "noise_std": 0.0},
        }))
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(cfg), "--replications", "2",
                     "--lags", "10", "--out-dir", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("DegenerateSample: variance ")
        assert err.endswith(" underflows to 0 at power 1.5: skewness undefined "
                            "(replication 0, seed 11)\n")
        assert not out.exists() or not list(out.iterdir())

    @pytest.fixture
    def opened(self, monkeypatch):
        """The sizes of the pools opened; each runs its jobs in this process."""
        opened = []

        class InlinePool:
            """Records its size and runs the jobs in this process."""

            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, job):
                future = concurrent.futures.Future()
                future.set_result(fn(job))
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        return opened

    def test_pool_capped_at_replications(self, tmp_path, monkeypatch, opened):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(16)), raising=False)
        cfg = write_config(tmp_path / "cfg.json", steps=400)
        assert main(["ensemble", "--config", str(cfg), "--replications", "2",
                     "--workers", "8", "--out-dir", str(tmp_path / "out")]) == 0
        assert opened == [2]

    @pytest.mark.parametrize("cpus, pools", [({0, 2, 5}, [3]), ({1}, []), (None, [4])],
                             ids=["affinity", "one_cpu", "cpu_count"])
    def test_pool_capped_at_usable_cpus(self, tmp_path, monkeypatch, opened, cpus, pools):
        # None: a platform without sched_getaffinity, where os.cpu_count() counts
        monkeypatch.setattr(os, "cpu_count", lambda: 4 if cpus is None else 64)
        if cpus is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        cfg = write_config(tmp_path / "cfg.json", steps=400)
        out = tmp_path / "out"
        assert main(["ensemble", "--config", str(cfg), "--replications", "5",
                     "--workers", "8", "--out-dir", str(out)]) == 0
        assert opened == pools
        assert len(list(out.glob("rep*_logprices.csv"))) == 5


class TestFigures:
    def test_from_simulation_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        rc = main(["figures", "--config", str(cfg), "--max-lag", "50",
                   "--bins", "40", "--out-dir", str(out)])
        assert rc == 0
        hist = list(csv.DictReader((out / "histogram.csv").read_text().splitlines()))
        assert len(hist) == 40
        assert sum(int(r["count"]) for r in hist) == 1800  # steps - burn_in returns
        acf = list(csv.DictReader((out / "acf_abs.csv").read_text().splitlines()))
        assert [int(r["lag"]) for r in acf] == list(range(1, 51))
        assert all(-1.0 <= float(r["autocorrelation"]) <= 1.0 for r in acf)

    def test_from_price_file_qq_near_identity(self, tmp_path):
        src = tmp_path / "gauss.csv"
        write_price_csv(src, n=5000)
        out = tmp_path / "out"
        rc = main(["figures", "--input", str(src), "--out-dir", str(out)])
        assert rc == 0
        pairs = np.array(
            [(float(r["theoretical_quantile"]), float(r["empirical_quantile"]))
             for r in csv.DictReader((out / "qq.csv").read_text().splitlines())]
        )
        n = len(pairs)
        central = pairs[int(0.005 * n): int(0.995 * n)]
        assert np.max(np.abs(central[:, 0] - central[:, 1])) < 1e-2

    def test_requires_exactly_one_source(self, tmp_path, capsys):
        cfg, src = write_config(tmp_path / "cfg.json"), tmp_path / "p.csv"
        write_price_csv(src, n=200)
        out = tmp_path / "out"
        both = "argument --config: not allowed with argument --input"
        for sources, message in [
            ([], "one of the arguments --input --config is required"),
            (["--input", str(src), "--config", str(cfg)], both),
            (["--input", "", "--config", str(cfg)], both),
            (["--config", str(cfg), "--input", str(src)],
             "argument --input: not allowed with argument --config"),
        ]:
            with pytest.raises(SystemExit) as exc:
                main(["figures", *sources, "--out-dir", str(out)])
            assert exc.value.code == 2
            assert capsys.readouterr().err.endswith(f"marketfacts figures: error: {message}\n")
        assert not out.exists()
        # an empty --input is one source, a file that cannot be read
        assert main(["figures", "--input", "", "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "UnreadableFile: : No such file or directory\n"
        assert not out.exists()

    def test_input_takes_window_and_price_column(self, tmp_path):
        src = tmp_path / "p.csv"
        write_price_csv(src, n=200)
        out = tmp_path / "out"
        assert main(["figures", "--input", str(src), "--from", "2000-02-01",
                     "--price-column", "Close", "--out-dir", str(out)]) == 0
        hist = list(csv.DictReader((out / "histogram.csv").read_text().splitlines()))
        assert sum(int(r["count"]) for r in hist) == 168  # 169 prices from Feb 1

    @pytest.mark.parametrize("source, flag, value", [
        ("--config", "--from", "2000-01-01"),
        ("--config", "--to", "2000-12-31"),
        ("--config", "--price-column", "Close"),
    ])
    def test_flag_the_source_ignores_is_usage_error(self, tmp_path, capsys, source, flag, value):
        cfg = write_config(tmp_path / "cfg.json")
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        # a usage error comes before the --out-dir check
        for out in (tmp_path / "out", blocker):
            with pytest.raises(SystemExit) as exc:
                main(["figures", source, str(cfg), flag, value, "--out-dir", str(out)])
            assert exc.value.code == 2
            assert f"figures: {flag} not used with {source}" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert blocker.read_text() == "not a directory"

    def test_failure_writes_no_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FW_CONFIG, "steps": 20}))
        out = tmp_path / "out"
        assert main(["figures", "--config", str(cfg), "--max-lag", "100",
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("LagTooLarge: ")
        assert not out.exists() or not list(out.iterdir())

    def test_too_long_max_lag_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FW_CONFIG, "steps": 20}))
        assert main(["figures", "--config", str(cfg), "--max-lag", "100",
                     "--out-dir", str(tmp_path / "out")]) == 1
        # 20 steps less the default burn-in of 2 leave 18 returns
        assert capsys.readouterr().err == "LagTooLarge: lag 100 needs at least 102 points, got 18\n"

    def test_too_long_max_lag_fails_before_simulating(self, tmp_path, capsys, monkeypatch):
        runs = []
        monkeypatch.setattr(sim, "run_simulation", lambda config: runs.append(config))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FW_CONFIG, "steps": 20}))
        out = tmp_path / "out"
        assert main(["figures", "--config", str(cfg), "--max-lag", "100",
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == "LagTooLarge: lag 100 needs at least 102 points, got 18\n"
        assert runs == []
        assert not out.exists()

    def test_huge_max_lag_fails_before_building_lags(self, tmp_path, capsys):
        max_lag = 10**20  # too many lags for any list
        src = tmp_path / "p.csv"
        write_price_csv(src, n=200)  # 199 returns
        out = tmp_path / "out"
        assert main(["figures", "--input", str(src), "--max-lag", str(max_lag),
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"LagTooLarge: lag {max_lag} needs at least {max_lag + 2} points, got 199\n")
        assert not out.exists()

    def test_price_ratio_past_the_float_range_is_plotted(self, tmp_path, capsys):
        src = tmp_path / "bad.csv"
        write_overflowing_prices(src)
        out = tmp_path / "out"
        assert main(["figures", "--input", str(src), "--max-lag", "2",
                     "--out-dir", str(out)]) == 0
        assert capsys.readouterr().err == ""
        with open(out / "qq.csv") as fh:
            empirical = [float(row["empirical_quantile"]) for row in csv.DictReader(fh)]
        np.testing.assert_allclose(empirical, np.sort(EXTREME_RETURNS), rtol=1e-14)

    def test_repeat_is_byte_identical(self, tmp_path):
        src = tmp_path / "gauss.csv"
        write_price_csv(src, n=1000)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["figures", "--input", str(src), "--out-dir", str(out_a)])
        main(["figures", "--input", str(src), "--out-dir", str(out_b)])
        for name in ("histogram.csv", "qq.csv", "acf_raw.csv", "acf_abs.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


FW_CONFIG = {
    "model": "fw_two_agent", "steps": 2000, "dt": 0.1, "seed": 11,
    "price_rule": {"gamma": 1.0, "noise": "constant", "sigma0": 0.05},
    "fw": {"a": 1.0, "b": 0.8, "log_fundamental": 0.0, "noise_std": 0.3},
}

# SHA-256 of every file each command writes; a change to any output byte
# must show up here, not only in the benchmark's golden digests.
PINNED_DIGESTS = {
    "simulate": {
        "sim_diagnostics.json": "c257ea81e9e5274a94b2644de4f4392ac39d389981e9d3fe73454d18bbdfaff6",
        "sim_logprices.csv": "edbe548ca3b7e642a305fecb61e241065aeb2df865248106fc67ae4c27ba0204",
        "sim_returns.csv": "f77fcabce46e90a0f21a5f514c13ad3aaa6e1702236e3d2e344469454d9f4769",
    },
    "ensemble": {
        "ensemble_summary.json": "e7d8c568d60592b94d40cf166444aa1e4e9373aeb4d8adb159c6c7c267bba758",
        "rep000_diagnostics.json": "80d3dfea9c1929ea1071609ce8cecce967b78cac43ac47c77ac53f8711960b36",
        "rep000_logprices.csv": "4df70d0b66abbe762352cc1feb38fd9e33e642ff363bb01f70ec581a961b5437",
        "rep000_returns.csv": "df70b5f3228a1cb0282efee3a39016b692578c3a19e35c16b5b4707ea72d5983",
        "rep001_diagnostics.json": "8ad983d4e370efb045cbd3ba3a46302b01c13ec672e43f7acb0daee026ec4656",
        "rep001_logprices.csv": "8c7ba57c1198d93741a00feb247ce51a0fd6c80cc8bcd21f07544f33e98596d6",
        "rep001_returns.csv": "12c9395bdc1745bbc271b24909f967e2fcf6d20bd84e1dd50722673594a88615",
    },
    "figures": {
        "acf_abs.csv": "83c224f9d6bc86ec13d67a123d84f68902eecc23f46c9bd96b0de6fa2ae539e4",
        "acf_raw.csv": "8d59f9076d7f818470f5ce4f6b9fa0d364ba8351af93471b6feff9f5475d039f",
        "histogram.csv": "76b379a6973601330cc2da07465d6ddd11ae562cbb134a896a92136e3470110f",
        "qq.csv": "7ed7b8264013fe2b7d909ff7d2378c46b678d60f87f8842042f7b6b618dc8766",
    },
    "analyze": {
        "table.csv": "eaccdc1d247e1da4828b1cdf540b1127943bbe6590b70331d1df9bc99a80b0d6",
        "table.json": "8506c0ca28321b7a8fd3ba3e6c939c1a848e04aeec376aa5268ea884fe3a9f21",
    },
}


def test_output_bytes_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # relative paths keep error cells free of tmp_path
    (tmp_path / "fw.json").write_text(json.dumps(FW_CONFIG))
    write_config(tmp_path / "cross.json", steps=3000)
    write_price_csv(tmp_path / "a.csv", n=500, seed=1)
    write_price_csv(tmp_path / "b.csv", n=400, seed=2)
    with open(tmp_path / "b.csv", "a") as fh:
        fh.write("2002-01-01,n/a,0,0,n/a,0\n")
    (tmp_path / "m.json").write_text(json.dumps(
        [{"label": "b", "path": "b.csv", "from": "2000-03-01"}]))
    runs = {
        "simulate": ["simulate", "--config", "fw.json"],
        "ensemble": ["ensemble", "--config", "cross.json", "--replications", "2",
                     "--workers", "1"],
        "figures": ["figures", "--config", "cross.json", "--max-lag", "20",
                    "--bins", "30"],
        "analyze": ["analyze", "--input", "a.csv", "--input", "missing.csv",
                    "--manifest", "m.json"],
    }
    for name, argv in runs.items():
        assert main([*argv, "--out-dir", name]) == 0
    digests = {
        name: {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in sorted((tmp_path / name).iterdir())}
        for name in runs
    }
    assert digests == PINNED_DIGESTS
