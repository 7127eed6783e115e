import csv
import datetime as dt
import hashlib
import json
import math

import numpy as np
import pytest

from marketfacts import ingest, sim
from marketfacts.cli import main
from marketfacts.sim import config_to_dict, cross_herding_defaults


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


def write_config(path, **overrides):
    cfg = config_to_dict(cross_herding_defaults(seed=7, steps=2000))
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

    def test_all_columns_fail(self, tmp_path):
        manifest = tmp_path / "m.json"
        src = tmp_path / "gauss.csv"
        write_price_csv(src, n=100)
        manifest.write_text(json.dumps([
            {"label": "bad", "path": str(src), "from": "2050-01-01", "to": "2050-12-31"},
        ]))
        rc = main(["analyze", "--manifest", str(manifest),
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 1

    @pytest.mark.parametrize("window, message", [
        (["--from", "2000/01/01"], "InvalidWindow: from: '2000/01/01' is not a YYYY-MM-DD date"),
        (["--from", "2001-01-01", "--to", "2000-01-01"],
         "InvalidWindow: from: window start 2001-01-01 after end 2000-01-01"),
    ])
    def test_bad_window_fails_every_column(self, tmp_path, window, message):
        src = tmp_path / "gauss.csv"
        write_price_csv(src, n=100)
        out = tmp_path / "out"
        rc = main(["analyze", "--input", str(src), *window, "--out-dir", str(out)])
        assert rc == 1
        doc = json.loads((out / "table.json").read_text())
        assert [col["error"] for col in doc.values()] == [message, message]

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
            assert doc[f"no_file ({kind})"]["error"].startswith(f"UnreadableFile: {missing}")

    def test_malformed_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "m.json"
        # the second document nests past the JSON decoder's recursion limit
        for text in ('[{"label": "x",', "[" * 100_000):
            manifest.write_text(text)
            rc = main(["analyze", "--manifest", str(manifest), "--out-dir", str(tmp_path / "out")])
            assert rc == 1
            err = capsys.readouterr().err
            assert err.startswith(f"SchemaError: {manifest}: manifest is not valid JSON")
            assert "Traceback" not in err

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

    @pytest.mark.parametrize("text", [
        "2000-01-01,100.0\n2000-01-02,101.0\n",
        "Date;Open\n2000-01-01;100.0\n2000-01-02;101.0\n",
    ], ids=["headerless", "semicolons"])
    def test_file_without_date_column_fails(self, tmp_path, capsys, text):
        src = tmp_path / "raw.csv"
        src.write_text(text)
        out = tmp_path / "out"
        assert main(["analyze", "--input", str(src), "--out-dir", str(out)]) == 1
        assert "Traceback" not in capsys.readouterr().err
        doc = json.loads((out / "table.json").read_text())
        assert [col["error"].startswith(f"SchemaError: {src}: column 'Date' not in header")
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

    def test_requires_some_input(self, tmp_path):
        assert main(["analyze", "--out-dir", str(tmp_path)]) == 2

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


class TestSimulate:
    def test_outputs_and_byte_identity(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_a)]) == 0
        assert main(["simulate", "--config", str(cfg), "--out-dir", str(out_b)]) == 0
        for name in ("sim_logprices.csv", "sim_returns.csv", "sim_diagnostics.json"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(cfg), "--out-dir", str(out_a)])
        main(["simulate", "--config", str(cfg), "--seed", "99", "--out-dir", str(out_b)])
        assert (out_a / "sim_returns.csv").read_bytes() != (out_b / "sim_returns.csv").read_bytes()

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
        # the second document nests past the JSON decoder's recursion limit
        for text in (json.dumps({"model": "fw_two_agent"}), "[" * 100_000):
            cfg.write_text(text)
            assert main(["simulate", "--config", str(cfg), "--out-dir", str(tmp_path)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("ConfigError")
            assert "Traceback" not in err


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

    def test_pool_capped_at_replications(self, tmp_path, monkeypatch):
        opened = []

        class InlinePool:
            """Records its size and runs the jobs in this process."""

            def __init__(self, max_workers):
                opened.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, jobs):
                return map(fn, jobs)

        monkeypatch.setattr(sim, "ProcessPoolExecutor", InlinePool)
        cfg = write_config(tmp_path / "cfg.json", steps=400)
        assert main(["ensemble", "--config", str(cfg), "--replications", "2",
                     "--workers", "8", "--out-dir", str(tmp_path / "out")]) == 0
        assert opened == [2]


class TestFigures:
    def test_from_simulation_config(self, tmp_path):
        cfg = write_config(tmp_path / "cfg.json")
        out = tmp_path / "out"
        rc = main(["figures", "--config", str(cfg), "--max-lag", "50",
                   "--bins", "40", "--out-dir", str(out)])
        assert rc == 0
        hist = list(csv.DictReader(open(out / "histogram.csv")))
        assert len(hist) == 40
        assert sum(int(r["count"]) for r in hist) == 1800  # steps - burn_in returns
        acf = list(csv.DictReader(open(out / "acf_abs.csv")))
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
             for r in csv.DictReader(open(out / "qq.csv"))]
        )
        n = len(pairs)
        central = pairs[int(0.005 * n): int(0.995 * n)]
        assert np.max(np.abs(central[:, 0] - central[:, 1])) < 1e-2

    def test_requires_exactly_one_source(self, tmp_path):
        assert main(["figures", "--out-dir", str(tmp_path)]) == 2

    def test_input_takes_window_and_price_column(self, tmp_path):
        src = tmp_path / "p.csv"
        write_price_csv(src, n=200)
        out = tmp_path / "out"
        assert main(["figures", "--input", str(src), "--from", "2000-02-01",
                     "--price-column", "Close", "--out-dir", str(out)]) == 0
        hist = list(csv.DictReader(open(out / "histogram.csv")))
        assert sum(int(r["count"]) for r in hist) == 168  # 169 prices from Feb 1

    @pytest.mark.parametrize("source, flag, value", [
        ("--config", "--from", "2000-01-01"),
        ("--config", "--to", "2000-12-31"),
        ("--config", "--price-column", "Close"),
        ("--input", "--seed", "3"),
    ])
    def test_flag_the_source_ignores_is_usage_error(self, tmp_path, capsys, source, flag, value):
        paths = {"--config": write_config(tmp_path / "cfg.json"), "--input": tmp_path / "p.csv"}
        write_price_csv(paths["--input"], n=200)
        out = tmp_path / "out"
        assert main(["figures", source, str(paths[source]), flag, value,
                     "--out-dir", str(out)]) == 2
        assert f"figures: {flag} not used with {source}" in capsys.readouterr().err
        assert not out.exists()

    def test_failure_writes_no_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**FW_CONFIG, "steps": 20}))
        out = tmp_path / "out"
        assert main(["figures", "--config", str(cfg), "--max-lag", "100",
                     "--out-dir", str(out)]) == 1
        assert capsys.readouterr().err.startswith("LagTooLarge: ")
        assert not out.exists() or not list(out.iterdir())

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
