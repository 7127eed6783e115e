"""The benchmark workloads: the simulation half and the measurement half.

Each workload makes its inputs from the workload seed alone, names the CLI
commands one iteration runs, and checks properties of the outputs that hold
for every seed.  Paths in inputs and commands are relative to the run
directory the benchmark works in, so input files and outputs are the same
bytes wherever the benchmark runs.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
import os

import numpy as np

RAW, ABSOLUTE = "raw", "absolute"


def _write_json(path, doc) -> str:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def _read_rows(path) -> list[list[str]]:
    """Data rows of a CSV file the CLI wrote (header dropped)."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _expect_files(out_dir, names, problems) -> bool:
    found = sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else []
    if found != sorted(names):
        problems.append(f"{out_dir}: files {found}, expected {sorted(names)}")
        return False
    return True


def _sim_seed(rng) -> int:
    return int(rng.integers(2**32))


class Simulation:
    """The simulation half.  One iteration runs `ensemble` over the
    calibrated cross-herding market (N=1000 agents, dt 0.02, proportional
    noise; R replications across the pool), then `figures` on a long
    two-agent FW run with constant weights and noise, then `simulate` on a
    short FW run driven by a per-step fundamental value.

    One workload rather than two, so that each benchmark run can measure
    long enough to average out the host's speed swings; the per-layer trace
    still separates the herding and FW layers.
    """

    name = "simulation"
    work_name = "steps_per_s"
    uses_pool = True
    replications = 2
    max_lag = 100
    bins = 200
    # spans every traced iteration must reach, besides those in calls()
    reached = (
        "environment.population_excess_demand", "environment.switch_count",
        "agents.weights_at", "agents.fundamental_at", "agents.franke_westerhoff_ED",
        "sim.run_simulation", "sim.run_ensemble", "sim.write_sim_output",
        "stats.full_report", "stats.histogram_data", "stats.qq_data", "stats.acf_profile",
        "timeseries.absolute_returns",
    )

    def __init__(self, smoke: bool):
        self.herding_steps = 300 if smoke else 20_000
        self.figure_steps = 3_000 if smoke else 100_000
        self.schedule_steps = 200 if smoke else 4_000
        self.work = (self.replications * self.herding_steps
                     + self.figure_steps + self.schedule_steps)

    def calls(self) -> dict[str, int]:
        """Exact call counts of the per-step spans in one traced iteration,
        which runs the replications in-process."""
        herding = self.replications * self.herding_steps
        return {"environment.herding_step": herding, "market.price_step": self.work}

    @staticmethod
    def _fw_config(steps, seed, log_fundamental):
        return {
            "model": "fw_two_agent",
            "steps": steps,
            "dt": 0.1,
            "seed": seed,
            "price_rule": {"gamma": 1.0, "noise": "constant", "sigma0": 0.05},
            "fw": {"a": 1.0, "b": 0.8, "log_fundamental": log_fundamental,
                   "noise_std": 0.3},
        }

    def make_inputs(self, seed: int, in_dir: str) -> dict:
        rng = np.random.default_rng((seed, 1))
        herding = {
            "model": "cross_herding",
            "steps": self.herding_steps,
            "dt": 0.02,
            "seed": _sim_seed(rng),
            "price_rule": {"gamma": 0.0, "noise": "proportional", "delta": 0.03},
            "herding": {"n_agents": 1000, "threshold_min": 1.0,
                        "threshold_max": 2.0, "ed_noise_std": 1.0},
        }
        rng = np.random.default_rng((seed, 2))
        figure = self._fw_config(self.figure_steps, _sim_seed(rng), 0.0)
        walk = np.cumsum(rng.normal(0.0, 0.01, self.schedule_steps))
        schedule = self._fw_config(self.schedule_steps, _sim_seed(rng),
                                   [float(v) for v in walk])
        return {
            "config": _write_json(os.path.join(in_dir, "herding.json"), herding),
            "figure_config": _write_json(os.path.join(in_dir, "fw_figure.json"), figure),
            "schedule_config": _write_json(os.path.join(in_dir, "fw_schedule.json"), schedule),
        }

    def commands(self, inputs: dict, out_dir: str, workers: int) -> list[list[str]]:
        return [
            ["ensemble", "--config", inputs["config"],
             "--replications", str(self.replications),
             "--workers", str(workers), "--out-dir", os.path.join(out_dir, "ensemble")],
            ["figures", "--config", inputs["figure_config"],
             "--max-lag", str(self.max_lag), "--bins", str(self.bins),
             "--out-dir", os.path.join(out_dir, "figures")],
            ["simulate", "--config", inputs["schedule_config"],
             "--out-dir", os.path.join(out_dir, "simulate")],
        ]

    def check(self, inputs: dict, out_dir: str) -> list[str]:
        problems: list[str] = []
        ensemble = os.path.join(out_dir, "ensemble")
        names = [f"rep{r:03d}_{suffix}" for r in range(self.replications)
                 for suffix in ("logprices.csv", "returns.csv", "diagnostics.json")]
        if _expect_files(ensemble, names + ["ensemble_summary.json"], problems):
            for r in range(self.replications):
                rows = len(_read_rows(os.path.join(ensemble, f"rep{r:03d}_logprices.csv")))
                if rows != self.herding_steps + 1:
                    problems.append(f"rep{r:03d}: {rows} log-price rows, "
                                    f"expected {self.herding_steps + 1}")
            with open(os.path.join(ensemble, "ensemble_summary.json"), encoding="utf-8") as fh:
                summary = json.load(fh)
            if summary.get("replications") != self.replications:
                problems.append(f"summary replications {summary.get('replications')!r}, "
                                f"expected {self.replications}")
        figures = os.path.join(out_dir, "figures")
        if _expect_files(figures, ["histogram.csv", "qq.csv", "acf_raw.csv", "acf_abs.csv"],
                         problems):
            n_returns = self.figure_steps - self.figure_steps // 10  # default burn-in
            qq = np.array(_read_rows(os.path.join(figures, "qq.csv")), dtype=float)
            if qq.shape != (n_returns, 2):
                problems.append(f"qq.csv shape {qq.shape}, expected ({n_returns}, 2)")
            elif np.any(np.diff(qq, axis=0) < 0.0):
                problems.append("qq.csv columns are not sorted")
            for name in ("acf_raw.csv", "acf_abs.csv"):
                lags = [int(row[0]) for row in _read_rows(os.path.join(figures, name))]
                if lags != list(range(1, self.max_lag + 1)):
                    problems.append(f"{name}: lags are not 1..{self.max_lag}")
            bins = len(_read_rows(os.path.join(figures, "histogram.csv")))
            if bins != self.bins:
                problems.append(f"histogram.csv: {bins} bins, expected {self.bins}")
        simulate = os.path.join(out_dir, "simulate")
        if _expect_files(simulate, ["sim_logprices.csv", "sim_returns.csv",
                                    "sim_diagnostics.json"], problems):
            rows = len(_read_rows(os.path.join(simulate, "sim_logprices.csv")))
            if rows != self.schedule_steps + 1:
                problems.append(f"sim_logprices.csv: {rows} rows, "
                                f"expected {self.schedule_steps + 1}")
        return problems


class AnalyzeCsv:
    """`analyze --manifest` over four generated daily OHLC files with a
    `from` window on two of them and bad rows of every skipped class."""

    name = "analyze_csv"
    work_name = "rows_per_s"
    uses_pool = False
    labels = ("index_a", "index_b", "index_c", "index_d")
    price_columns = ("Open", "Close", "Open", "Open")
    # share of leading rows the manifest's `from` date drops, per file
    window_shares = (0.08, 0.0, 0.1, 0.0)
    # one row of each class ingest skips and counts, by how the row is spoiled
    bad_rows = ("short", "", "n/a", "0", "-1.5", "nan", "bad-date")
    end_date = dt.date(2018, 11, 14)
    reached = ("ingest.load_manifest", "ingest.read_prices_report", "stats.full_report",
               "timeseries.log_returns", "timeseries.absolute_returns")

    def __init__(self, smoke: bool):
        self.lengths = (600, 400, 300, 200) if smoke else (32_000, 19_000, 14_000, 8_000)
        self.work = sum(self.lengths)

    def calls(self) -> dict[str, int]:
        return {}  # no fixed counts: how often analyze reads a file may change

    def _dates(self, n: int) -> list[dt.date]:
        """The last n business days up to end_date, oldest first."""
        dates, day = [], self.end_date
        while len(dates) < n:
            if day.weekday() < 5:
                dates.append(day)
            day -= dt.timedelta(days=1)
        return dates[::-1]

    def _write_file(self, path, n, price_column, window_share, rng) -> dict:
        dates = self._dates(n)
        # stochastic volatility: log-vol AR(1) times Student-t shocks
        log_vol = np.empty(n)
        log_vol[0] = 0.0
        shocks = rng.normal(0.0, 0.2, n)
        for k in range(1, n):
            log_vol[k] = 0.98 * log_vol[k - 1] + shocks[k]
        ret = 0.008 * np.exp(log_vol) * rng.standard_t(4, n)
        close = 100.0 * np.exp(np.cumsum(ret))
        open_ = close * np.exp(rng.normal(0.0, 0.002, n))
        high = np.maximum(open_, close) * (1.0 + np.abs(rng.normal(0.0, 0.004, n)))
        low = np.minimum(open_, close) * (1.0 - np.abs(rng.normal(0.0, 0.004, n)))
        volume = rng.integers(10_000, 5_000_000, n)

        header = ["Date", "Open", "High", "Low", "Close", "Volume"]
        price_idx = header.index(price_column)
        bad_at = dict(zip(rng.choice(np.arange(1, n), len(self.bad_rows), replace=False)
                          .tolist(), self.bad_rows))
        window_start = int(window_share * n)
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for k in range(n):
                row = [dates[k].isoformat()] + [
                    f"{v:.6g}" for v in (open_[k], high[k], low[k], close[k])
                ] + [str(volume[k])]
                spoil = bad_at.get(k)
                if spoil == "short":
                    row = row[:price_idx]
                elif spoil == "bad-date":
                    row[0] = dates[k].strftime("%d/%m/%Y")
                elif spoil is not None:
                    row[price_idx] = spoil
                fh.write(",".join(row) + "\n")
        out_of_window = sum(1 for k in range(window_start) if k not in bad_at)
        return {
            "from": dates[window_start].isoformat() if window_start else None,
            "rows_in": n,
            "rows_skipped": len(bad_at),
            "rows_out_of_window": out_of_window,
        }

    def make_inputs(self, seed: int, in_dir: str) -> dict:
        rng = np.random.default_rng((seed, 3))
        manifest, expected = [], {}
        for label, n, column, share in zip(self.labels, self.lengths,
                                           self.price_columns, self.window_shares):
            path = os.path.join(in_dir, f"{label}.csv")
            expected[path] = self._write_file(path, n, column, share, rng)
            entry = {"label": label, "path": path, "price_column": column}
            if expected[path]["from"]:
                entry["from"] = expected[path]["from"]
            manifest.append(entry)
        return {
            "manifest": _write_json(os.path.join(in_dir, "manifest.json"), manifest),
            "ingest": expected,
        }

    def commands(self, inputs: dict, out_dir: str, workers: int) -> list[list[str]]:
        return [["analyze", "--manifest", inputs["manifest"], "--out-dir", out_dir]]

    def check(self, inputs: dict, out_dir: str) -> list[str]:
        problems: list[str] = []
        if not _expect_files(out_dir, ["table.csv", "table.json"], problems):
            return problems
        with open(os.path.join(out_dir, "table.json"), encoding="utf-8") as fh:
            table = json.load(fh)
        expected = sorted(f"{label} ({kind})" for label in self.labels
                          for kind in (RAW, ABSOLUTE))
        if sorted(table) != expected:
            problems.append(f"table.json columns {sorted(table)}, expected {expected}")
        for column, cells in table.items():
            if "error" in cells:
                problems.append(f"table.json {column}: {cells['error']}")
            elif not all(math.isfinite(v) for v in cells.values()):
                problems.append(f"table.json {column}: non-finite statistic")
        return problems


def check_trace(workload, inputs: dict, calls: dict[str, int], reads) -> list[str]:
    """Checks of one traced iteration: the span call counts the workload
    fixes, a call of every span it reaches, and the row accounting of every
    file read against what the generator wrote.  A layer that stops being
    reached through its traced function fails here instead of reading as 0."""
    problems = []
    for name, want in workload.calls().items():
        if calls.get(name, 0) != want:
            problems.append(f"span {name}: {calls.get(name, 0)} calls, expected {want}")
    problems.extend(f"span {name} was never called" for name in workload.reached
                    if not calls.get(name))
    expected = inputs.get("ingest", {})
    for path, report in reads:
        want = expected.get(path)
        got = {"rows_in": report.rows_in, "rows_skipped": report.rows_skipped,
               "rows_out_of_window": report.rows_out_of_window}
        if report.rows_in != (report.rows_used + report.rows_skipped
                              + report.rows_out_of_window):
            problems.append(f"{path}: rows_in != used + skipped + out_of_window")
        if want is None or any(got[k] != want[k] for k in got):
            problems.append(f"{path}: ingest counts {got}, expected {want}")
    unread = sorted(set(expected) - {path for path, _ in reads})
    if unread:
        problems.append(f"input files never read: {unread}")
    return problems


WORKLOADS = {cls.name: cls for cls in (Simulation, AnalyzeCsv)}
