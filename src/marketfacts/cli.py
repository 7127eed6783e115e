"""Command-line front end: analyze price files, run simulations and emit
table/figure data.

Numeric table CSVs use 5 decimal places; the JSON companions carry full
double precision.  No timestamps are written, so repeated invocations with
the same inputs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import ingest, sim, stats, timeseries
from .errors import MarketFactsError, SchemaError, UnwritableOutput
from .output import write_columns, write_json, write_table

# upper bound of ``figures --bins``; each bin is one row of histogram.csv
MAX_BINS = 100_000
# a source's two return series: its log returns and their absolute values;
# they name analyze's columns and ensemble's summary blocks
KINDS = ("raw", "absolute")


def _parse_lags(text: str):
    try:
        lags = tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad lag list {text!r}") from None
    if not lags or any(l < 1 for l in lags):
        raise argparse.ArgumentTypeError("lags must be positive integers")
    if len(set(lags)) < len(lags):
        raise argparse.ArgumentTypeError(f"repeated lag in {text!r}")
    return lags


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad integer {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be an integer >= 1, got {value}")
    return value


def _bin_count(text: str) -> int:
    value = _positive_int(text)
    if value > MAX_BINS:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_BINS}, got {value}")
    return value


def _fraction(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad number {text!r}") from None
    if not 0.0 < value < 1.0:  # false for NaN and inf too
        raise argparse.ArgumentTypeError(f"must be a finite number in (0, 1), got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="marketfacts",
        description="Agent-based market simulation and stylized-fact statistics.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    analyze = sub.add_parser("analyze", help="statistics tables from price files")
    analyze.add_argument("--input", action="append", default=[], metavar="CSV")
    analyze.add_argument("--manifest", metavar="JSON")
    analyze.add_argument("--from", dest="from_date", metavar="YYYY-MM-DD")
    analyze.add_argument("--to", dest="to_date", metavar="YYYY-MM-DD")
    analyze.add_argument("--lags", type=_parse_lags, default=stats.DEFAULT_LAGS)
    analyze.add_argument("--tail-fraction", type=_fraction, default=stats.DEFAULT_TAIL_FRACTION)
    analyze.add_argument("--price-column", default="Open")
    analyze.add_argument("--out-dir", required=True)
    analyze.set_defaults(run=cmd_analyze)

    simulate = sub.add_parser("simulate", help="one seeded simulation run")
    simulate.add_argument("--config", required=True, metavar="JSON")
    simulate.add_argument("--out-dir", required=True)
    simulate.set_defaults(run=cmd_simulate)

    ensemble = sub.add_parser("ensemble", help="replicated runs + summary stats")
    ensemble.add_argument("--config", required=True, metavar="JSON")
    ensemble.add_argument("--replications", type=_positive_int, required=True)
    ensemble.add_argument("--workers", type=_positive_int, default=1)
    ensemble.add_argument("--lags", type=_parse_lags, default=stats.DEFAULT_LAGS)
    ensemble.add_argument("--out-dir", required=True)
    ensemble.set_defaults(run=cmd_ensemble)

    figures = sub.add_parser("figures", help="histogram/qq/ACF data files")
    source = figures.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="CSV", help="price file to analyze")
    source.add_argument("--config", metavar="JSON", help="or simulate fresh returns")
    figures.add_argument("--from", dest="from_date", metavar="YYYY-MM-DD", help="--input only")
    figures.add_argument("--to", dest="to_date", metavar="YYYY-MM-DD", help="--input only")
    figures.add_argument("--price-column", help="--input only; default Open")
    figures.add_argument("--max-lag", type=_positive_int, default=100)
    figures.add_argument("--bins", type=_bin_count, default=200)
    figures.add_argument("--out-dir", required=True)
    figures.set_defaults(run=cmd_figures)
    return parser


def _usage_error(args) -> str | None:
    """The usage rule beyond the parser's own that ``args`` breaks, or None."""
    if args.subcommand == "analyze" and not args.input and args.manifest is None:
        return "analyze: need --input and/or --manifest"
    if args.subcommand == "figures" and args.config is not None:
        unused = {"--from": args.from_date, "--to": args.to_date,
                  "--price-column": args.price_column}
        given = [flag for flag, value in unused.items() if value is not None]
        if given:
            return f"figures: {', '.join(given)} not used with --config"
    return None


def _cell(value) -> str:
    return value if isinstance(value, str) else f"{value:.5f}"


def _describe(exc: MarketFactsError) -> str:
    return f"{type(exc).__name__}: {exc}"


def cmd_analyze(args) -> int:
    sources = [(os.path.splitext(os.path.basename(path))[0], path, {}) for path in args.input]
    if args.manifest is not None:
        sources.extend(ingest.load_manifest(args.manifest))
        if not sources:
            raise SchemaError(f"{args.manifest}: manifest lists no source")
    paths = {}  # label -> path; a label names the table's columns
    for label, path, _ in sources:
        if label in paths:
            raise SchemaError(f"label {label!r} names both {paths[label]} and {path}")
        paths[label] = path

    # read every source before the first statistic: OpenBLAS's helper thread
    # busy-waits for CPU after each long threaded dot, and reads in between keep it spinning
    series = {}  # column name -> its returns, or {"error": ...} for a source without them
    # the flags are the defaults that an entry's own keys override
    defaults = {"price_column": args.price_column, "from_date": args.from_date,
                "to_date": args.to_date}
    for label, path, read_args in sources:
        names = [f"{label} ({kind})" for kind in KINDS]
        try:
            raw = timeseries.log_returns(ingest.read_prices(path, **{**defaults, **read_args}))
        except MarketFactsError as exc:  # a source without returns fails both columns
            series.update(dict.fromkeys(names, {"error": _describe(exc)}))
            continue
        series.update(zip(names, (raw, timeseries.absolute_returns(raw))))

    columns = {}  # column name -> {stat row -> value or error string} or {"error": ...}
    for name, returns in series.items():
        if isinstance(returns, dict):
            columns[name] = returns
            continue
        report = stats.full_report(returns, lags=args.lags,
                                   tail_fraction=args.tail_fraction, cell_errors=True)
        columns[name] = {row: _describe(value) if isinstance(value, MarketFactsError)
                         else value for row, value in report.items()}

    col_names = list(columns)
    rows = [["Statistic"] + col_names]
    for stat_name in stats.report_rows(args.lags, args.tail_fraction):
        row = [stat_name]
        for col in col_names:
            cell = columns[col].get(stat_name, columns[col].get("error", ""))
            row.append(_cell(cell))
        rows.append(row)
    write_table(os.path.join(args.out_dir, "table.csv"), rows)
    write_json(os.path.join(args.out_dir, "table.json"), columns)

    # a column fails when every one of its cells holds an error string, and
    # analyze fails when every column does
    if any(not isinstance(cell, str) for column in columns.values() for cell in column.values()):
        return 0
    name, column = next(iter(columns.items()))
    print(f"analyze: every column failed; {name}: {next(iter(column.values()))}", file=sys.stderr)
    return 1


def cmd_simulate(args) -> int:
    config = sim.load_config(args.config)
    output = sim.run_simulation(config)
    sim.write_sim_output(output, args.out_dir, "sim")
    return 0


def cmd_ensemble(args) -> int:
    config = sim.load_config(args.config)
    # the lag is checked here and run_ensemble checks its own arguments, both
    # before the first run, so a bad argument writes no file
    stats.check_lag(max(args.lags), config.steps - config.burn_in)
    outputs = sim.run_ensemble(config, args.replications, workers=args.workers)
    # every report before the first file, so a failing statistic writes none
    per_rep = {kind: [] for kind in KINDS}
    for r, output in enumerate(outputs):
        raw = output.returns
        try:
            for kind, returns in zip(KINDS, (raw, timeseries.absolute_returns(raw))):
                per_rep[kind].append(stats.full_report(returns, lags=args.lags))
        except MarketFactsError as exc:
            exc.args = (f"{exc} (replication {r}, seed {output.seed})",)
            raise
    for r, output in enumerate(outputs):
        sim.write_sim_output(output, args.out_dir, f"rep{r:03d}")

    summary = {"replications": args.replications, "base_seed": config.seed}
    for kind, reports in per_rep.items():
        block = {}
        for key in reports[0]:
            vals = np.array([rep[key] for rep in reports])
            block[key] = {"mean": float(vals.mean()), "std": float(vals.std())}
        summary[kind] = block
    write_json(os.path.join(args.out_dir, "ensemble_summary.json"), summary)
    return 0


def cmd_figures(args) -> int:
    if args.input is not None:
        column = "Open" if args.price_column is None else args.price_column
        prices = ingest.read_prices(args.input, column, args.from_date, args.to_date)
        raw = timeseries.log_returns(prices)
    else:
        config = sim.load_config(args.config)
        # the lag is checked before the run, so a lag too long fails at once
        stats.check_lag(args.max_lag, config.steps - config.burn_in)
        raw = sim.run_simulation(config).returns
    absolute = timeseries.absolute_returns(raw)

    # every figure is computed before the first file is written, so a
    # failure leaves no partial set behind
    edges, counts, centers, density = stats.histogram_data(raw, args.bins)
    qq = stats.qq_data(raw)
    acfs = {name: stats.acf_profile(series, args.max_lag)
            for name, series in (("acf_raw.csv", raw), ("acf_abs.csv", absolute))}
    write_columns(
        os.path.join(args.out_dir, "histogram.csv"),
        ("bin_left", "bin_right", "bin_center", "count", "gaussian_density"),
        edges[:-1], edges[1:], centers, counts, density,
    )
    write_columns(
        os.path.join(args.out_dir, "qq.csv"),
        ("theoretical_quantile", "empirical_quantile"),
        *qq,
    )
    lags = range(1, args.max_lag + 1)
    for name, values in acfs.items():
        write_columns(os.path.join(args.out_dir, name), ("lag", "autocorrelation"), lags, values)
    return 0


def _check_out_dir(path) -> None:
    """Raise ``UnwritableOutput`` if ``path`` is empty, or it or its nearest
    existing ancestor is not a directory.  It creates nothing; the writers do that."""
    if not path:
        raise UnwritableOutput(f"--out-dir {path!r} names no directory")
    probe = path
    while probe and not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe or "."):
        raise UnwritableOutput(f"{path}: {probe} is not a directory")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    usage_error = _usage_error(args)
    if usage_error is not None:
        parser.error(usage_error)  # exits 2, as the parser's own checks do
    try:
        # a bad --out-dir fails before anything is read or simulated
        _check_out_dir(args.out_dir)
        return args.run(args)
    except MarketFactsError as exc:
        print(_describe(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
