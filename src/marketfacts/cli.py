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
from dataclasses import replace

import numpy as np

from . import ingest, sim, stats, timeseries
from .errors import MarketFactsError, SchemaError
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

    simulate = sub.add_parser("simulate", help="one seeded simulation run")
    simulate.add_argument("--config", required=True, metavar="JSON")
    simulate.add_argument("--seed", type=int, help="override the config seed")
    simulate.add_argument("--out-dir", required=True)

    ensemble = sub.add_parser("ensemble", help="replicated runs + summary stats")
    ensemble.add_argument("--config", required=True, metavar="JSON")
    ensemble.add_argument("--replications", type=_positive_int, required=True)
    ensemble.add_argument("--seed", type=int, help="override the config seed")
    ensemble.add_argument("--workers", type=_positive_int, default=1)
    ensemble.add_argument("--lags", type=_parse_lags, default=stats.DEFAULT_LAGS)
    ensemble.add_argument("--out-dir", required=True)

    figures = sub.add_parser("figures", help="histogram/qq/ACF data files")
    figures.add_argument("--input", metavar="CSV", help="price file to analyze")
    figures.add_argument("--config", metavar="JSON", help="or simulate fresh returns")
    figures.add_argument("--seed", type=int, help="override the config seed (--config only)")
    figures.add_argument("--from", dest="from_date", metavar="YYYY-MM-DD", help="--input only")
    figures.add_argument("--to", dest="to_date", metavar="YYYY-MM-DD", help="--input only")
    figures.add_argument("--price-column", help="--input only; default Open")
    figures.add_argument("--max-lag", type=_positive_int, default=100)
    figures.add_argument("--bins", type=_bin_count, default=200)
    figures.add_argument("--out-dir", required=True)
    return parser


def _cell(value) -> str:
    return value if isinstance(value, str) else f"{value:.5f}"


def _describe(exc: MarketFactsError) -> str:
    return f"{type(exc).__name__}: {exc}"


def cmd_analyze(args) -> int:
    sources = [ingest.ManifestEntry(os.path.splitext(os.path.basename(path))[0], path)
               for path in args.input]
    if args.manifest:
        sources.extend(ingest.load_manifest(args.manifest))
    if not sources:
        print("analyze: need --input and/or --manifest", file=sys.stderr)
        return 2
    paths = {}  # label -> path; a label names the table's columns
    for entry in sources:
        if entry.label in paths:
            raise SchemaError(
                f"label {entry.label!r} names both {paths[entry.label]} and {entry.path}"
            )
        paths[entry.label] = entry.path

    columns = {}  # column name -> {stat row -> value or error string}
    # the flags are the defaults that an entry's own keys override
    defaults = {"price_column": args.price_column, "from_date": args.from_date,
                "to_date": args.to_date}
    for entry in sources:
        names = [f"{entry.label} ({kind})" for kind in KINDS]
        options = {key: flag if getattr(entry, key) is None else getattr(entry, key)
                   for key, flag in defaults.items()}
        try:
            prices = ingest.read_prices(entry.path, **options)
            raw = timeseries.log_returns(prices)
            series = (raw, timeseries.absolute_returns(raw))
        except MarketFactsError as exc:  # a source without returns fails both columns
            columns.update(dict.fromkeys(names, {"error": _describe(exc)}))
            continue
        for name, returns in zip(names, series):
            try:
                columns[name] = stats.full_report(
                    returns, lags=args.lags, tail_fraction=args.tail_fraction
                )
            except MarketFactsError as exc:
                columns[name] = {"error": _describe(exc)}

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

    return 1 if all("error" in column for column in columns.values()) else 0


def _load_config(args) -> sim.RunConfig:
    config = sim.load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    return config


def cmd_simulate(args) -> int:
    config = _load_config(args)
    output = sim.run_simulation(config)
    sim.write_sim_output(output, args.out_dir, "sim")
    return 0


def cmd_ensemble(args) -> int:
    config = _load_config(args)
    # every check before the first run, so a bad argument writes no file
    sim.check_ensemble(config, args.replications, args.workers)
    stats.check_lag(max(args.lags), config.steps - config.burn_in)
    outputs = sim.run_ensemble(config, args.replications, workers=args.workers)
    # every report before the first file, so a failing statistic writes none
    per_rep = {kind: [] for kind in KINDS}
    for output in outputs:
        raw = output.returns
        for kind, returns in zip(KINDS, (raw, timeseries.absolute_returns(raw))):
            per_rep[kind].append(stats.full_report(returns, lags=args.lags))
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
    if bool(args.input) == bool(args.config):
        print("figures: need exactly one of --input / --config", file=sys.stderr)
        return 2
    if args.input:
        source, unused = "--input", {"--seed": args.seed}
    else:
        source, unused = "--config", {"--from": args.from_date, "--to": args.to_date,
                                      "--price-column": args.price_column}
    given = [flag for flag, value in unused.items() if value is not None]
    if given:
        print(f"figures: {', '.join(given)} not used with {source}", file=sys.stderr)
        return 2
    if args.input:
        column = "Open" if args.price_column is None else args.price_column
        prices = ingest.read_prices(args.input, column, args.from_date, args.to_date)
        raw = timeseries.log_returns(prices)
    else:
        raw = sim.run_simulation(_load_config(args)).returns
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


_COMMANDS = {
    "analyze": cmd_analyze,
    "simulate": cmd_simulate,
    "ensemble": cmd_ensemble,
    "figures": cmd_figures,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.subcommand](args)
    except MarketFactsError as exc:
        print(_describe(exc), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
