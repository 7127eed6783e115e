"""Ingest a daily OHLC CSV file and produce the statistics table.

Builds a small synthetic price file in the common Date,Open,High,Low,Close,
Volume layout (with a few deliberately broken rows), reads it back with full
row accounting, and prints the per-series report.
"""

import datetime as dt
import tempfile
from pathlib import Path

import numpy as np

from marketfacts import full_report, log_returns
from marketfacts.ingest import read_prices_report

with tempfile.TemporaryDirectory() as workdir:
    path = Path(workdir) / "index.csv"

    rng = np.random.default_rng(3)
    prices = 1000.0 * np.exp(np.cumsum(0.01 * rng.standard_normal(2500)))
    day = dt.date(2010, 1, 4)
    with open(path, "w") as fh:
        fh.write("Date,Open,High,Low,Close,Volume\n")
        for k, p in enumerate(prices):
            fh.write(f"{day + dt.timedelta(days=k)},{p:.4f},0,0,{p:.4f},0\n")
        # rows a real data vendor might hand you
        fh.write("2017-03-01,,0,0,0,0\n")          # missing price
        fh.write("2017-03-02,n/a,0,0,0,0\n")       # unparseable price
        fh.write("not-a-date,1234.5,0,0,0,0\n")    # unparseable date

    series, report = read_prices_report(path, from_date="2012-01-01",
                                        to_date="2015-12-31")
print(f"file rows         {report.rows_in}")
print(f"used in window    {report.rows_used}")
print(f"skipped (bad)     {report.rows_skipped}")
print(f"outside window    {report.rows_out_of_window}")
print(f"series: {len(series)} prices, "
      f"{series.dates[0]} .. {series.dates[-1]}")

print()
print("=== statistics of the windowed log returns ===")
for name, value in full_report(log_returns(series)).as_dict().items():
    print(f"{name:18s} {value:+.5f}")
