"""Per-layer tracing from outside the program.

The tracer replaces public functions of the marketfacts modules, at the
module or class attributes their callers look them up through, with wrappers
that time each call.  Spans are aggregated in memory as they close: per span
name the call count, the total time and the self time, which is the span's
duration minus the durations of the spans opened inside it.  Nothing is
written while an iteration runs.
"""

from __future__ import annotations

import importlib
import os
import time

# (module, attribute path, span name).  The span name's first part is the
# layer, i.e. the module that defines the function.
TARGETS = (
    ("marketfacts.sim", "herding_step", "environment.herding_step"),
    ("marketfacts.sim", "population_excess_demand", "environment.population_excess_demand"),
    ("marketfacts.sim", "switch_count", "environment.switch_count"),
    ("marketfacts.sim", "price_step", "market.price_step"),
    ("marketfacts.agents", "FWParams.weights_at", "agents.weights_at"),
    ("marketfacts.agents", "FWParams.fundamental_at", "agents.fundamental_at"),
    ("marketfacts.sim", "franke_westerhoff_ED", "agents.franke_westerhoff_ED"),
    ("marketfacts.sim", "load_config", "sim.load_config"),
    ("marketfacts.sim", "run_simulation", "sim.run_simulation"),
    ("marketfacts.sim", "run_ensemble", "sim.run_ensemble"),
    ("marketfacts.sim", "write_sim_output", "sim.write_sim_output"),
    ("marketfacts.stats", "full_report", "stats.full_report"),
    ("marketfacts.stats", "histogram_data", "stats.histogram_data"),
    ("marketfacts.stats", "qq_data", "stats.qq_data"),
    ("marketfacts.stats", "acf_profile", "stats.acf_profile"),
    ("marketfacts.ingest", "load_manifest", "ingest.load_manifest"),
    ("marketfacts.ingest", "read_prices", "ingest.read_prices"),
    ("marketfacts.ingest", "read_prices_report", "ingest.read_prices_report"),
    ("marketfacts.timeseries", "log_returns", "timeseries.log_returns"),
    ("marketfacts.timeseries", "absolute_returns", "timeseries.absolute_returns"),
)
ROOT_SPAN = "cli.main"
LAYERS = ("cli", "sim", "environment", "market", "agents", "stats", "ingest", "timeseries")


class Tracer:
    """Wraps the targets while active; ``root`` is the traced CLI entry point.

    Use as a context manager around the traced calls: the originals are put
    back on exit.  ``reads`` collects (path, IngestReport) of every price
    file read and ``bytes_written`` the size of every simulation output.
    """

    def __init__(self, main, span_names=None):
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.reads: list = []
        self.bytes_written = 0
        self._open = [0.0]  # child time of each open span; [0] sums root spans
        self._names = span_names
        self._saved: list = []
        self.root = self._wrap(ROOT_SPAN, main)

    def _wrap(self, name, fn, observe=None):
        stat = self.stats.setdefault(name, [0, 0.0, 0.0])
        open_spans = self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                children = open_spans.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - children
                open_spans[-1] += duration
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observe_read(self, args, result):
        self.reads.append((args[0], result[1]))

    def _observe_write(self, args, paths):
        self.bytes_written += sum(os.path.getsize(p) for p in paths)

    def __enter__(self):
        """Wrap every target; raise, wrapping none, if one cannot be found."""
        observers = {"ingest.read_prices_report": self._observe_read,
                     "sim.write_sim_output": self._observe_write}
        found = []
        for module_name, path, name in TARGETS:
            if self._names is not None and name not in self._names:
                continue
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = getattr(owner, attr, None)
            if not callable(original):
                raise LookupError(f"trace target {module_name}.{path} not found")
            found.append((owner, attr, original, name))
        for owner, attr, original, name in found:
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, observers.get(name)))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False

    def problems(self) -> list[str]:
        """Span bookkeeping errors: open spans left, spans outside the root,
        or self times that do not add up to the root spans' time."""
        found = []
        if len(self._open) != 1:
            found.append(f"{len(self._open) - 1} spans left open")
        root_total = self.stats[ROOT_SPAN][1]
        if abs(root_total - self._open[0]) > 1e-9 * max(1.0, root_total):
            found.append("spans recorded outside the cli.main root span")
        self_sum = sum(stat[2] for stat in self.stats.values())
        if abs(self_sum - root_total) > 1e-6 * max(1.0, root_total):
            found.append(f"self times sum to {self_sum} s, root spans took {root_total} s")
        return found

    def metrics(self) -> dict[str, float]:
        """Flat metrics: <span>.calls/.s/.self_s/.us_per_call, <layer>.self_s
        and the ingest and output counters."""
        out: dict[str, float] = {}
        for name, (calls, total, self_s) in self.stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = total
            out[f"{name}.self_s"] = self_s
            out[f"{name}.us_per_call"] = self_s / calls * 1e6 if calls else 0.0
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(stat[2] for name, stat in self.stats.items()
                                         if name.split(".")[0] == layer)
        out["sim.write_sim_output.bytes"] = self.bytes_written
        out["ingest.rows_in"] = sum(report.rows_in for _, report in self.reads)
        out["ingest.rows_skipped"] = sum(report.rows_skipped for _, report in self.reads)
        files = {os.path.abspath(path) for path, _ in self.reads}
        out["ingest.reads_per_file"] = len(self.reads) / len(files) if files else 0.0
        return out
