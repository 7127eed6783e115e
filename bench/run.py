"""Benchmark of the marketfacts command line, driven in-process.

    python3 bench/run.py --workload simulation --seed 0 --seconds 50 --trace 0

One client calls ``marketfacts.cli.main(argv)`` in a closed loop: each
iteration starts when the previous one has returned.  Every iteration
writes to a fresh directory and its output bytes are checked against the
digests of a ``--workers 1`` reference iteration of the same inputs, and
against the digests stored in ``golden.json`` when the seed has any.

With ``--trace 0`` the run reports the end-to-end metrics; timings are
medians over iterations, ``setup_s`` is the median start-up of a fresh
interpreter timed after each iteration, ``peak_rss_mb`` is this process's
peak, and ``work_per_s`` counts simulated steps (``simulation``) or CSV data
rows (``analyze_csv``) per second.  Ensembles use ``WORKERS`` pool workers;
a host with fewer CPUs is refused.  With ``--trace 1`` it alternates untraced and
traced iterations and reports per-layer metrics from the traced ones (see
``spans.py``).  Traced iterations run ensemble replications with
``--workers 1``, because spans do not cross into pool workers; the parent
side of a pooled ``run_ensemble`` is timed in separate iterations that
trace nothing else, and these give the largest pool worker's peak memory.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the full record (machine, quartiles, sample counts).  The exit code
is 0 only when every iteration ran and matched.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".bench_work")
GOLDEN = os.path.join(HERE, "golden.json")

# Iterations a run makes at least, so every median has quartiles.
MIN_SAMPLES = 3
# Pool workers of the ensemble: the paper's ensemble scaled to two cores.
WORKERS = 2

# name -> unit of the metrics each mode prints; BENCHMARK.json lists the same
END_TO_END = {
    "setup_s": "s",
    "iter_s": "s",
    "work_per_s": "1/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}
PER_LAYER = {
    "environment.herding_step.calls": "count",
    "environment.herding_step.self_s": "s",
    "environment.herding_step.us_per_call": "us",
    "environment.population_excess_demand.self_s": "s",
    "environment.switch_count.self_s": "s",
    "market.price_step.calls": "count",
    "market.price_step.self_s": "s",
    "market.price_step.us_per_call": "us",
    "agents.fundamental_at.self_s": "s",
    "agents.weights_at.self_s": "s",
    "agents.franke_westerhoff_ED.self_s": "s",
    "sim.run_simulation.self_s": "s",
    "sim.run_ensemble.s": "s",
    "sim.run_ensemble.worker_peak_rss_mb": "MB",
    "sim.write_sim_output.self_s": "s",
    "sim.write_sim_output.bytes": "bytes",
    "stats.qq_data.self_s": "s",
    "stats.histogram_data.self_s": "s",
    "stats.acf_profile.self_s": "s",
    "stats.full_report.calls": "count",
    "stats.full_report.self_s": "s",
    "ingest.read_prices_report.calls": "count",
    "ingest.read_prices_report.self_s": "s",
    "ingest.rows_in": "count",
    "ingest.rows_skipped": "count",
    "ingest.reads_per_file": "reads/file",
    "timeseries.log_returns.self_s": "s",
    "timeseries.absolute_returns.self_s": "s",
    "cli.main.self_s": "s",
    "cli.main.s": "s",
    "sim.self_s": "s",
    "environment.self_s": "s",
    "market.self_s": "s",
    "agents.self_s": "s",
    "stats.self_s": "s",
    "ingest.self_s": "s",
    "timeseries.self_s": "s",
    "trace.overhead_frac": "frac",
}


def digest_tree(top: str) -> dict[str, str]:
    """SHA-256 of every file below ``top``, keyed by relative path."""
    digests = {}
    for dirpath, _, files in os.walk(top):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            digests[os.path.relpath(path, top).replace(os.sep, "/")] = digest
    return dict(sorted(digests.items()))


def load_golden() -> dict:
    if not os.path.exists(GOLDEN):
        return {}
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@contextlib.contextmanager
def work_dir(prefix: str):
    """Work in a fresh directory under WORK_ROOT; remove it afterwards."""
    os.makedirs(WORK_ROOT, exist_ok=True)
    path = tempfile.mkdtemp(prefix=f"{prefix}-", dir=WORK_ROOT)
    cwd = os.getcwd()
    try:
        os.chdir(path)
        yield path
    finally:
        os.chdir(cwd)
        shutil.rmtree(path, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass  # another run still works there


def _cpu_seconds() -> float:
    """User + system time of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


class Bench:
    """Inputs of one workload and seed, and the iterations run on them."""

    def __init__(self, workload, main, seed: int, golden: dict | None):
        self.workload = workload
        self.main = main
        self.golden = golden  # stored digests for this seed, if any
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict | None = None
        os.makedirs("inputs")
        self.inputs = workload.make_inputs(seed, "inputs")
        self.input_digests = digest_tree("inputs")

    def iterate(self, workers: int, tracer=None):
        """Run, time and verify one iteration in a fresh output directory.

        Returns (wall_s, cpu_s), or None when the iteration failed.
        """
        self.attempted += 1
        out_dir = os.path.join("out", f"i{self.attempted:04d}")
        try:
            if tracer is None:
                wall, cpu = self._run(self.main, out_dir, workers)
            else:
                with tracer:
                    wall, cpu = self._run(tracer.root, out_dir, workers)
            problems = self._verify(out_dir)
        except (Exception, SystemExit):
            problems = [traceback.format_exc()]
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        if problems:
            self.failed += 1
            self.problems.extend(f"iteration {self.attempted}: {p}" for p in problems)
            return None
        return wall, cpu

    def _run(self, main, out_dir, workers):
        wall = cpu = 0.0
        for argv in self.workload.commands(self.inputs, out_dir, workers):
            cpu0, wall0 = _cpu_seconds(), time.perf_counter()
            code = main(argv)
            wall += time.perf_counter() - wall0
            cpu += _cpu_seconds() - cpu0
            if code != 0:
                raise RuntimeError(f"marketfacts {argv[0]} exited with {code}")
        return wall, cpu

    def _verify(self, out_dir) -> list[str]:
        digests = digest_tree(out_dir)
        if self.reference is not None:
            if digests == self.reference:
                return []
            return ["outputs differ from the reference iteration in "
                    + _diff(digests, self.reference)]
        # the reference iteration: checks that hold for every seed, then the
        # stored digests when this seed has them
        problems = self.workload.check(self.inputs, out_dir)
        if self.golden and self.input_digests != self.golden["inputs"]:
            problems.append("golden digests: generated inputs differ in "
                            + _diff(self.input_digests, self.golden["inputs"]))
        if self.golden and digests != self.golden["outputs"]:
            problems.append("golden digests: outputs differ in "
                            + _diff(digests, self.golden["outputs"]))
        if not problems:
            self.reference = digests
        return problems


def _diff(got: dict, want: dict) -> str:
    return str(sorted(n for n in set(got) | set(want) if got.get(n) != want.get(n)))


def _quartiles(values) -> dict:
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values), "samples": values}


def _loop(bench, seconds, steps) -> None:
    """Call the ``steps`` in turn until ``seconds`` have passed; make at
    least MIN_SAMPLES rounds while nothing fails."""
    deadline = time.perf_counter() + seconds
    for done in itertools.count():
        if time.perf_counter() >= deadline and (
                done >= MIN_SAMPLES * len(steps) or bench.failed):
            return
        steps[done % len(steps)]()


def time_setup() -> float:
    """Wall time of a fresh interpreter importing marketfacts.cli."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import marketfacts.cli"], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def run_untraced(bench, seconds) -> tuple[dict, dict]:
    """End-to-end metrics.  Each timed iteration is followed, outside its
    timing, by one set-up sample, so that the set-up samples are spread
    over the run like the iterations and see the same host speed."""
    walls, cpus, rates, setup = [], [], [], []

    def step():
        sample = bench.iterate(WORKERS)
        if sample:
            walls.append(sample[0])
            cpus.append(sample[1])
            rates.append(bench.workload.work / sample[0])
        setup.append(time_setup())

    time_setup()  # untimed: fills the page cache as an earlier CLI call would
    _loop(bench, seconds, [step])
    if not walls:
        return {}, {}
    # this process only: pool workers and set-up interpreters are children,
    # and the per-layer run reports the largest pool worker
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    iter_s, cpu_s, work = _quartiles(walls), _quartiles(cpus), _quartiles(rates)
    metrics = {
        "setup_s": statistics.median(setup),
        "iter_s": iter_s["median"],
        "work_per_s": work["median"],
        "cpu_s": cpu_s["median"],
        "peak_rss_mb": own / 1024.0,
    }
    record = {"setup_s": _quartiles(setup), "iter_s": iter_s, "cpu_s": cpu_s,
              bench.workload.work_name: work,
              "peak_rss": "this process; its pool workers are not counted"}
    return metrics, record


def run_traced(bench, seconds) -> tuple[dict, dict]:
    from spans import Tracer
    from workloads import check_trace

    plain, traced, layers, pooled = [], [], [], []

    def untraced():
        sample = bench.iterate(1)
        if sample:
            plain.append(sample[0])

    def traced_all():
        tracer = Tracer(bench.main)
        sample = bench.iterate(1, tracer)
        if sample:
            calls = {name: stat[0] for name, stat in tracer.stats.items()}
            problems = tracer.problems() + check_trace(bench.workload, bench.inputs,
                                                       calls, tracer.reads)
            if problems:
                bench.failed += 1
                bench.problems.extend(problems)
            else:
                traced.append(sample[0])
                layers.append(tracer.metrics())

    def traced_pool():
        tracer = Tracer(bench.main, {"sim.run_ensemble"})
        if bench.iterate(WORKERS, tracer):
            pooled.append(tracer.stats["sim.run_ensemble"][1])

    steps = [untraced, traced_all]
    if bench.workload.uses_pool:
        steps.append(traced_pool)
    _loop(bench, seconds, steps)
    if not (plain and traced):
        return {}, {}
    metrics = {name: statistics.median(m.get(name, 0) for m in layers)
               for name in PER_LAYER}
    if pooled:
        metrics["sim.run_ensemble.s"] = statistics.median(pooled)
        # the pool workers are the only children a traced run starts; the
        # figure also covers children of whatever exec'd this process
        metrics["sim.run_ensemble.worker_peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    metrics["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    record = {
        "traced_workers": 1,
        "note": ("traced iterations run with --workers 1; sim.run_ensemble.s is the "
                 f"parent side of runs with --workers {WORKERS}" if pooled else
                 "traced iterations run with --workers 1"),
        "untraced_iter_s": _quartiles(plain),
        "traced_iter_s": _quartiles(traced),
    }
    return metrics, record


def machine_record() -> dict:
    import numpy

    record = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": platform.processor() or platform.machine(),
        "caches": {},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas_threads": _blas_threads(),
        "pool_workers": WORKERS,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    record["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        cache_dir = "/sys/devices/system/cpu/cpu0/cache"
        for index in sorted(os.listdir(cache_dir)):
            if not index.startswith("index"):
                continue
            fields = {}
            for key in ("level", "type", "size"):
                with open(os.path.join(cache_dir, index, key), encoding="utf-8") as fh:
                    fields[key] = fh.read().strip()
            record["caches"][f"L{fields['level']} {fields['type']}"] = fields["size"]
    except OSError:
        pass  # not Linux, or no sysfs: the record keeps what it has
    return record


def _blas_threads():
    """Thread count of the OpenBLAS numpy loaded, or None if not found."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for lib_path in sorted(libs):
        lib = ctypes.CDLL(lib_path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def parse_args(argv):
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, for checking the benchmark itself")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "marketfacts", "cli.py")):
        print(f"bench: no marketfacts sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from marketfacts import cli
    from workloads import WORKLOADS

    nproc = len(os.sched_getaffinity(0))
    if nproc < WORKERS:
        print(f"bench: needs {WORKERS} CPUs for its pool workers, has {nproc}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](smoke=args.smoke)
    golden = None if args.smoke else load_golden().get(workload.name, {}).get(str(args.seed))

    with work_dir(workload.name):
        bench = Bench(workload, cli.main, args.seed, golden)
        bench.iterate(1)  # the reference, untimed: also warms caches up
        if bench.reference is None:
            metrics, detail = {}, {}
        elif args.trace:
            metrics, detail = run_traced(bench, args.seconds)
        else:
            metrics, detail = run_untraced(bench, args.seconds)

    for problem in bench.problems:
        print(f"bench: {problem}", file=sys.stderr)
    correct = bool(metrics) and bench.failed == 0
    units = PER_LAYER if args.trace else END_TO_END
    for name, unit in units.items():
        if name in metrics:
            print(f"{name:46s} {metrics[name]:.6g} {unit}")
    if "work_per_s" in metrics:
        print(f"{workload.work_name:46s} {metrics['work_per_s']:.6g} 1/s (= work_per_s)")
    print(f"{'failed_frac':46s} {bench.failed}/{bench.attempted} iterations")
    record = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "smoke": args.smoke,
        "trace": args.trace,
        "machine": machine_record(),
        "golden": ("checked against stored digests" if golden else "no stored digests "
                   "for this seed; checked against the --workers 1 reference only"),
        "failed_frac": bench.failed / bench.attempted,
        "work_per_iteration": workload.work,
        **detail,
    }
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items() if name in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
