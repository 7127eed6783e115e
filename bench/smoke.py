"""Smoke check of the benchmark itself at tiny sizes; takes seconds.

    python3 bench/smoke.py

It is not part of the pytest suite.  It checks that

* every workload, untraced and traced, ends correct with no failure and
  prints every metric of BENCHMARK.json by name with its unit;
* a tampered output file, and stored digests that do not match, fail the
  digest gate;
* the benchmark refuses to run, without printing a result, in a directory
  that holds only BENCHMARK.json and the benchmark's own files.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import run

SPEC = os.path.join(run.ROOT, "BENCHMARK.json")


def _bench(args, cwd=run.ROOT):
    return subprocess.run([sys.executable, os.path.join("bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def check_metrics(spec) -> list[str]:
    problems = []
    for workload in spec["workloads"]:
        for trace, kind in (("0", "end_to_end"), ("1", "per_layer")):
            name = f"{workload['name']} --trace {trace}"
            proc = _bench(["--workload", workload["name"], "--seed", "5", "--seconds", "0.5",
                           "--trace", trace, "--smoke"])
            if proc.returncode != 0:
                problems.append(f"{name}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                continue
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{name}: result {result}")
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {key: value["unit"] for key, value in result["metrics"].items()}
            if got != want:
                problems.append(f"{name}: metrics {got}, expected {want}")
    return problems


def _tampering(main):
    """``main`` that appends a byte to one output file after each command."""
    def tampered(argv):
        code = main(argv)
        out_dir = argv[argv.index("--out-dir") + 1]
        victim = sorted(os.listdir(out_dir))[0]
        with open(os.path.join(out_dir, victim), "ab") as fh:
            fh.write(b" ")
        return code
    return tampered


def check_digest_gate() -> list[str]:
    sys.path.insert(0, run.SRC)
    from marketfacts import cli
    from workloads import WORKLOADS

    problems = []
    for name, workload_cls in WORKLOADS.items():
        with run.work_dir(name):
            bench = run.Bench(workload_cls(smoke=True), cli.main, 5, None)
            bench.iterate(1)
            bench.main = _tampering(cli.main)
            if bench.reference is None or bench.iterate(1) is not None:
                problems.append(f"{name}: a tampered output passed the digest gate")
        with run.work_dir(name):
            wrong = {"inputs": {}, "outputs": {}}
            bench = run.Bench(workload_cls(smoke=True), cli.main, 5, wrong)
            bench.iterate(1)
            if bench.reference is not None or bench.failed != 1:
                problems.append(f"{name}: mismatching stored digests passed")
    return problems


def check_refuses_without_sources() -> list[str]:
    with run.work_dir("bare") as bare:
        shutil.copy(SPEC, bare)
        shutil.copytree(run.HERE, os.path.join(bare, "bench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _bench(["--workload", "analyze_csv", "--seed", "0", "--seconds", "1",
                       "--trace", "0"], cwd=bare)
    if proc.returncode == 0 or proc.stdout.strip():
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout!r}"]
    return []


def main() -> int:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    problems = (check_metrics(spec) + check_digest_gate()
                + check_refuses_without_sources())
    for problem in problems:
        print(f"smoke: {problem}", file=sys.stderr)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
