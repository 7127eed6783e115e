"""The benchmark's smoke runs stay clean, traced and untraced.

``bench/run.py --trace 1`` wraps ``sim.herding_step`` and ``sim.price_step``
and checks one call per herding step and per simulated step; a refactor that
renames or bypasses them fails here, not only in a traced benchmark run.
``--trace 0`` runs the ensembles on the pool workers whose output digests
the benchmark checks.
"""

import importlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="the benchmark refuses hosts with fewer than 2 CPUs")
@pytest.mark.parametrize("workload, trace", [
    ("simulation", 1), ("analyze_csv", 1), ("simulation", 0), ("analyze_csv", 0),
], ids=["simulation", "analyze_csv", "simulation-untraced", "analyze_csv-untraced"])
def test_traced_smoke_run_is_clean(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "0.5", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert '"failed": 0' in proc.stdout


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="the benchmark refuses hosts with fewer than 2 CPUs")
def test_digest_gate_and_bare_checkout_refusal(monkeypatch):
    """A tampered output and wrong stored digests fail the digest gate, and a
    checkout without the sources refuses to run: ``bench/smoke.py``'s checks."""
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    smoke = importlib.import_module("smoke")
    assert smoke.check_digest_gate() == []
    assert smoke.check_refuses_without_sources() == []
