"""Smoke test: the demos run to completion against the source tree."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", [
    "01_return_statistics.py",
    "02_two_agent_market.py",
    "03_herding_stylized_facts.py",
    "04_csv_ingestion.py",
    "05_seeded_ensembles.py",
])
def test_demo_runs(demo, tmp_path):
    # TMPDIR puts a demo's temporary files in the test's directory, where
    # none may be left behind
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), TMPDIR=str(tmp_path))
    result = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], cwd=ROOT, env=env,
                            capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr
    assert not list(tmp_path.iterdir())
