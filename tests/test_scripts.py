"""Smoke tests: the example scripts run from the repository root."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).parent / "golden"


def run_script(*argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True
    )


def test_worked_example_matches_golden():
    proc = run_script("scripts/worked_example.py")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / "worked_example.txt").read_text()


def test_hprime_census_runs():
    proc = run_script("scripts/hprime_census.py", "2", "3")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
