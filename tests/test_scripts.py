"""Smoke tests: the example scripts run from the repository root."""

import hashlib
import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

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


#: sha256 of the census stdout up to 3x3 (2x2, 2x3, 3x2, 3x3)
CENSUS_3X3_SHA256 = "b99df328f3c6fe62f1c7b743c7e5858a66de7e4cdc872fea54fae04eb39cfded"


def test_hprime_census_3x3_matches_digest():
    proc = run_script("scripts/hprime_census.py", "3", "3")
    assert proc.returncode == 0, proc.stderr
    assert hashlib.sha256(proc.stdout.encode()).hexdigest() == CENSUS_3X3_SHA256


def _stress_runs():
    spec = importlib.util.spec_from_file_location(
        "stress_runs", ROOT / "scripts" / "stress_runs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_stress_runs_flags_a_digest_mismatch(monkeypatch, capsys):
    # the worker is replaced, so no stress case runs
    stress = _stress_runs()
    results = {name: {"case": name, "seconds": 0.0, "peak_rss_mb": 0.0,
                      "sha256": digest}
               for name, digest in stress.DIGESTS.items()}
    monkeypatch.setattr(stress, "run_worker", lambda name: results[name])
    assert stress.main([]) == 0
    assert "digest mismatch" not in capsys.readouterr().err
    results["6x6-basis"] = dict(results["6x6-basis"], sha256="0" * 64)
    assert stress.main([]) == 1
    out, err = capsys.readouterr()
    assert "5x5-check" in out and "6x6-basis" in out
    assert "6x6-basis: digest mismatch" in err


#: sha256 of `qmpaths verify all --max 3 4 --samples 6 --format json`
VERIFY_3X4_SHA256 = "67c81e61c32cb1f79f665ad4edd9837a4d192cdb9e81a9914b02d10f3ff12e58"


def test_stress_runs_verify_3x4_matches_digest():
    # every suite on every shape up to 3x4, with its long shapes 2x4 and
    # 3x4, in a fresh interpreter; a few seconds
    stress = _stress_runs()
    result = stress.run_worker("verify-3x4")
    assert result is not None
    assert result["sha256"] == stress.DIGESTS["verify-3x4"] == VERIFY_3X4_SHA256


#: sha256 of the Groebner stress cases: the 5x5-check report and the
#: 6x6-basis spec list
GROEBNER_STRESS_SHA256 = {
    "5x5-check": "e379fdcd926d8b0515ab6e5ce4d1da29aed92f59033a95d8f7df23386c09b697",
    "6x6-basis": "3f9ed5c1c3756b6793f461848aa4f316b0dac8232e92fadedbf2e77c711030b4",
}


@pytest.mark.parametrize("name", sorted(GROEBNER_STRESS_SHA256))
def test_stress_runs_groebner_case_matches_digest(name):
    # reduction and leading keys at 5x5 and 6x6, in a fresh interpreter;
    # about a second each
    stress = _stress_runs()
    result = stress.run_worker(name)
    assert result is not None
    assert result["sha256"] == stress.DIGESTS[name] == GROEBNER_STRESS_SHA256[name]
