#!/usr/bin/env python3
"""One timed run of each stress case that perfbench leaves out.

  5x5-check  groebner_check on .#.../#..../...../...../..... at t = 25,
             samples=20, seed 0; the digest is the sha256 of its JSON report
  6x6-basis  groebner_basis(check=True) on .###.#/..#.../#.#.../###.../..#.../#.....
             at t = 36; the digest is the sha256 of its spec list
  enum-5x5   enumerate_cauchon_diagrams on the 5x5 grid (329,462 diagrams);
             the digest is the sha256 of their inline strings in order, each
             followed by a newline, fed to the hash as they are enumerated
  verify-4x4 `qmpaths verify all --max 4 4 --samples 15 --format json`,
             in-process; the digest is the sha256 of its payload

Each case runs in a fresh interpreter, so the process-wide caches start cold
and the peak RSS is the case's own: the larger of the interpreter's and of
any process it forked and reaped (the verify sweeps' workers).  One line
per case: name, seconds (the case alone, not the imports), peak RSS in MB
and the digest.  Each digest is checked against the committed one in
DIGESTS; on a difference a `digest mismatch` line goes to stderr and the
exit status is 1.

Usage: python scripts/stress_runs.py [case ...]   (default: every case)
"""

import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CASES = {
    "5x5-check": ".#.../#..../...../...../.....",
    "6x6-basis": ".###.#/..#.../#.#.../###.../..#.../#.....",
    "enum-5x5": "...../...../...../...../.....",  # only its shape is read
    "verify-4x4": "verify all --max 4 4 --samples 15 --format json",  # CLI argv
}

DIGESTS = {
    "5x5-check": "e379fdcd926d8b0515ab6e5ce4d1da29aed92f59033a95d8f7df23386c09b697",
    "6x6-basis": "3f9ed5c1c3756b6793f461848aa4f316b0dac8232e92fadedbf2e77c711030b4",
    "enum-5x5": "a742ad635e8bc5e167c1392421d475ca168180b5cfdf15c68463ce4e4242a3b4",
    "verify-4x4": "0247d7d0421d2bdee8de4122883c01330cd6bd049646671d5cbf06445cab917b",
}


def run_case(name: str) -> dict:
    """Run one case in this process; returns its seconds, peak RSS and
    digest."""
    sys.path.insert(0, str(ROOT / "src"))
    from qmpaths import cli
    from qmpaths.cauchon import Diagram, enumerate_cauchon_diagrams
    from qmpaths.groebner import groebner_basis, groebner_check
    from qmpaths.minors import HPrimeHandle

    digest = hashlib.sha256()
    start = time.perf_counter()
    if name == "verify-4x4":
        payload = io.StringIO()
        with contextlib.redirect_stdout(payload):
            cli.main(CASES[name].split())
        digest.update(payload.getvalue().encode())
    elif name == "enum-5x5":
        d = Diagram.from_text(CASES[name])
        for e in enumerate_cauchon_diagrams(d.shape):
            digest.update(e.to_inline().encode() + b"\n")
    else:
        d = Diagram.from_text(CASES[name])
        h = HPrimeHandle(d, d.shape.mn)
        if name == "5x5-check":
            out = groebner_check(h, samples=20, seed=0).to_json()
        else:
            out = groebner_basis(h, check=True).spec_strings()
        digest.update(json.dumps(out, sort_keys=True).encode())
    seconds = time.perf_counter() - start
    return {
        "case": name,
        "seconds": round(seconds, 2),
        "peak_rss_mb": round(max(
            resource.getrusage(who).ru_maxrss
            for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)
        ) / 1024, 1),
        "sha256": digest.hexdigest(),
    }


def run_worker(name: str) -> dict | None:
    """Run one case in a fresh interpreter; its result, or None after
    printing the worker's stderr."""
    proc = subprocess.run(
        [sys.executable, __file__, "--worker", name],
        capture_output=True, text=True,
    )
    if proc.returncode != 0:
        print(f"{name}: failed\n{proc.stderr}", file=sys.stderr)
        return None
    return json.loads(proc.stdout)


def main(argv) -> int:
    if argv[:1] == ["--worker"]:
        print(json.dumps(run_case(argv[1])))
        return 0
    names = argv or list(CASES)
    unknown = [n for n in names if n not in CASES]
    if unknown:
        print(f"unknown case(s): {', '.join(unknown)}; "
              f"choose from {', '.join(CASES)}", file=sys.stderr)
        return 2
    status = 0
    for name in names:
        r = run_worker(name)
        if r is None:
            return 1
        print(f"{r['case']:10s} {r['seconds']:8.2f} s {r['peak_rss_mb']:7.1f} MB"
              f"  sha256 {r['sha256']}")
        if r["sha256"] != DIGESTS[name]:
            print(f"{name}: digest mismatch: expected {DIGESTS[name]}",
                  file=sys.stderr)
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
