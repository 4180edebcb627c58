#!/usr/bin/env python3
"""Per-layer counts of the benchmark workloads, free of timing noise.

Runs `perfbench/run.py --trace 1 --seed 0` once per workload named in
BENCHMARK.json, each as a subprocess, and writes BENCH_<label>.json at the
repository root.  Per workload it records the `correct` flag, the number of
failed ops, the digest line and every count and ratio metric of the traced
pass.  Seconds are left out, and so are the ratios computed from seconds
(`*.share`, `trace.overhead_ratio`): what remains is the same on every run of
one commit, so the files of two commits can be diffed directly.  The traced
workloads take a few minutes in all.

Usage: python3 scripts/bench_counts.py LABEL     (writes BENCH_LABEL.json)
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIME_DERIVED = (".share", "overhead_ratio")


def workload_counts(name: str) -> dict:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name,
         "--seed", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        sys.exit(f"error: {name}: perfbench/run.py exited with "
                 f"{proc.returncode}: {proc.stderr.strip()}")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    digest = next(line[len("digest sha256 "):] for line in lines
                  if line.startswith("digest sha256 "))
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "digest": digest,
        "metrics": {
            key: m["value"] for key, m in sorted(result["metrics"].items())
            if m["unit"] in ("count", "ratio") and not key.endswith(TIME_DERIVED)
        },
    }


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[-1], file=sys.stderr)
        return 2
    label = argv[0]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = {
        "label": label,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpu_count": os.cpu_count(),
        "workloads": {w["name"]: workload_counts(w["name"]) for w in spec["workloads"]},
    }
    path = ROOT / f"BENCH_{label}.json"
    path.write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    print(f"wrote {path.name}")
    return 0 if all(w["correct"] for w in out["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
