#!/usr/bin/env python3
"""Benchmark of the qmpaths library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a source checkout (the directory holding src/qmpaths and
BENCHMARK.json).  Each pass of a workload runs in a fresh interpreter
(perfbench/worker.py), so the process-wide lru_caches start cold every time.

--trace 0 repeats identical passes until --seconds is used up (at least
three).  It reports the mean over the passes of setup_s, wall_s and
peak_rss_mb; op_p50_ms and op_p95_ms are cut from each op's mean latency
over the passes.
--trace 1 runs one untraced and one traced pass and reports the per-layer
metrics of the traced pass, with the traced/untraced wall-time ratio as
trace.overhead_ratio; its spans go to .bench_out/.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  The output digest of the default seed must
equal the one recorded in perfbench/digests.json.
"""

import argparse
import compileall
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SEED = 0
MIN_PASSES = 3
# A run must end within 180 s whatever --seconds says.
DEADLINE_S = 170.0
TRACE_DIR = ".bench_out"


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def load_spec() -> dict:
    try:
        with open("BENCHMARK.json") as f:
            return json.load(f)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}")


def load_digests() -> dict:
    with open(os.path.join(HERE, "digests.json")) as f:
        return json.load(f)


def build():
    """Check that the program is here and byte-compile it."""
    if not os.path.isfile(os.path.join("src", "qmpaths", "__init__.py")):
        raise BenchError("src/qmpaths not found: run from the root of a qmpaths checkout")
    for path in ("src", HERE):
        if not compileall.compile_dir(path, quiet=1):
            raise BenchError(f"byte-compiling {path} failed")


def run_pass(workload: str, seed: int, size: str, trace_path: str, deadline: float,
             check: bool) -> dict:
    """One pass in a fresh interpreter; returns the worker's result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before a pass could start")
    spawned = time.monotonic()
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), workload, str(seed),
           size, repr(spawned), trace_path, str(int(check))]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: a pass did not finish in {timeout:.0f} s")
    if proc.returncode != 0:
        raise BenchError(f"{workload}: worker exited {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["elapsed"] = time.monotonic() - spawned
    return result


def digest_status(workload: str, seed: int, size: str, digests: set) -> tuple:
    """(ok, text): every pass gave one digest, equal to the recorded one for
    the default seed."""
    if len(digests) != 1:
        return False, f"passes disagree: {sorted(digests)}"
    (digest,) = digests
    if seed != DEFAULT_SEED:
        return True, f"{digest} (seed {seed}: nothing recorded)"
    recorded = load_digests()[size].get(workload)
    if digest != recorded:
        return False, f"{digest} differs from recorded {recorded}"
    return True, f"{digest} (matches the recorded digest of seed {seed})"


def measure(spec: dict, workload: str, seed: int, seconds: float, trace: bool,
            size: str = "full", min_passes: int = MIN_PASSES) -> tuple:
    """Run a workload; returns (human-readable lines, result object)."""
    start = time.monotonic()
    deadline = start + DEADLINE_S
    lines = [f"workload {workload}, seed {seed}, size {size}: closed loop, one caller"]
    passes = []
    if trace:
        os.makedirs(TRACE_DIR, exist_ok=True)
        trace_path = os.path.join(TRACE_DIR, f"trace-{workload}-seed{seed}-{size}.jsonl")
        passes.append(run_pass(workload, seed, size, "-", deadline, check=True))
        passes.append(run_pass(workload, seed, size, trace_path, deadline, check=False))
        lines.append(f"spans written to {trace_path}")
    else:
        # no pass starts unless the longest one so far would still fit
        while len(passes) < min_passes or (
            time.monotonic() - start + max(p["elapsed"] for p in passes) <= seconds
            and time.monotonic() + max(p["elapsed"] for p in passes) < deadline
        ):
            passes.append(run_pass(workload, seed, size, "-", deadline, check=not passes))
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    ok, digest_text = digest_status(workload, seed, size, {p["digest"] for p in passes})
    lines.append(f"digest sha256 {digest_text}")

    notes = {}
    if trace:
        untraced, traced = passes
        values = dict(traced["layers"])
        values["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
        declared = spec["per_layer"]
        for name, d in sorted(traced["cache_info"].items()):
            lines.append(
                f"cache_info delta {name}: hits {d['hits']}, misses {d['misses']}, "
                f"size growth {d['size_growth']} (maxsize {d['maxsize']})"
            )
    else:
        # The shared host slows down in spells of tens of seconds.  A mean
        # over the passes weighs each spell by its length, where a median
        # jumps to whichever speed held in most passes.
        values = {
            name: statistics.fmean(p[name] for p in passes)
            for name in ("setup_s", "wall_s", "peak_rss_mb")
        }
        # Every pass runs the same ops, so each op's latency is taken as its
        # mean over the passes before the percentiles are cut.  They
        # interpolate between neighbouring samples, so that a workload with
        # few ops still gives a steady figure.
        lat_ms = [statistics.fmean(lat) for lat in zip(*(p["lat_ms"] for p in passes))]
        cuts = statistics.quantiles(lat_ms, n=100, method="inclusive")
        values["op_p50_ms"], values["op_p95_ms"] = cuts[49], cuts[94]
        declared = spec["end_to_end"]
        ops = passes[0]["ops"]
        lines.append(f"{len(passes)} passes of {ops} ops; op_p50_ms and op_p95_ms are cut from "
                     "each op's mean latency over the passes, the other metrics are "
                     "means over the passes")
        notes["op_p95_ms"] = f"over {ops} samples per pass, {ops - ops * 95 // 100} beyond it"
    for m in declared:
        note = f"  ({notes[m['name']]})" if m["name"] in notes else ""
        lines.append(f"{m['name']:44s} {values[m['name']]:.6g} {m['unit']}{note}")
    lines.append(f"{'error_rate':44s} {failed / attempted:.6g} ratio  ({failed} failed of {attempted} attempted)")
    result = {
        "correct": ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return lines, result


def self_test(spec: dict) -> int:
    """Every workload at its tiny size, untraced and traced: every declared
    metric is reported and every digest matches the recorded one."""
    problems = []
    for w in spec["workloads"]:
        for trace in (False, True):
            lines, result = measure(spec, w["name"], DEFAULT_SEED, 0, trace,
                                    size="tiny", min_passes=1)
            kind = "per_layer" if trace else "end_to_end"
            want = {m["name"] for m in spec[kind]}
            got = set(result["metrics"])
            if got != want:
                problems.append(f"{w['name']} {kind}: missing {sorted(want - got)}, extra {sorted(got - want)}")
            if not result["correct"]:
                problems.append(f"{w['name']} trace={int(trace)}: not correct\n  " + "\n  ".join(lines))
            print(f"self-test {w['name']} trace={int(trace)}: "
                  f"{'ok' if result['correct'] else 'FAILED'}, {len(got)} metrics")
    for p in problems:
        print("self-test problem:", p)
    print("self-test", "passed" if not problems else "FAILED")
    return 1 if problems else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args(argv)
    # On SIGTERM, exit through subprocess.run, which kills and reaps a
    # running pass.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        spec = load_spec()
        build()
        if args.self_test:
            return self_test(spec)
        names = [w["name"] for w in spec["workloads"]]
        if args.workload not in names:
            ap.error(f"--workload must be one of {names}")
        seconds = spec["run_seconds"] if args.seconds is None else args.seconds
        lines, result = measure(spec, args.workload, args.seed, seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
