"""One pass of one workload, in a fresh interpreter.

Started by run.py with the monotonic time it was spawned at, so that set-up
time counts from interpreter start: importing qmpaths, enumerating diagrams
and generating the seeded inputs.  Prints one JSON object on its last line.

Usage: python3 perfbench/worker.py WORKLOAD SEED SIZE SPAWNED TRACE_PATH CHECK
(TRACE_PATH "-" runs untraced.  CHECK 0 skips the output checks and counts
only the ops that raised: a run checks its first pass, and every other pass
must give the same output digest.)
"""

import hashlib
import json
import os
import resource
import sys
import time


def main(argv):
    workload_name, seed, size, spawned, trace_path, check = argv
    seed, spawned = int(seed), float(spawned)
    src = os.path.abspath("src")
    sys.path.insert(0, src)
    import qmpaths

    if not os.path.abspath(qmpaths.__file__).startswith(src + os.sep):
        raise SystemExit(f"qmpaths imported from {qmpaths.__file__}, not {src}")
    from workloads import WORKLOADS

    w = WORKLOADS[workload_name]
    inputs = w.prepare(seed, size)
    tracer = None
    if trace_path != "-":
        from layertrace import Tracer

        tracer = Tracer()
        if hasattr(w, "op"):
            w.op = tracer.span("op", w.op)
        tracer.install()
    setup_s = time.monotonic() - spawned
    latencies, outputs, start, end = w.run(inputs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result = {}
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.metrics(end - start)
        layers["cli.output_bytes"] = len(getattr(w, "payload", "").encode())
        tracer.write(trace_path, {"workload": workload_name, "seed": seed,
                                  "metrics": layers})
        result = {"layers": layers, "cache_info": tracer.cache_deltas()}
    failed = w.check(seed, inputs, outputs) if check == "1" else w.raised(outputs)
    lat_ms = [x * 1000 for x in latencies]
    result.update({
        "setup_s": setup_s,
        "wall_s": end - start,
        "peak_rss_mb": peak_rss_mb,
        "ops": len(lat_ms),
        "lat_ms": lat_ms,
        "failed": sum(failed),
        "digest": hashlib.sha256(w.digest_text(outputs).encode()).hexdigest(),
    })
    print(json.dumps(result))


if __name__ == "__main__":
    main(sys.argv[1:])
