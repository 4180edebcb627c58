"""The names the benchmark's layer tracer wraps must exist in the library.

`perfbench/layertrace.py` rebinds functions by owner and attribute name; a
refactor that deletes or renames one of them would only show as a crash of
the traced benchmark run, so these tests resolve every target up front.
"""

import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import layertrace  # noqa: E402

from qmpaths import groebner, verify  # noqa: E402
from qmpaths.cauchon import Diagram  # noqa: E402
from qmpaths.minors import HPrimeHandle, MinorSpec, minor_poly  # noqa: E402


def _targets():
    return layertrace.TIMED + layertrace.COUNTED


def test_every_timed_and_counted_target_is_callable():
    for owner, attr, name in _targets():
        assert callable(getattr(owner, attr, None)), f"{name}: {owner!r}.{attr}"


def test_every_lru_cache_reports_cache_info():
    for name, fn in layertrace.LRU_CACHES.items():
        assert fn.cache_info() is not None, name


def _bindings():
    """Every name in a qmpaths module, every suite-table entry and every
    tracer target, mapped to the object it is bound to."""
    out = {}
    for modname, mod in list(sys.modules.items()):
        if modname == "qmpaths" or modname.startswith("qmpaths."):
            out.update(((modname, key), val) for key, val in vars(mod).items())
    out.update((("SUITES", key), val) for key, val in verify.SUITES.items())
    for owner, attr, name in _targets():
        out[(name, attr)] = getattr(owner, attr)
    return out


def test_install_then_uninstall_restores_the_originals():
    before = _bindings()
    tracer = layertrace.Tracer()
    tracer.install()
    try:
        during = _bindings()
        assert all(during[key] is not before[key] for key in
                   ((name, attr) for _, attr, name in _targets()))
    finally:
        tracer.uninstall()
    after = _bindings()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_traced_library_ops_of_each_workload_kind(monkeypatch):
    # one small op of each workload kind runs in this process under the
    # installed tracer, so a library path that reaches an observer reading
    # state the library no longer keeps raises here, not only in the traced
    # benchmark run; the sweeps see one CPU and fork nothing
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    d = Diagram.from_text("##./#../...")
    sh = d.shape
    tracer = layertrace.Tracer()
    tracer.install()
    start = time.perf_counter()
    try:
        assert verify.run_relations(2, 2).passed
        assert verify.run_lindstrom(2, 2).passed
        assert groebner.groebner_check(HPrimeHandle(d, sh.mn), samples=3).passed
        left = minor_poly(sh, 7, MinorSpec.of((1, 2), (1, 3)))
        assert left * minor_poly(sh, 7, MinorSpec.of((2,), (2,)))
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(time.perf_counter() - start)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["per_layer"]}
    # the worker adds the payload size, and the runner the ratio of the
    # traced to the untraced wall time
    outside = {"cli.output_bytes", "trace.overhead_ratio"}
    assert outside <= names
    assert sorted(names - outside - metrics.keys()) == []
    for name in ("verify.relations", "verify.lindstrom", "groebner.check",
                 "minors.lindstrom_eval", "straighten.qmpoly_mul"):
        assert tracer.calls[name] > 0, name
