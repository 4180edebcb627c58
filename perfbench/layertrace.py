"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of each qmpaths layer from outside the
package: it rebinds every name in a qmpaths module (and every entry of the
verify suite table) that refers to the original function, times each call as
a span, and restores the originals on `uninstall`.  The very hot scalar
operations of `coeff` are only counted, to keep the overhead down.

Spans are kept in memory as (id, parent, name, start, end) columns, up to
MAX_SPANS of them, and written out at the end of the run; the metrics count
every call, kept or not.  A span's self time is its duration minus the time
covered by its child spans; since one thread runs the ops, children never
overlap, so the covered time is the sum of the child durations.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter

from qmpaths import cauchon, cli, coeff, groebner, minors, straighten, torus, verify

MAX_SPANS = 1_000_000

# The process-wide caches whose hit rates the traced run reports.
LRU_CACHES = {
    "torus.monomial_mul": torus.monomial_mul,
    "straighten.term_mul": straighten._term_mul,
    "straighten.count_tables": straighten._count_tables,
}

# Timed functions: (owner, attribute, span name).
TIMED = [
    (torus.TorusElement, "__mul__", "torus.mul"),
    (straighten.QmPoly, "__mul__", "straighten.qmpoly_mul"),
    (straighten, "straighten_word", "straighten.straighten_word"),
    (cauchon, "build_graph", "cauchon.build_graph"),
    (cauchon, "generator", "cauchon.generator"),
    (cauchon, "vdps_exists", "cauchon.vdps_exists"),
    (cauchon, "enumerate_vdps", "cauchon.enumerate_vdps"),
    (minors, "sigma", "minors.sigma"),
    (minors, "minor_in_kernel", "minors.minor_in_kernel"),
    (minors, "minor_poly", "minors.minor_poly"),
    (minors, "dd_forward", "minors.dd_forward"),
    (minors, "dd_backward", "minors.dd_backward"),
    (minors, "lindstrom_eval", "minors.lindstrom_eval"),
    (groebner, "reduce", "groebner.reduce"),
    (groebner, "hprime_minors", "groebner.hprime_minors"),
    (groebner, "groebner_basis", "groebner.groebner_basis"),
    (groebner, "groebner_check", "groebner.check"),
    (verify, "run_relations", "verify.relations"),
    (verify, "run_lindstrom", "verify.lindstrom"),
    (verify, "run_ddalg", "verify.ddalg"),
    (verify, "run_groebner", "verify.groebner"),
    (cli, "main", "cli.main"),
]

# Counted-only functions: (owner, attribute, counter name).
COUNTED = [
    (torus, "torus_product", "torus.product"),
    (cauchon, "enumerate_gamma", "cauchon.enumerate_gamma"),
    (coeff.LaurentScalar, "__mul__", "coeff.mul"),
    (coeff.LaurentScalar, "__add__", "coeff.add"),
    (groebner, "random_nonkernel_element", "groebner.nonkernel_samples"),
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.names: list = []
        self.span_id = array("q")
        self.span_parent = array("q")
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls: dict = {}
        self.self_s: dict = {}
        self.total_s: dict = {}
        self.counts: dict = {}
        self.dropped_spans = 0
        self._stack: list = []  # open spans: [span id, seconds covered by children]
        self._next_id = 0
        self._patches: list = []
        self._cache_start: dict = {}
        self._cache_end: dict = {}
        self._handles: set = set()

    # -- spans ---------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        self.calls[name] = 0
        self.self_s[name] = 0.0
        self.total_s[name] = 0.0
        return len(self.names) - 1

    def _close(self, nid: int, name: str, frame: list, start: float, end: float):
        stack = self._stack
        stack.pop()
        dur = end - start
        self.calls[name] += 1
        self.self_s[name] += dur - frame[1]
        self.total_s[name] += dur
        if stack:
            stack[-1][1] += dur
        if len(self.span_id) >= MAX_SPANS:
            self.dropped_spans += 1
            return
        self.span_parent.append(stack[-1][0] if stack else -1)
        self.span_id.append(frame[0])
        self.span_name.append(nid)
        self.span_start.append(start)
        self.span_end.append(end)

    def span(self, name: str, fn):
        """fn wrapped so that each call records a span called name."""
        nid = self._name_id(name)
        stack = self._stack
        close = self._close

        def wrapper(*args, **kwargs):
            frame = [self._next_id, 0.0]
            self._next_id += 1
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                close(nid, name, frame, start, perf_counter())

        return wrapper

    def counter(self, name: str, fn):
        counts = self.counts
        counts[name] = 0

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------------

    def _rebind(self, owner, attr: str, replacement):
        """Point owner.attr, and every other qmpaths name or suite-table entry
        bound to the same object, at replacement."""
        original = getattr(owner, attr)
        owners = {id(owner): owner}
        for name, mod in sys.modules.items():
            if name == "qmpaths" or name.startswith("qmpaths."):
                owners[id(mod)] = mod
        for o in owners.values():
            for key, val in list(vars(o).items()):
                if val is original:
                    self._patches.append((o, key, val))
                    setattr(o, key, replacement)
        for key, val in verify.SUITES.items():
            if val is original:
                self._patches.append((verify.SUITES, key, val))
                verify.SUITES[key] = replacement

    def install(self):
        for name, fn in LRU_CACHES.items():
            self._cache_start[name] = fn.cache_info()
        wrapped = {}
        for owner, attr, name in TIMED:
            wrapped[name] = self.span(name, getattr(owner, attr))
        for owner, attr, name in COUNTED:
            wrapped[name] = self.counter(name, getattr(owner, attr))
        self._add_observers(wrapped)
        for owner, attr, name in TIMED + COUNTED:
            self._rebind(owner, attr, wrapped[name])

    def uninstall(self):
        for name, fn in LRU_CACHES.items():
            self._cache_end[name] = fn.cache_info()
        for owner, key, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._patches.clear()

    def _add_observers(self, wrapped: dict):
        """Wrap the timed wrappers of some functions once more to count what
        their arguments and results say; this work falls in the caller's
        self time."""
        counts = self.counts
        for name in ("torus.mul.term_pairs", "minors.sigma.terms_in",
                     "minors.minor_in_kernel.true", "groebner.reduce.steps",
                     "cauchon.gamma_cache.hits", "cauchon.paths.count",
                     "groebner.nonkernel_sigma", "verify.relations.checks",
                     "verify.lindstrom.checks", "verify.ddalg.checks",
                     "verify.groebner.checks"):
            counts[name] = 0
        calls = self.calls
        handles = self._handles

        def observe(name, body):
            inner = wrapped[name]
            wrapped[name] = lambda *a, **k: body(inner, *a, **k)

        def torus_mul(inner, a, b):
            counts["torus.mul.term_pairs"] += len(a.terms) * len(b.terms)
            return inner(a, b)

        def sigma(inner, handle, a):
            counts["minors.sigma.terms_in"] += len(a.terms)
            return inner(handle, a)

        def minor_in_kernel(inner, *args):
            out = inner(*args)
            counts["minors.minor_in_kernel.true"] += bool(out)
            return out

        def reduce(inner, *args):
            out = inner(*args)
            counts["groebner.reduce.steps"] += len(out[1])
            return out

        def enumerate_gamma(inner, g, t, i, j):
            hit = (g.shape.threshold_coord(t), i, j) in g._gamma_cache
            out = inner(g, t, i, j)
            if hit:
                counts["cauchon.gamma_cache.hits"] += 1
            else:
                counts["cauchon.paths.count"] += len(out)
            return out

        def hprime_minors(inner, handle):
            handles.add((handle.diagram, handle.t))
            return inner(handle)

        def nonkernel(inner, *args, **kwargs):
            before = calls["minors.sigma"]
            out = inner(*args, **kwargs)
            counts["groebner.nonkernel_sigma"] += calls["minors.sigma"] - before
            return out

        def suite(suite_name):
            def body(inner, *args, **kwargs):
                report = inner(*args, **kwargs)
                counts[f"verify.{suite_name}.checks"] += report.checks
                return report
            return body

        observe("torus.mul", torus_mul)
        observe("minors.sigma", sigma)
        observe("minors.minor_in_kernel", minor_in_kernel)
        observe("groebner.reduce", reduce)
        observe("cauchon.enumerate_gamma", enumerate_gamma)
        observe("groebner.hprime_minors", hprime_minors)
        observe("groebner.nonkernel_samples", nonkernel)
        for suite_name in ("relations", "lindstrom", "ddalg", "groebner"):
            observe(f"verify.{suite_name}", suite(suite_name))

    # -- results -------------------------------------------------------------

    def cache_deltas(self) -> dict:
        out = {}
        for name in LRU_CACHES:
            a, b = self._cache_start[name], self._cache_end[name]
            out[name] = {
                "hits": b.hits - a.hits,
                "misses": b.misses - a.misses,
                "size_growth": b.currsize - a.currsize,
                "maxsize": b.maxsize,
            }
        return out

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics of everything traced between install and
        uninstall, keyed by the metric names of BENCHMARK.json; wall_s is
        the traced wall time, the base of the shares."""
        c, s, n, tot = self.counts, self.self_s, self.calls, self.total_s
        caches = self.cache_deltas()

        def hit_ratio(cache):
            d = caches[cache]
            return _ratio(d["hits"], d["hits"] + d["misses"])

        term_mul = caches["straighten.term_mul"]
        m = {
            "coeff.mul.calls": c["coeff.mul"],
            "coeff.add.calls": c["coeff.add"],
            "torus.mul.calls": n["torus.mul"],
            "torus.mul.self_s": s["torus.mul"],
            "torus.mul.term_pairs": c["torus.mul.term_pairs"],
            "torus.product.calls": c["torus.product"],
            "torus.monomial_mul.hit_ratio": hit_ratio("torus.monomial_mul"),
            "straighten.qmpoly_mul.calls": n["straighten.qmpoly_mul"],
            "straighten.qmpoly_mul.self_s": s["straighten.qmpoly_mul"],
            "straighten.straighten_word.calls": n["straighten.straighten_word"],
            "straighten.straighten_word.self_s": s["straighten.straighten_word"],
            "straighten.straighten_word.share": tot["straighten.straighten_word"] / wall_s,
            "straighten.term_mul.hit_ratio": hit_ratio("straighten.term_mul"),
            "straighten.term_mul.evictions": term_mul["misses"] - term_mul["size_growth"],
            "cauchon.build_graph.calls": n["cauchon.build_graph"],
            "cauchon.build_graph.self_s": s["cauchon.build_graph"],
            "cauchon.enumerate_gamma.calls": c["cauchon.enumerate_gamma"],
            "cauchon.gamma_cache.hit_ratio": _ratio(
                c["cauchon.gamma_cache.hits"], c["cauchon.enumerate_gamma"]
            ),
            "cauchon.paths.count": c["cauchon.paths.count"],
            "cauchon.generator.calls": n["cauchon.generator"],
            "cauchon.generator.self_s": s["cauchon.generator"],
            "cauchon.vdps_exists.calls": n["cauchon.vdps_exists"],
            "cauchon.vdps_exists.self_s": s["cauchon.vdps_exists"],
            "cauchon.enumerate_vdps.calls": n["cauchon.enumerate_vdps"],
            "cauchon.enumerate_vdps.self_s": s["cauchon.enumerate_vdps"],
            "minors.sigma.calls": n["minors.sigma"],
            "minors.sigma.self_s": s["minors.sigma"],
            "minors.sigma.terms_in": c["minors.sigma.terms_in"],
            "minors.sigma.share": tot["minors.sigma"] / wall_s,
            "minors.minor_in_kernel.calls": n["minors.minor_in_kernel"],
            "minors.minor_in_kernel.self_s": s["minors.minor_in_kernel"],
            "minors.minor_in_kernel.true_ratio": _ratio(
                c["minors.minor_in_kernel.true"], n["minors.minor_in_kernel"]
            ),
            "minors.minor_poly.calls": n["minors.minor_poly"],
            "minors.minor_poly.self_s": s["minors.minor_poly"],
            "minors.dd_forward.self_s": s["minors.dd_forward"],
            "minors.dd_backward.self_s": s["minors.dd_backward"],
            "minors.lindstrom_eval.self_s": s["minors.lindstrom_eval"],
            "groebner.reduce.calls": n["groebner.reduce"],
            "groebner.reduce.self_s": s["groebner.reduce"],
            "groebner.reduce.steps": c["groebner.reduce.steps"],
            "groebner.hprime_minors.calls_per_handle": _ratio(
                n["groebner.hprime_minors"], len(self._handles)
            ),
            "groebner.hprime_minors.self_s": s["groebner.hprime_minors"],
            "groebner.groebner_basis.calls": n["groebner.groebner_basis"],
            "groebner.check.self_s": s["groebner.check"],
            "groebner.sigma_per_nonkernel_sample": _ratio(
                c["groebner.nonkernel_sigma"], c["groebner.nonkernel_samples"]
            ),
            "cli.main.self_s": s["cli.main"],
        }
        for suite_name in ("relations", "lindstrom", "ddalg", "groebner"):
            m[f"verify.{suite_name}.s"] = tot[f"verify.{suite_name}"]
            m[f"verify.{suite_name}.checks"] = c[f"verify.{suite_name}.checks"]
        return m

    def write(self, path: str, header: dict):
        """Write a JSON header line, then one CSV line per kept span:
        id,parent,name,start_ns,end_ns (parent -1 for a root; times from
        the first kept span's start)."""
        t0 = min(self.span_start, default=0.0)
        with open(path, "w") as f:
            f.write(json.dumps({**header, "cache_info": self.cache_deltas(),
                                "spans_kept": len(self.span_id),
                                "spans_dropped": self.dropped_spans,
                                "columns": "id,parent,name,start_ns,end_ns"},
                               sort_keys=True) + "\n")
            names = self.names
            for sid, parent, nid, start, end in zip(
                self.span_id, self.span_parent, self.span_name,
                self.span_start, self.span_end,
            ):
                f.write(f"{sid},{parent},{names[nid]},"
                        f"{round((start - t0) * 1e9)},{round((end - t0) * 1e9)}\n")
