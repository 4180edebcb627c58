"""The three benchmark workloads: seeded inputs, the timed operations, and the
independent output checks.

Every workload is a closed loop: one caller in one thread issues its
operations ("ops") back to back.  `prepare` builds the inputs from the seed
(it runs inside the measured set-up), `run` executes the ops and times each
one, and `check` re-derives the outputs a second way outside the timed
region.  The program only ever sees the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from itertools import combinations
from math import comb

# Program functions are called through their modules, so that the traced
# run, which rebinds module attributes, also sees the calls made from here.
from qmpaths import cli, groebner, minors, verify
from qmpaths.cauchon import enumerate_cauchon_diagrams
from qmpaths.minors import HPrimeHandle, MinorSpec
from qmpaths.torus import Shape

ERROR = "error"


def _failed(out) -> bool:
    """An op that raised, or whose output is missing, left an ERROR tuple."""
    return isinstance(out, tuple) and out[:1] == (ERROR,)


def _seeded_tenth(seed: int, n: int) -> list:
    """Indices of a seeded tenth (at least one) of n ops, in order."""
    rng = random.Random(f"check-{seed}")
    return sorted(rng.sample(range(n), max(1, n // 10)))


def _minor_specs(shape: Shape, min_k: int) -> list:
    return [
        MinorSpec(I, J)
        for k in range(min_k, min(shape.m, shape.n) + 1)
        for I in combinations(range(1, shape.m + 1), k)
        for J in combinations(range(1, shape.n + 1), k)
    ]


def _allocate(weights: dict, total: int) -> dict:
    """Split total into whole numbers in proportion to weights (largest
    remainder), the same split for every seed."""
    norm = sum(weights.values())
    exact = {k: total * w / norm for k, w in weights.items()}
    quota = {k: int(x) for k, x in exact.items()}
    by_remainder = sorted(weights, key=lambda k: (quota[k] - exact[k], k))
    for k in by_remainder[: total - sum(quota.values())]:
        quota[k] += 1
    return quota


class Workload:
    """Default shape of a workload: one op per input, timed one by one."""

    def run(self, inputs):
        """Run the ops back to back; returns (latencies, outputs, start, end)."""
        latencies, outputs = [], []
        clock = time.perf_counter
        start = clock()
        for item in inputs:
            t0 = clock()
            try:
                out = self.op(item)
            except Exception as exc:  # an op that raises is counted, not fatal
                out = (ERROR, f"{type(exc).__name__}: {exc}")
            latencies.append(clock() - t0)
            outputs.append(out)
        return latencies, outputs, start, clock()

    def raised(self, outputs) -> list:
        """Per op, whether it raised or left no output."""
        return [_failed(out) for out in outputs]

    def digest_text(self, outputs) -> str:
        """Canonical text of all outputs, one line per op."""
        return "\n".join(
            repr(out) if _failed(out) else self.canonical(out) for out in outputs
        )


# ---------------------------------------------------------------------------
# groebner-check


def _stratified_sample(items, stratum, total: int, rng) -> list:
    """Seeded sample of `total` items with as many from each stratum as
    proportional allocation gives, so only the members drawn vary."""
    strata: dict = {}
    for it in items:
        strata.setdefault(stratum(it), []).append(it)
    quota = _allocate({k: len(v) for k, v in strata.items()}, total)
    picked = []
    for k in sorted(strata):
        picked.extend(rng.sample(strata[k], quota[k]))
    return picked


class GroebnerCheck(Workload):
    """Randomized Groebner-property check of sampled 4x4 diagrams at t = mn."""

    shape = Shape(4, 4)
    sizes = {"full": 400, "tiny": 4}
    samples = 15
    black_squares = range(5, 8)

    def prepare(self, seed: int, size: str):
        # Diagrams with 5 to 7 black squares (1714 of the 6902), where the
        # check is mostly evaluation by sigma, the mechanism this workload
        # is for.  With fewer black squares a single check costs up to
        # seconds and memory depending on the draw, so a run would measure
        # which diagrams and draws a seed picked; with more, building the
        # basis dominates.  Op cost grows steeply with the number of white
        # squares, so the mix of black-square counts is fixed across seeds.
        diagrams = [
            d for d in enumerate_cauchon_diagrams(self.shape)
            if len(d.black) in self.black_squares
        ]
        rng = random.Random(seed)
        picked = _stratified_sample(
            diagrams, lambda d: len(d.black), self.sizes[size], rng
        )
        picked.sort(key=lambda d: d.to_inline())
        # each check draws its random elements from its own seed, so that the
        # luck of the draw averages out over the ops of a run
        return [(d, rng.randrange(1 << 30)) for d in picked]

    def op(self, item):
        d, seed = item
        h = HPrimeHandle(d, self.shape.mn)
        return groebner.groebner_check(h, samples=self.samples, seed=seed)

    def canonical(self, out) -> str:
        return json.dumps(out.to_json(), sort_keys=True)

    def check(self, seed, inputs, outputs) -> list:
        return [_failed(o) or not o.passed for o in outputs]


# ---------------------------------------------------------------------------
# minor-products


class MinorProducts(Workload):
    """Left-to-right products of six quantum minors at shape 3x3."""

    shape = Shape(3, 3)
    sizes = {"full": 400, "tiny": 10}
    factors = 6

    def prepare(self, seed: int, size: str):
        """Each factor is one of the ten minors of size >= 2 and the
        threshold is random, but how many chains hold k 3x3 determinants
        (binomial, p = 1/10) and how often each threshold occurs per k are
        fixed: chain cost grows steeply with both, so a free draw would make
        the run's time depend on the seed."""
        specs = _minor_specs(self.shape, min_k=2)
        dets = [s for s in specs if s.k == 3]
        small = [s for s in specs if s.k == 2]
        p = len(dets) / len(specs)
        n = self.factors
        per_k = _allocate(
            {k: comb(n, k) * p**k * (1 - p) ** (n - k) for k in range(n + 1)},
            self.sizes[size],
        )
        rng = random.Random(seed)
        chains = []
        for k, count in per_k.items():
            for i in range(count):
                factors = [rng.choice(dets) for _ in range(k)]
                factors += [rng.choice(small) for _ in range(n - k)]
                rng.shuffle(factors)
                chains.append((1 + i % self.shape.mn, tuple(factors)))
        rng.shuffle(chains)
        return chains

    def op(self, item):
        t, specs = item
        prod = minors.minor_poly(self.shape, t, specs[0])
        for spec in specs[1:]:
            prod = prod * minors.minor_poly(self.shape, t, spec)
        return prod

    def canonical(self, out) -> str:
        return json.dumps(out.to_json(), sort_keys=True)

    def check(self, seed, inputs, outputs) -> list:
        """On a seeded tenth, the right-associated product equals the
        left-associated one."""
        bad = [_failed(o) for o in outputs]
        for idx in _seeded_tenth(seed, len(inputs)):
            if bad[idx]:
                continue
            t, specs = inputs[idx]
            prod = minors.minor_poly(self.shape, t, specs[-1])
            for spec in reversed(specs[:-1]):
                prod = minors.minor_poly(self.shape, t, spec) * prod
            bad[idx] = prod != outputs[idx]
        return bad


# ---------------------------------------------------------------------------
# verify-suites


class VerifySuites(Workload):
    """`qmpaths verify all --format json`, in-process; one op is one suite."""

    sizes = {"full": ("3", "3", "6"), "tiny": ("2", "2", "3")}

    def prepare(self, seed: int, size: str):
        m, n, samples = self.sizes[size]
        return ["verify", "all", "--max", m, n, "--samples", samples,
                "--seed", str(seed), "--format", "json"]

    def run(self, argv):
        """One cli.main call; each entry of the suite table is timed as an op."""
        latencies = []
        clock = time.perf_counter
        originals = dict(verify.SUITES)

        def timing(fn):
            def suite(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    latencies.append(clock() - t0)
            return suite

        buf = io.StringIO()
        verify.SUITES.update({k: timing(fn) for k, fn in originals.items()})
        start = clock()
        try:
            with contextlib.redirect_stdout(buf):
                self.exit_code = cli.main(argv)
        except Exception as exc:  # a crash fails every suite
            self.exit_code = f"{type(exc).__name__}: {exc}"
        finally:
            end = clock()
            verify.SUITES.update(originals)
        self.payload = buf.getvalue()
        try:
            reports = json.loads(self.payload)["reports"]
        except (ValueError, KeyError, TypeError):
            reports = []
        outputs = reports + [(ERROR, "missing report")] * (len(originals) - len(reports))
        latencies += [end - start] * (len(outputs) - len(latencies))
        return latencies, outputs, start, end

    def digest_text(self, outputs) -> str:
        return self.payload

    def check(self, seed, inputs, outputs) -> list:
        """Exit code 0, and the payload and each suite report say passed."""
        try:
            ok = self.exit_code == 0 and json.loads(self.payload)["passed"] is True
        except (ValueError, KeyError, TypeError):
            ok = False
        return [not ok or _failed(o) or o.get("passed") is not True for o in outputs]


WORKLOADS = {
    "groebner-check": GroebnerCheck(),
    "minor-products": MinorProducts(),
    "verify-suites": VerifySuites(),
}
