"""Exhaustive small-shape verification suites.

Each suite sweeps every Cauchon diagram on every shape up to a cap and
checks an exact algebraic identity; failures carry a printable witness.
These back both the command-line `verify` subcommand and the acceptance
tests.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from itertools import combinations

from .coeff import LAM, q_power
from .torus import Shape, mono_key
from .straighten import QmPoly
from .cauchon import (
    Diagram,
    build_graph,
    enumerate_cauchon_diagrams,
    enumerate_vdps,
    generator_matrix,
    generator,
    system_turn_key,
)
from .minors import (
    HPrimeHandle,
    MinorSpec,
    dd_backward,
    dd_forward,
    lindstrom_eval,
    minor_poly,
    sigma,
)
from .groebner import groebner_check


@dataclass
class Report:
    suite: str
    params: dict
    checks: int = 0
    failures: list = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        """No failures, and at least one check ran: an empty sweep proves
        nothing."""
        return self.checks > 0 and not self.failures

    def fail(self, **witness):
        if len(self.failures) < 25:
            self.failures.append(witness)
        else:
            self.failures.append({"truncated": True})
            raise _TooManyFailures

    def to_json(self) -> dict:
        # no timing fields: json output is byte-for-byte reproducible
        return {
            "schema": 1,
            "suite": self.suite,
            "params": self.params,
            "passed": self.passed,
            "checks": self.checks,
            "failures": self.failures,
        }


class _TooManyFailures(Exception):
    pass


def _shapes(max_m: int, max_n: int):
    return [
        Shape(m, n)
        for m in range(2, max_m + 1)
        for n in range(2, max_n + 1)
    ]


def _run(report: Report, body) -> Report:
    t0 = time.time()
    try:
        body(report)
    except _TooManyFailures:
        pass
    report.elapsed = time.time() - t0
    return report


# ---------------------------------------------------------------------------
# suite: generator relations


def run_relations(max_m: int = 3, max_n: int = 3) -> Report:
    """Path-built generator matrices satisfy the defining relations of the
    threshold-t algebra, for every diagram and threshold in range."""
    report = Report("relations", {"max": [max_m, max_n]})

    def body(report):
        for shape in _shapes(max_m, max_n):
            for d in enumerate_cauchon_diagrams(shape):
                g = build_graph(d)
                for t in range(1, shape.mn + 1):
                    rs = shape.threshold_coord(t)
                    X = generator_matrix(g, t)
                    for i, k in combinations(range(1, shape.m + 1), 2):
                        for j, l in combinations(range(1, shape.n + 1), 2):
                            a, b = X[i - 1][j - 1], X[i - 1][l - 1]
                            c, dd = X[k - 1][j - 1], X[k - 1][l - 1]
                            q1 = q_power(1)
                            checks = [
                                ("ab=qba", a * b == (b * a).scale(q1)),
                                ("cd=qdc", c * dd == (dd * c).scale(q1)),
                                ("ac=qca", a * c == (c * a).scale(q1)),
                                ("bd=qdb", b * dd == (dd * b).scale(q1)),
                                ("bc=cb", b * c == c * b),
                            ]
                            if (k, l) > rs:
                                checks.append(("ad=da", a * dd == dd * a))
                            else:
                                checks.append(
                                    (
                                        "ad=da+lam*bc",
                                        a * dd == dd * a + (b * c).scale(LAM),
                                    )
                                )
                            for name, ok in checks:
                                report.checks += 1
                                if not ok:
                                    report.fail(
                                        diagram=d.to_inline(),
                                        t=t,
                                        submatrix=[i, j, k, l],
                                        relation=name,
                                    )

    return _run(report, body)


# ---------------------------------------------------------------------------
# suite: path evaluation of minors


def run_lindstrom(max_m: int = 3, max_n: int = 3) -> Report:
    """For every minor with maximum coordinate at most the threshold
    coordinate: the evaluation homomorphism agrees with the disjoint
    path-system weight sum, vanishing exactly when the family is empty, and
    distinct systems have distinct exponent matrices."""
    report = Report("lindstrom", {"max": [max_m, max_n]})

    def body(report):
        for shape in _shapes(max_m, max_n):
            specs = [
                MinorSpec(I, J)
                for k in range(1, min(shape.m, shape.n) + 1)
                for I in combinations(range(1, shape.m + 1), k)
                for J in combinations(range(1, shape.n + 1), k)
            ]
            for d in enumerate_cauchon_diagrams(shape):
                base = HPrimeHandle(d, 1)
                for t in range(1, shape.mn + 1):
                    h = base.at(t)
                    for spec in specs:
                        if spec.max_coord > h.rs:
                            continue
                        report.checks += 1
                        via_sigma = sigma(h, minor_poly(shape, t, spec))
                        via_paths = lindstrom_eval(h, spec)
                        systems = enumerate_vdps(h.graph, t, spec.I, spec.J)
                        keys = [system_turn_key(h.graph, s) for s in systems]
                        ok = (
                            via_sigma == via_paths
                            and via_paths.is_zero() == (not systems)
                            and len(set(keys)) == len(keys)
                        )
                        if not ok:
                            report.fail(
                                diagram=d.to_inline(), t=t, minor=str(spec)
                            )

    return _run(report, body)


# ---------------------------------------------------------------------------
# suite: deleting / adding derivations


def _random_qmpoly(shape: Shape, t: int, rng) -> QmPoly:
    coords = list(shape.coords())
    terms = {}
    for _ in range(rng.randint(1, 3)):
        key = mono_key(
            (*rng.choice(coords), 1) for _ in range(rng.randint(0, 3))
        )
        terms[key] = q_power(rng.randint(-2, 2)) * rng.choice((1, -1, 2))
    return QmPoly(shape, t, terms)


def run_ddalg(max_m: int = 3, max_n: int = 3, samples: int = 500, seed: int = 0) -> Report:
    """The derivation maps are mutually inverse on random elements, and the
    path model satisfies the generator identity
    x_{i,j} = y_{i,j} + y_{i,s} y_{r,s}^{-1} y_{r,j} (northwest case)."""
    report = Report(
        "ddalg", {"max": [max_m, max_n], "samples": samples, "seed": seed}
    )

    def body(report):
        for shape in _shapes(max_m, max_n):
            rng = random.Random(seed * 10000 + shape.m * 100 + shape.n)
            for _ in range(samples):
                t = rng.randint(2, shape.mn)
                rs = shape.threshold_coord(t)
                a = _random_qmpoly(shape, t - 1, rng)
                report.checks += 1
                if dd_backward(dd_forward(a)) != a.with_loc(rs):
                    report.fail(kind="roundtrip-fwd-bwd", t=t, element=repr(a))
                b = _random_qmpoly(shape, t, rng)
                report.checks += 1
                if dd_forward(dd_backward(b)) != b.with_loc(rs):
                    report.fail(kind="roundtrip-bwd-fwd", t=t, element=repr(b))
            # exact generator identities in the torus, and compatibility of
            # the evaluation maps across one level
            for d in enumerate_cauchon_diagrams(shape):
                base = HPrimeHandle(d, 1)
                g = base.graph
                for t in range(2, shape.mn + 1):
                    r, s = rs = shape.threshold_coord(t)
                    in_b = d.is_black(rs)
                    h_hi = base.at(t)
                    h_lo = base.at(t - 1)
                    y_rs_inv = None if in_b else generator(g, t - 1, r, s).inverse()
                    for (i, j) in shape.coords():
                        x = generator(g, t, i, j)
                        y = generator(g, t - 1, i, j)
                        report.checks += 1
                        if in_b or i >= r or j >= s:
                            if x != y:
                                report.fail(
                                    kind="generator-stability",
                                    diagram=d.to_inline(), t=t, coord=[i, j],
                                )
                        else:
                            corr = (
                                generator(g, t - 1, i, s)
                                * y_rs_inv
                                * generator(g, t - 1, r, j)
                            )
                            if x != y + corr:
                                report.fail(
                                    kind="generator-derivation-identity",
                                    diagram=d.to_inline(), t=t, coord=[i, j],
                                )
                        if not in_b:
                            # sigma at level t of the forward image matches
                            # sigma at level t-1
                            report.checks += 1
                            ygen = QmPoly.generator(shape, t - 1, (i, j))
                            lhs = sigma(h_hi, dd_forward(ygen))
                            if lhs != sigma(h_lo, ygen):
                                report.fail(
                                    kind="sigma-derivation-compat",
                                    diagram=d.to_inline(), t=t, coord=[i, j],
                                )

    return _run(report, body)


# ---------------------------------------------------------------------------
# suite: Groebner bases


def run_groebner(
    max_m: int = 3,
    max_n: int = 3,
    samples: int = 200,
    seed: int = 0,
    diagram: Diagram | None = None,
    t: int | None = None,
) -> Report:
    """Randomized Groebner-property check over every diagram at the top
    threshold (or over one explicit diagram)."""
    params = {"samples": samples, "seed": seed}
    if diagram is None:
        params["max"] = [max_m, max_n]
    else:
        if t is None:
            t = diagram.shape.mn
        params["diagram"] = diagram.to_inline()
        params["t"] = t
    report = Report("groebner", params)

    def body(report):
        # handles are built one at a time, so each graph and its evaluation
        # caches are freed once its check is done
        if diagram is not None:
            targets = [HPrimeHandle(diagram, t)]
        else:
            targets = (
                HPrimeHandle(d, shape.mn)
                for shape in _shapes(max_m, max_n)
                for d in enumerate_cauchon_diagrams(shape)
            )
        for h in targets:
            sub = groebner_check(h, samples=samples, seed=seed)
            report.checks += sub.checked_kernel + sub.checked_nonkernel
            for f in sub.failures:
                report.fail(diagram=h.diagram.to_inline(), t=h.t, **f)

    return _run(report, body)


SUITES = {
    "relations": run_relations,
    "lindstrom": run_lindstrom,
    "ddalg": run_ddalg,
    "groebner": run_groebner,
}
