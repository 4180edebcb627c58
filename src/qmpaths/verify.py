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

from .coeff import q_power
from .torus import Shape, TorusElement, mono_key
from .straighten import QmPoly
from .cauchon import (
    Diagram,
    build_graph,
    enumerate_cauchon_diagrams,
    enumerate_vdps,
    family_grid,
    system_turn_key,
)
from .minors import (
    HPrimeHandle,
    MinorSpec,
    _monomial_product,
    dd_backward,
    dd_forward,
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
    t0 = time.perf_counter()
    try:
        body(report)
    except _TooManyFailures:
        pass
    report.elapsed = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# suite: generator relations


def _q_shift(counts: dict, dq: int) -> dict:
    """q^dq times a sum {(N, c): n} of n q^c t^N."""
    return {(key, c + dq): n for (key, c), n in counts.items()}


#: the relation names per 2x2 submatrix, in check order, when the threshold
#: coordinate lies before its corner d (ad = da) and when it does not
_COMMUTING = ("ab=qba", "cd=qdc", "ac=qca", "bd=qdb", "bc=cb", "ad=da")
_LAMBDA = _COMMUTING[:5] + ("ad=da+lam*bc",)


def _fixed_relations(mul, a, b, c, dd) -> tuple:
    """Whether ab = qba, cd = qdc, ac = qca, bd = qdb and bc = cb hold for
    the families a, b, c, dd of a 2x2 submatrix."""
    return (
        mul(a, b) == _q_shift(mul(b, a), 1),
        mul(c, dd) == _q_shift(mul(dd, c), 1),
        mul(a, c) == _q_shift(mul(c, a), 1),
        mul(b, dd) == _q_shift(mul(dd, b), 1),
        mul(b, c) == mul(c, b),
    )


def _ad_relation(mul, a, b, c, dd, commuting: bool) -> bool:
    """Whether ad = da holds (commuting) or ad = da + (q - q^{-1}) bc."""
    if commuting:
        return mul(a, dd) == mul(dd, a)
    # da + (q - q^{-1}) bc, zero counts dropped; products of path sums
    # have none
    rhs = dict(mul(dd, a))
    for (key, e), n in mul(b, c).items():
        rhs[key, e + 1] = rhs.get((key, e + 1), 0) + n
        rhs[key, e - 1] = rhs.get((key, e - 1), 0) - n
    rhs = {x: n for x, n in rhs.items() if n}
    return mul(a, dd) == rhs


def run_relations(max_m: int = 3, max_n: int = 3) -> Report:
    """Path-built generator matrices satisfy the defining relations of the
    threshold-t algebra, for every diagram and threshold in range.

    The generators are compared as their families' integer path counts
    {(N, c): n}.  The relations depend on the threshold only through the
    family grid and, for ad, through whether the threshold coordinate lies
    before the submatrix's corner d.  So each relation is decided once per
    distinct grid of a diagram (`family_grid`'s key), the ad relation once
    per branch a threshold asks for, and every threshold counts and reports
    from that table.  Each ordered product of two families is formed once
    per diagram.
    """
    report = Report("relations", {"max": [max_m, max_n]})

    def body(report):
        for shape in _shapes(max_m, max_n):
            rows, cols = range(1, shape.m + 1), range(1, shape.n + 1)
            subs = [
                (i, j, k, l)
                for i, k in combinations(rows, 2)
                for j, l in combinations(cols, 2)
            ]
            for d in enumerate_cauchon_diagrams(shape):
                g = build_graph(d)
                products: dict = {}

                def mul(u, v):
                    p = products.get((u.key, v.key))
                    if p is None:
                        p = products[u.key, v.key] = _monomial_product(
                            u.weights, v.weights
                        )
                    return p

                tables: dict = {}  # grid key -> {submatrix (, branch): held}
                for t in range(1, shape.mn + 1):
                    rs = shape.threshold_coord(t)
                    X, grid = family_grid(g, t)
                    table = tables.setdefault(grid, {})
                    for sub in subs:
                        i, j, k, l = sub
                        commuting = (k, l) > rs
                        fixed = table.get(sub)
                        ad = table.get((sub, commuting))
                        if fixed is None or ad is None:
                            quad = (X[i - 1][j - 1], X[i - 1][l - 1],
                                    X[k - 1][j - 1], X[k - 1][l - 1])
                            if fixed is None:
                                fixed = table[sub] = _fixed_relations(mul, *quad)
                            if ad is None:
                                ad = table[sub, commuting] = _ad_relation(
                                    mul, *quad, commuting
                                )
                        if ad and all(fixed):
                            report.checks += 6
                            continue
                        names = _COMMUTING if commuting else _LAMBDA
                        for name, ok in zip(names, (*fixed, ad)):
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


def _lindstrom_holds(
    h: HPrimeHandle, spec: MinorSpec, poly: QmPoly, distinct: dict
) -> bool:
    """Whether sigma(poly), poly the minor `spec`, equals the weight sum of
    its vertex-disjoint path systems, vanishes exactly when there are none,
    and whether distinct systems have distinct exponent matrices.  The last
    is kept in `distinct` per tuple of the systems' families."""
    via_sigma = sigma(h, poly)
    systems = enumerate_vdps(h.graph, h.t, spec.I, spec.J)
    via_paths = TorusElement._from_counts(h.shape, systems.weights)
    families = tuple(f.key for f in systems.families)
    if families not in distinct:
        keys = [system_turn_key(h.graph, s) for s in systems]
        distinct[families] = len(set(keys)) == len(keys)
    return (
        via_sigma == via_paths
        and via_paths.is_zero() == (not systems)
        and distinct[families]
    )


def run_lindstrom(max_m: int = 3, max_n: int = 3) -> Report:
    """For every minor with maximum coordinate at most the threshold
    coordinate: the evaluation homomorphism agrees with the disjoint
    path-system weight sum, vanishing exactly when the family is empty, and
    distinct systems have distinct exponent matrices.

    Both sides depend on the threshold only through the families, so each
    minor is decided once per distinct family grid of a diagram
    (`family_grid`'s key) and every threshold with that grid counts and
    reports from the decision.  The minors' polynomials are looked up once
    per shape and threshold.
    """
    report = Report("lindstrom", {"max": [max_m, max_n]})

    def body(report):
        for shape in _shapes(max_m, max_n):
            specs = [
                MinorSpec(I, J)
                for k in range(1, min(shape.m, shape.n) + 1)
                for I in combinations(range(1, shape.m + 1), k)
                for J in combinations(range(1, shape.n + 1), k)
            ]
            # per threshold, the minors it checks with their polynomials
            levels = [
                (t, [
                    (n, spec, minor_poly(shape, t, spec))
                    for n, spec in enumerate(specs)
                    if spec.max_coord <= shape.threshold_coord(t)
                ])
                for t in range(1, shape.mn + 1)
            ]
            for d in enumerate_cauchon_diagrams(shape):
                base = HPrimeHandle(d, 1)
                distinct: dict = {}
                decided: dict = {}  # (grid key, minor index) -> held
                for t, checked in levels:
                    h = base.at(t)
                    grid = family_grid(h.graph, t)[1]
                    for n, spec, poly in checked:
                        report.checks += 1
                        ok = decided.get((grid, n))
                        if ok is None:
                            ok = decided[grid, n] = _lindstrom_holds(
                                h, spec, poly, distinct
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
    x_{i,j} = y_{i,j} + y_{i,s} y_{r,s}^{-1} y_{r,j} (northwest case).

    The level t-1 generators and their forward images do not depend on the
    diagram, so each is built once per (shape, t, coordinate); their
    evaluations are compared per diagram.
    """
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
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
            images: dict = {}  # (t, coord) -> (y_coord at t-1, its forward image)
            for d in enumerate_cauchon_diagrams(shape):
                base = HPrimeHandle(d, 1)
                g = base.graph
                for t in range(2, shape.mn + 1):
                    r, s = rs = shape.threshold_coord(t)
                    in_b = d.is_black(rs)
                    h_hi = base.at(t)
                    h_lo = base.at(t - 1)
                    hi, lo = family_grid(g, t)[0], family_grid(g, t - 1)[0]
                    y_rs_inv = None if in_b else lo[r - 1][s - 1].generator.inverse()
                    for (i, j) in shape.coords():
                        x = hi[i - 1][j - 1].generator
                        y = lo[i - 1][j - 1].generator
                        report.checks += 1
                        if in_b or i >= r or j >= s:
                            if x != y:
                                report.fail(
                                    kind="generator-stability",
                                    diagram=d.to_inline(), t=t, coord=[i, j],
                                )
                        else:
                            corr = (
                                lo[i - 1][s - 1].generator
                                * y_rs_inv
                                * lo[r - 1][j - 1].generator
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
                            pair = images.get((t, (i, j)))
                            if pair is None:
                                ygen = QmPoly.generator(shape, t - 1, (i, j))
                                pair = images[t, (i, j)] = (ygen, dd_forward(ygen))
                            ygen, image = pair
                            if sigma(h_hi, image) != sigma(h_lo, ygen):
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
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
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
