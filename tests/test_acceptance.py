"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line (visible
under `pytest -s`).  Everything is exact: no tolerances anywhere.
"""

import random
import time

from qmpaths.coeff import q_power
from qmpaths.torus import Shape, TorusElement, mono_key, monomial_mul, t_gen
from qmpaths.straighten import QmPoly, straighten_word
from qmpaths.cauchon import (
    Diagram,
    build_graph,
    col_vertex,
    enumerate_cauchon_diagrams,
    enumerate_vdps,
    generator_matrix,
    path_weight,
    row_vertex,
    vdps_infimum,
    vdps_supremum,
    white_vertex,
)
from qmpaths.minors import HPrimeHandle, MinorSpec, lindstrom_eval, minor_poly, sigma
from qmpaths.groebner import groebner_check, hprime_minors, minimal_groebner, minimal_groebner_basis
from qmpaths.verify import run_ddalg, run_groebner, run_lindstrom, run_relations

from oracles import (
    oracle_all_cauchon_sets,
    oracle_monomial_mul,
    oracle_straighten_word,
    random_descent_picker,
)

R, C, W = row_vertex, col_vertex, white_vertex


def report(tag, ok, t0, detail=""):
    status = "PASS" if ok else "FAIL"
    extra = f" [{detail}]" if detail else ""
    print(f"[ACCEPTANCE] {tag}: {status} ({time.time() - t0:.2f}s){extra}")
    assert ok, f"acceptance criterion {tag} failed{extra}"


# ---------------------------------------------------------------------------
# 1. worked-example fidelity


def test_c1a_generator_matrices_2x3_corner():
    t0 = time.time()
    sh = Shape(2, 3)
    g = build_graph(Diagram.of(sh, [(1, 1)]))
    T = lambda i, j, e=1: t_gen(sh, i, j, e)
    base = (
        (TorusElement.zero(sh), T(1, 2), T(1, 3)),
        (T(2, 1), T(2, 2), T(2, 3)),
    )
    ok = all(generator_matrix(g, t) == base for t in (1, 2, 3, 4))
    ok = ok and generator_matrix(g, 5) == (
        (T(1, 2) * T(2, 2, -1) * T(2, 1), T(1, 2), T(1, 3)),
        (T(2, 1), T(2, 2), T(2, 3)),
    )
    ok = ok and generator_matrix(g, 6) == (
        (
            T(1, 2) * T(2, 2, -1) * T(2, 1) + T(1, 3) * T(2, 3, -1) * T(2, 1),
            T(1, 2) + T(1, 3) * T(2, 3, -1) * T(2, 2),
            T(1, 3),
        ),
        (T(2, 1), T(2, 2), T(2, 3)),
    )
    report("1a generator matrices (2x3 corner diagram, t=1..6)", ok, t0)


def test_c1b_path_weight():
    t0 = time.time()
    sh = Shape(3, 3)
    g = build_graph(Diagram.of(sh, [(1, 1), (1, 3), (2, 3)]))
    p = (R(1), W(1, 2), W(2, 2), W(2, 1), W(3, 1), C(1))
    ok = path_weight(g, p) == t_gen(sh, 1, 2) * t_gen(sh, 2, 2, -1) * t_gen(sh, 2, 1)
    report("1b path weight (3x3 figure)", ok, t0)


def test_c1c_path_system_figure():
    t0 = time.time()
    sh = Shape(4, 4)
    d = Diagram.of(sh, [(1, 1), (1, 4), (2, 1), (2, 4), (3, 1), (3, 2)])
    g = build_graph(d)
    h = HPrimeHandle(d, 16)
    ok = enumerate_vdps(g, 16, (1, 2), (1, 2)) == ()
    # the 2x2 minor vanishes under the evaluation map and as the literal
    # two-term expansion in the torus
    X = generator_matrix(g, 16)
    ok = ok and sigma(h, minor_poly(sh, 16, MinorSpec.of([1, 2], [1, 2]))).is_zero()
    ok = ok and (X[0][0] * X[1][1] - (X[0][1] * X[1][0]).scale(q_power(1))).is_zero()
    want = (
        t_gen(sh, 1, 2) * t_gen(sh, 4, 2, -1) * t_gen(sh, 4, 1)
    ) * t_gen(sh, 2, 3) * t_gen(sh, 3, 4)
    ok = ok and lindstrom_eval(h, MinorSpec.of([1, 2, 3], [1, 3, 4])) == want
    ok = ok and sigma(h, minor_poly(sh, 16, MinorSpec.of([1, 2, 3], [1, 3, 4]))) == want
    ok = ok and vdps_supremum(g, 16, (1, 3), (1, 3)) == (
        (R(1), W(1, 3), W(1, 2), W(2, 2), W(4, 2), W(4, 1), C(1)),
        (R(3), W(3, 4), W(3, 3), W(4, 3), C(3)),
    )
    ok = ok and vdps_infimum(g, 16, (1, 3), (1, 3)) == (
        (R(1), W(1, 3), W(2, 3), W(2, 2), W(4, 2), W(4, 1), C(1)),
        (R(3), W(3, 4), W(4, 4), W(4, 3), C(3)),
    )
    report("1c path systems, minor evaluation, sup/inf (4x4 figure)", ok, t0)


def test_c1d_minor_basis_3x4():
    t0 = time.time()
    d = Diagram.of(Shape(3, 4), [(1, 1), (2, 1), (2, 2)])
    h = HPrimeHandle(d, 12)
    minors, bare = hprime_minors(h)
    ok = {str(s) for s in minors} == {
        "[1,2,3|1,2,3]",
        "[1,2,3|1,2,4]",
        "[1,2|1,2]",
        "[1,3|1,2]",
        "[2,3|1,2]",
        "[2,3|1,3]",
        "[2,3|2,3]",
    } and bare == []
    ok = ok and {str(s) for s in minimal_groebner(h)} == {
        "[1,2|1,2]",
        "[1,3|1,2]",
        "[2,3|1,2]",
        "[2,3|1,3]",
        "[2,3|2,3]",
    }
    report("1d kernel minors and minimal basis (3x4 example)", ok, t0)


# ---------------------------------------------------------------------------
# 2-5. exhaustive suites


def test_c2_relation_suite():
    t0 = time.time()
    rep = run_relations(3, 3)
    report("2 generator relations, all diagrams <= 3x3, all t", rep.passed, t0,
           f"{rep.checks} checks" + ("" if rep.passed else f"; {rep.failures[:1]}"))


def test_c3_lindstrom_suite():
    t0 = time.time()
    rep = run_lindstrom(3, 3)
    report("3 path evaluation of minors, all diagrams <= 3x3, all t", rep.passed,
           t0, f"{rep.checks} checks" + ("" if rep.passed else f"; {rep.failures[:1]}"))


def test_c4_derivations_suite():
    t0 = time.time()
    rep = run_ddalg(3, 3, samples=500, seed=0)
    report("4 derivation maps: inverses and torus identities", rep.passed, t0,
           f"{rep.checks} checks" + ("" if rep.passed else f"; {rep.failures[:1]}"))


def test_c5_groebner_suite():
    t0 = time.time()
    rep = run_groebner(3, 3, samples=200, seed=0)
    d34 = Diagram.of(Shape(3, 4), [(1, 1), (2, 1), (2, 2)])
    rep34 = run_groebner(samples=200, seed=0, diagram=d34)
    ok = rep.passed and rep34.passed
    # mutation: deleting any single minimal-basis element must surface a
    # failure (the dropped minor itself stops reducing)
    h34 = HPrimeHandle(d34, 12)
    minimal = minimal_groebner_basis(h34)
    mutation_ok = True
    for idx in range(len(minimal)):
        mutated = minimal.drop(idx)
        sub = groebner_check(h34, samples=40, seed=0, basis=mutated)
        mutation_ok = mutation_ok and not sub.passed
    ok = ok and mutation_ok
    report(
        "5 Groebner property, all diagrams <= 3x3 (t=mn) + 3x4 example + mutation",
        ok, t0,
        f"{rep.checks + rep34.checks} checks, mutation={'ok' if mutation_ok else 'MISSED'}",
    )


# ---------------------------------------------------------------------------
# 6. algebraic bedrock


def test_c6_bedrock():
    t0 = time.time()
    sh = Shape(2, 3)
    coords = list(sh.coords())
    ok = True

    # torus monomial multiplication vs the adjacent-transposition oracle:
    # all pairs of canonical nonnegative words of total degree <= 4
    monomials = []

    def gen_monomials(idx, left, current):
        if idx == len(coords):
            monomials.append(mono_key(current))
            return
        for e in range(left + 1):
            gen_monomials(idx + 1, left - e, current + [(*coords[idx], e)])

    gen_monomials(0, 4, [])
    for a in monomials:
        for b in monomials:
            if monomial_mul(a, b) != oracle_monomial_mul(a, b):
                ok = False
                break
        if not ok:
            break
    pair_count = len(monomials) ** 2

    # ... and all pairs of signed words of length <= 2 (inverse letters)
    letters = [(i, j, e) for (i, j) in coords for e in (1, -1)]
    words = [()] + [(l,) for l in letters] + [
        (l1, l2) for l1 in letters for l2 in letters
    ]
    for u in words:
        for v in words:
            got = monomial_mul(mono_key(u), mono_key(v))
            if got != oracle_monomial_mul(mono_key(u), mono_key(v)):
                ok = False
                break
        if not ok:
            break

    # associativity of straightening on 1000 random monomial triples/shape
    rng = random.Random(60)
    for m, n in [(2, 2), (2, 3)]:
        shape = Shape(m, n)
        cs = list(shape.coords())
        for _ in range(1000):
            t = rng.randint(1, shape.mn)
            mk = lambda: mono_key(
                (*rng.choice(cs), 1) for _ in range(rng.randint(0, 3))
            )
            a = QmPoly.monomial(shape, t, mk())
            b = QmPoly.monomial(shape, t, mk())
            c = QmPoly.monomial(shape, t, mk())
            if (a * b) * c != a * (b * c):
                ok = False
                break

    # the rewrite-tree oracle under randomized strategies agrees with the
    # key-scan straightening
    shape = Shape(3, 3)
    cs = list(shape.coords())
    for trial in range(40):
        t = rng.randint(1, 9)
        rs = shape.threshold_coord(t)
        word = tuple((*rng.choice(cs), 1) for _ in range(rng.randint(2, 6)))
        ref = straighten_word(rs, None, word)
        for _s in range(10):
            pick = random_descent_picker(rng)
            if oracle_straighten_word(rs, None, word, pick=pick) != ref:
                ok = False
                break

    report("6 bedrock: transposition oracle, associativity, confluence", ok, t0,
           f"{pair_count} word pairs")


# ---------------------------------------------------------------------------
# 7. enumeration


def test_c7_enumeration():
    t0 = time.time()
    ok = len(list(enumerate_cauchon_diagrams(Shape(2, 2)))) == 14
    got23 = [d.black for d in enumerate_cauchon_diagrams(Shape(2, 3))]
    oracle23 = oracle_all_cauchon_sets(2, 3)
    ok = ok and len(got23) == len(oracle23) and set(got23) == set(oracle23)
    report("7 diagram enumeration counts (2x2 = 14, 2x3 = brute force)", ok, t0,
           f"2x3 count {len(got23)}")
