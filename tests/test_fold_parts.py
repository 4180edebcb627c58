"""The straightening kernel on {q-exponent: n} parts.

Checked against its former version, which carried branch coefficients as
{(a, b): n} for n q^a (q - q^{-1})^b (`oracle_fold_lambda_parts`), and
against the parts contract: results are canonical, and no operand's parts
are ever mutated.
"""

import random
from fractions import Fraction

import pytest

from qmpaths.coeff import LAM, ONE, Q, LaurentScalar, q_power
from qmpaths.minors import MinorSpec, _minor_poly, dd_backward, dd_forward, minor_poly
from qmpaths.straighten import (
    QmPoly, _fold, _unit_letters, straighten_word, times_monomial,
)
from qmpaths.torus import EMPTY_KEY, Shape, mono_key

from oracles import (
    oracle_derivation_lambda_parts,
    oracle_fold_lambda_parts,
    oracle_qmpoly_mul_lambda_parts,
    oracle_times_monomial,
    random_coeff,
)

ONE_PLUS_Q2 = ONE + q_power(2)  # lam (1 + q^2) = q^3 - q^-1: the q parts cancel
_POOL = (ONE, -Q, q_power(-2), LAM, ONE_PLUS_Q2, LaurentScalar.from_int(Fraction(2, 3)))
SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3)]


def _coeff(rng):
    return rng.choice(_POOL) if rng.random() < 0.7 else random_coeff(rng)


def _random_key(rng, shape, loc, max_letters=3):
    coords = shape.coords()
    items = [(*rng.choice(coords), rng.randint(1, 2))
             for _ in range(rng.randint(0, max_letters))]
    if loc is not None and rng.random() < 0.5:
        items.append((*loc, rng.choice([-2, -1, 1])))
    return mono_key(items)


def _random_poly(rng, shape, t, loc):
    terms = [(_random_key(rng, shape, loc), _coeff(rng))
             for _ in range(rng.randint(1, 3))]
    return QmPoly(shape, t, terms, loc=loc)


def _assert_canonical(terms):
    for key, parts in terms.items():
        assert parts, key
        assert all(n for n in parts.values()), (key, parts)


@pytest.mark.parametrize("m,n", SHAPES)
def test_fold_products_equal_lambda_parts_oracle(m, n):
    # every threshold, plain and localized at each coordinate from rs on
    rng = random.Random(700 + 10 * m + n)
    shape = Shape(m, n)
    corrected = 0
    for t in range(1, shape.mn + 1):
        rs = shape.threshold_coord(t)
        for loc in [None] + [c for c in shape.coords() if c >= rs]:
            for _ in range(3):
                a = _random_poly(rng, shape, t, loc)
                b = _random_poly(rng, shape, t, loc)
                key = _random_key(rng, shape, loc)
                letters = _unit_letters(key)
                want = oracle_fold_lambda_parts(rs, a._terms, letters)
                got = _fold(rs, a._terms, letters)
                assert got == want, (t, loc, a, key)
                assert times_monomial(a, key) == oracle_times_monomial(a, key)
                assert a * b == oracle_qmpoly_mul_lambda_parts(a, b), (t, loc, a, b)
                corrected += len(want) > len(a)
    assert corrected > 0


@pytest.mark.parametrize("m,n", SHAPES)
def test_derivations_equal_lambda_parts_oracle(m, n):
    rng = random.Random(800 + 10 * m + n)
    shape = Shape(m, n)
    for t in range(2, shape.mn + 1):
        rs = shape.threshold_coord(t)
        for loc in (None, rs):
            for _ in range(3):
                a = _random_poly(rng, shape, t - 1, loc)
                assert dd_forward(a) == oracle_derivation_lambda_parts(a, t, rs, -1)
                b = _random_poly(rng, shape, t, loc)
                assert dd_backward(b) == oracle_derivation_lambda_parts(b, t - 1, rs, 1)


def test_stress_word_equals_lambda_parts_oracle():
    # (x33 x22 x11)^5 at 3x3, t = 9
    word = ((3, 3, 1), (2, 2, 1), (1, 1, 1)) * 5
    got = _fold((3, 3), {EMPTY_KEY: {0: 1}}, word)
    assert got == oracle_fold_lambda_parts((3, 3), {EMPTY_KEY: {0: 1}}, word)
    assert len(got) == 231
    _assert_canonical(got)
    assert len(straighten_word((3, 3), None, word)) == 231


def _snapshot(*polys):
    return [{key: dict(parts) for key, parts in p._terms.items()} for p in polys]


def test_results_are_canonical_and_operands_untouched():
    # coefficients 1 + q^2 on blocks with a correction make lam-products
    # whose middle parts cancel; every result must drop them, and no
    # operand, nor any memoized minor, may change
    shape = Shape(3, 3)
    E = lambda *items: mono_key(items)
    specs = [MinorSpec.of((1, 2), (1, 2)), MinorSpec.of((2, 3), (2, 3)),
             MinorSpec.of((1, 2, 3), (1, 2, 3))]
    for t in (5, 9):
        rs = shape.threshold_coord(t)
        minors = [minor_poly(shape, t, spec) for spec in specs]
        for loc in (None, rs):
            a = QmPoly(shape, t, [
                (E((2, 2, 1)), ONE_PLUS_Q2),
                (E((1, 1, 1), (2, 2, 2)), ONE_PLUS_Q2),
                (E((1, 2, 1), (2, 1, 1)), -Q),
                (E((2, 2, 1), (3, 3, 1)), LaurentScalar.from_int(Fraction(2, 3))),
            ], loc=loc)
            b = QmPoly(shape, t, [
                (E((1, 1, 1)), ONE),
                (E((1, 1, 1), (2, 2, 1)), ONE_PLUS_Q2),
                (E((2, 1, 1)), LAM),
            ], loc=loc)
            lower = QmPoly(shape, t - 1, a.terms, loc=loc)
            operands = [a, b, lower] + [m.with_loc(loc) for m in minors]
            before = _snapshot(*operands)
            results = [a * b, b * a, a * a]
            results += [x * y for x in operands[3:] for y in (a, b, operands[3])]
            for x in operands:
                for key in (E((1, 1, 1)), E((1, 1, 2), (2, 2, 1)), E((1, 2, 1), (2, 1, 1))):
                    results.append(x._like(times_monomial(x, key)))
            results += [dd_forward(lower), dd_backward(a), dd_backward(b)]
            for r in results:
                _assert_canonical(r._terms)
            assert _snapshot(*operands) == before
            for x, snap in zip(operands, before):
                fresh = QmPoly(shape, x.threshold, x.terms, loc=loc)
                assert x._terms == snap == fresh._terms
        for spec, m in zip(specs, minors):
            assert m is minor_poly(shape, t, spec)
            assert m._terms == _minor_poly.__wrapped__(shape, m.threshold, spec)._terms
    # at 3x3, t = 5, localized at (3, 1): x11 passes x12 x21 x31^-2 at q^0,
    # and the correction of x11 x22 x31^-2 x11 lands on the same key, so it
    # merges into parts that came straight from the first term
    key = E((1, 1, 1), (1, 2, 1), (2, 1, 1), (3, 1, -2))
    a = QmPoly(shape, 5, [(E((1, 2, 1), (2, 1, 1), (3, 1, -2)), ONE),
                          (E((1, 1, 1), (2, 2, 1), (3, 1, -2)), ONE)], loc=(3, 1))
    x11 = QmPoly.generator(shape, 5, (1, 1), loc=(3, 1))
    before = _snapshot(a, x11)
    assert times_monomial(a, E((1, 1, 1)))[key] == {0: 1, 3: -1, 1: 1}
    assert (a * x11)._terms[key] == {0: 1, 3: -1, 1: 1}
    assert _snapshot(a, x11) == before
    # (1 + q^2) x22 x11 = (1 + q^2) x11 x22 - (q^3 - q^-1) x12 x21
    assert _fold((3, 3), {EMPTY_KEY: {0: 1, 2: 1}}, ((2, 2, 1), (1, 1, 1))) == {
        E((1, 1, 1), (2, 2, 1)): {0: 1, 2: 1},
        E((1, 2, 1), (2, 1, 1)): {3: -1, -1: 1},
    }
    for word in (((2, 2, 1), (1, 1, 1)) * 3, ((3, 3, 1), (2, 2, 1), (1, 1, 1)) * 3):
        assert all(straighten_word((3, 3), None, word).values())
        _assert_canonical(_fold((3, 3), {EMPTY_KEY: {0: 1, 2: 1}}, word))
