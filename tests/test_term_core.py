"""The sparse-term core shared by torus elements and algebra elements."""

import operator
from fractions import Fraction

import pytest

from qmpaths.coeff import LaurentScalar, q_power
from qmpaths.torus import Shape, TorusElement, mono_key
from qmpaths.straighten import QmPoly
from qmpaths.cauchon import Diagram
from qmpaths.minors import HPrimeHandle, MinorSpec, dd_forward, minor_poly, sigma
from qmpaths.groebner import apply_trace, groebner_basis, reduce

OPS = [operator.add, operator.sub, operator.mul]
OP_IDS = ["add", "sub", "mul"]


def torus_sample(shape):
    return TorusElement(
        shape,
        [((), 1), (mono_key([(1, 1, 2), (2, 2, -1)]), q_power(1) * 3)],
    )


def poly_sample(shape, t=4, loc=None):
    return QmPoly(
        shape,
        t,
        [
            (mono_key([(1, 1, 1), (2, 2, 1)]), q_power(-1) - q_power(1)),
            (mono_key([(1, 2, 1)]), 1),
        ],
        loc=loc,
    )


@pytest.mark.parametrize("op", OPS, ids=OP_IDS)
def test_mixing_the_two_classes_is_a_type_error(shape22, op):
    a, p = torus_sample(shape22), poly_sample(shape22)
    with pytest.raises(TypeError):
        op(a, p)
    with pytest.raises(TypeError):
        op(p, a)


@pytest.mark.parametrize("op", OPS, ids=OP_IDS)
def test_torus_shape_mismatch(shape22, shape23, op):
    with pytest.raises(ValueError, match="shape mismatch"):
        op(torus_sample(shape22), torus_sample(shape23))


@pytest.mark.parametrize("op", OPS, ids=OP_IDS)
@pytest.mark.parametrize(
    "other, message",
    [
        (lambda: poly_sample(Shape(2, 3), t=4), "shape mismatch"),
        (lambda: poly_sample(Shape(2, 2), t=3), "threshold mismatch"),
        (lambda: poly_sample(Shape(2, 2), loc=(2, 2)), "localization mismatch"),
    ],
    ids=["shape", "threshold", "localization"],
)
def test_poly_algebra_mismatch(shape22, op, other, message):
    with pytest.raises(ValueError, match=message):
        op(poly_sample(shape22), other())


def test_equal_elements_hash_equal(shape22):
    a = torus_sample(shape22)
    b = TorusElement.from_json(shape22, a.to_json())
    assert a is not b and a == b and hash(a) == hash(b)
    assert hash(a - a) == hash(TorusElement.zero(shape22))
    p = poly_sample(shape22)
    r = QmPoly.from_json(p.to_json())
    assert p is not r and p == r and hash(p) == hash(r)
    assert len({p, r, p.scale(1)}) == 1
    assert hash(p - p) == hash(QmPoly.zero(shape22, 4))


def test_same_terms_in_other_algebra_differ(shape22):
    p = poly_sample(shape22)
    assert p != poly_sample(shape22, t=3)
    assert p.with_loc((2, 2)) != p
    assert torus_sample(shape22) != torus_sample(Shape(2, 3))


def test_repr_golden(shape22):
    assert repr(torus_sample(shape22)) == "1 + (3*q)*t[1,1]^2t[2,2]^-1"
    p = poly_sample(shape22)
    assert repr(p) == "(q^-1 - q)*x[1,1]x[2,2] + x[1,2]"
    assert repr(-p) == "(-q^-1 + q)*x[1,1]x[2,2] + (-1)*x[1,2]"
    assert repr(p - p) == "0"
    assert repr(TorusElement.zero(shape22)) == "0"


def _rebuilt(x, terms):
    if isinstance(x, QmPoly):
        return QmPoly(x.shape, x.threshold, terms, x.loc)
    return TorusElement(x.shape, terms)


def assert_canonical(x):
    # no empty inner dict and no zero part; the public scalars rebuild x;
    # parts that sum to a whole Fraction act like the integer
    for parts in x._terms.values():
        assert parts and 0 not in parts.values()
    assert _rebuilt(x, x.terms) == x
    half = x.scale(Fraction(1, 2))
    assert half + half == x and hash(half + half) == hash(x)
    assert repr(half + half) == repr(x) and (half + half).to_json() == x.to_json()


def test_parts_stay_canonical_through_every_operation():
    sh = Shape(2, 2)
    handle = HPrimeHandle(Diagram.of(sh, [(1, 1)]), 4)
    basis = groebner_basis(handle)
    a = poly_sample(sh).scale(Fraction(2, 3))
    b = QmPoly(sh, 4, [(mono_key([(2, 1, 1)]), Fraction(-1, 2)), ((), 3)])
    kernel = minor_poly(sh, 4, MinorSpec.of([1, 2], [1, 2])) * b
    rem, _ = reduce(a + b, basis)
    zero, trace = reduce(kernel, basis)
    assert not rem.is_zero() and zero.is_zero()
    low = QmPoly(sh, 3, [(mono_key([(1, 1, 1), (2, 1, 1)]), Fraction(5, 2))])
    t = torus_sample(sh)
    m = TorusElement.monomial(sh, mono_key([(1, 2, 1)]), q_power(2) * Fraction(3, 2))
    results = [
        a + b, a - b, a - a, a.scale(0), a * b, b * a, a.with_loc((2, 2)),
        dd_forward(low), rem, apply_trace(basis, trace), sigma(handle, a + b),
        t + m, t - t, t.scale(0), t * m, m.inverse(), m * m.inverse(),
    ]
    for x in results:
        assert_canonical(x)


def test_whole_fraction_coefficients_equal_the_integers(shape22):
    key = mono_key([(1, 2, 1)])
    # a sum of scalars keeps the Fraction 2/1 as it is
    two = LaurentScalar({0: Fraction(1, 2)}) + LaurentScalar({0: Fraction(3, 2)})
    for make in (lambda c: TorusElement(shape22, [(key, c)]),
                 lambda c: QmPoly(shape22, 4, [(key, c)])):
        for c in (Fraction(2, 1), two):
            assert make(c) == make(2) and hash(make(c)) == hash(make(2))
            assert repr(make(c)) == repr(make(2))
