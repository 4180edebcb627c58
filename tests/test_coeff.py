from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qmpaths.coeff import LAM, ONE, Q, Q_INV, ZERO, LaurentScalar, lam_power, q_power
from qmpaths.straighten import QmPoly
from qmpaths.torus import Shape

scalars = st.builds(
    LaurentScalar,
    st.lists(
        st.tuples(
            st.integers(-5, 5),
            st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9)),
        ),
        max_size=5,
    ),
)


def test_add_examples():
    assert Q + (-Q) == ZERO
    assert (Q - Q_INV) + Q_INV == Q
    one_plus_q = ONE + Q
    assert one_plus_q + one_plus_q == LaurentScalar({0: 2, 1: 2})


def test_mul_examples():
    assert q_power(2) * q_power(-2) == ONE
    assert (Q - Q_INV) * Q == q_power(2) - ONE
    assert (-Q) * (-Q) == q_power(2)


def test_q_power_examples():
    assert q_power(0) == ONE
    assert q_power(3) == LaurentScalar({3: 1})
    assert q_power(-1) == Q_INV
    with pytest.raises(TypeError):
        q_power(1.5)


@given(scalars, scalars, scalars)
def test_ring_axioms(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(scalars, scalars)
def test_integral_domain(a, b):
    if not a.is_zero() and not b.is_zero():
        assert not (a * b).is_zero()


@given(scalars)
def test_canonicalization_idempotent(a):
    assert LaurentScalar(dict(a.terms)) == a
    assert all(c != 0 for _p, c in a.terms)
    powers = [p for p, _c in a.terms]
    assert powers == sorted(powers)


@given(scalars)
def test_json_roundtrip(a):
    data = a.to_json()
    assert LaurentScalar.from_json(data) == a
    for p, num, den in data:
        assert den > 0
        assert Fraction(num, den) == Fraction(num, den)  # reduced by Fraction


def test_monomial_inverse():
    m = q_power(3) * LaurentScalar.from_int(Fraction(2, 3))
    assert m * m.inverse() == ONE
    with pytest.raises(ValueError):
        LAM.inverse()


def test_lam_power():
    assert lam_power(0) == ONE
    assert lam_power(2) == LAM * LAM


def test_lam_power_rejects_negative_exponents():
    # a negative index would read a cached power from the end of the list
    lam_power(3)
    for e in (-1, -2):
        with pytest.raises(ValueError) as info:
            lam_power(e)
        assert "\n" not in str(info.value)


def test_float_rejected():
    with pytest.raises(TypeError):
        LaurentScalar({0: 0.5})


@pytest.mark.parametrize("make", [
    lambda c: LaurentScalar({0: c}),
    LaurentScalar.from_int,
    lambda c: QmPoly(Shape(2, 2), 4, {(): c}),
], ids=["scalar", "from-int", "qmpoly"])
def test_bool_rejected(make):
    # bool subclasses int; True would otherwise be stored and printed as is
    for flag in (True, False):
        with pytest.raises(TypeError) as info:
            make(flag)
        assert str(info.value) == "coefficient must be int or Fraction, got bool"


@pytest.mark.parametrize("make,message", [
    (lambda p: LaurentScalar([(p, 1)]), "powers of q must be integers"),
    (q_power, "exponent must be an integer"),
], ids=["scalar", "q-power"])
def test_bool_rejected_as_power(make, message):
    # True would otherwise be kept as the power and written to JSON as true
    for flag in (True, False):
        with pytest.raises(TypeError) as info:
            make(flag)
        assert str(info.value) == message


def test_bool_is_not_a_scalar_operand():
    with pytest.raises(TypeError):
        ONE + True
    with pytest.raises(TypeError):
        Q * False
    assert ONE != True and ZERO != False and ONE == 1
