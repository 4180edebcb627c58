import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from qmpaths.coeff import ONE, q_power
from qmpaths.torus import (
    Shape,
    TorusElement,
    commutation_form,
    key_add,
    key_neg,
    mono_key,
    monomial_inverse,
    monomial_mul,
    pair_commutation,
    t_gen,
)

from oracles import (
    oracle_commutation_form,
    oracle_key_add,
    oracle_monomial_mul,
    oracle_torus_mul,
    random_coeff,
)

coords23 = st.tuples(st.integers(1, 2), st.integers(1, 3))
keys23 = st.builds(
    mono_key,
    st.lists(
        st.tuples(st.integers(1, 2), st.integers(1, 3), st.integers(-2, 2)),
        max_size=4,
    ),
)


def test_shape_validation():
    with pytest.raises(ValueError):
        Shape(1, 3)
    assert Shape(1, 3, relaxed=True).mn == 3
    with pytest.raises(ValueError):
        Shape(0, 2, relaxed=True)
    # relaxed flag does not affect identity
    assert Shape(2, 2, relaxed=True) == Shape(2, 2)


@pytest.mark.parametrize("make, message", [
    (lambda: Shape(True, 2, relaxed=True), "shape dimensions must be integers, not bool"),
    (lambda: Shape(2, False), "shape dimensions must be integers, not bool"),
    (lambda: Shape(2, 2).threshold_coord(True), "threshold must be an integer, not bool"),
    (lambda: Shape(2, 2).check_coord((True, 1)),
     "coordinate (True, 1): entries must be integers, not bool"),
    (lambda: Shape(2, 2).contains((1, True)),
     "coordinate (1, True): entries must be integers, not bool"),
    (lambda: t_gen(Shape(2, 2), True, 1),
     "coordinate (True, 1): entries must be integers, not bool"),
])
def test_bool_is_not_a_dimension_coordinate_or_threshold(make, message):
    # bool subclasses int and passes the range checks as 1 or 0
    with pytest.raises(TypeError) as info:
        make()
    assert str(info.value) == message


def test_coord_order_examples():
    sh = Shape(2, 3)
    assert sh.threshold_coord(5) == (2, 2)
    assert sh.coord_position((2, 2)) == 5


def test_pair_commutation_examples():
    assert pair_commutation((1, 1), (1, 2)) == 1
    assert pair_commutation((1, 2), (2, 1)) == 0
    assert pair_commutation((2, 1), (1, 1)) == -1
    with pytest.raises(ValueError):
        pair_commutation((1, 1), (1, 1))


@given(coords23, coords23)
def test_pair_commutation_antisymmetry(a, b):
    if a != b:
        assert pair_commutation(a, b) == -pair_commutation(b, a)


def test_monomial_mul_identity():
    k = mono_key([(1, 2, 3), (2, 1, -1)])
    assert monomial_mul((), k) == (0, k)
    assert monomial_mul(k, ()) == (0, k)


def test_monomial_mul_inverse_pair():
    # t_{2,2}^{-1} t_{2,1} = q t_{2,1} t_{2,2}^{-1}: orderings differ by q^1
    inv22 = mono_key([(2, 2, -1)])
    g21 = mono_key([(2, 1, 1)])
    c_left, k_left = monomial_mul(inv22, g21)
    c_right, k_right = monomial_mul(g21, inv22)
    assert k_left == k_right
    assert (c_left, k_left) == oracle_monomial_mul(inv22, g21)
    assert (c_right, k_right) == oracle_monomial_mul(g21, inv22)
    assert c_left - c_right == 1


def test_monomial_mul_unit_table_2x2():
    # against stepwise swapping for every pair of unit exponent matrices
    units = [mono_key([(i, j, e)]) for i in (1, 2) for j in (1, 2) for e in (1, -1)]
    for a in units:
        for b in units:
            assert monomial_mul(a, b) == oracle_monomial_mul(a, b)


@given(keys23, keys23)
def test_monomial_mul_matches_transposition_oracle(a, b):
    assert monomial_mul(a, b) == oracle_monomial_mul(a, b)


@given(keys23, keys23, keys23)
@settings(max_examples=200)
def test_monomial_mul_associative(a, b, c):
    e1, k1 = monomial_mul(a, b)
    e2, k2 = monomial_mul(k1, c)
    f1, l1 = monomial_mul(b, c)
    f2, l2 = monomial_mul(a, l1)
    assert k2 == l2
    assert e1 + e2 == f1 + f2


@given(keys23)
def test_monomial_inverse(a):
    e, k = monomial_inverse(a)
    c, s = monomial_mul(a, k)
    assert s == ()
    assert c + e == 0


def test_torus_add_mul_examples(shape23):
    sh = shape23
    x = t_gen(sh, 1, 2) * t_gen(sh, 2, 2, -1) * t_gen(sh, 2, 1)
    assert x * TorusElement.one(sh) == x
    assert x + TorusElement.zero(sh) == x
    assert (x - x).is_zero()
    # (t12 t22^-1 t21) * t22 = q t12 t21
    y = x * t_gen(sh, 2, 2)
    assert y == TorusElement.monomial(
        sh, mono_key([(1, 2, 1), (2, 1, 1)]), q_power(1)
    )


def test_torus_shape_mismatch(shape22, shape23):
    with pytest.raises(ValueError):
        t_gen(shape22, 1, 1) * t_gen(shape23, 1, 1)
    with pytest.raises(ValueError):
        t_gen(shape22, 1, 1) + t_gen(shape23, 1, 1)


def test_linear_independence_by_construction(shape22):
    # distinct exponent keys are distinct basis keys: a sum over distinct
    # keys is zero only when every coefficient is zero
    sh = shape22
    keys = [mono_key([(1, 1, 1)]), mono_key([(1, 1, 1), (2, 2, -1)]), ()]
    elt = TorusElement(sh, {k: q_power(i) for i, k in enumerate(keys)})
    assert len(elt.terms) == 3
    cancel = elt - elt
    assert cancel.is_zero()


def test_monomial_element_inverse(shape22):
    sh = shape22
    m = TorusElement.monomial(sh, mono_key([(1, 1, 2), (2, 1, -1)]), q_power(3))
    assert m * m.inverse() == TorusElement.one(sh)
    assert m.inverse() * m == TorusElement.one(sh)
    with pytest.raises(ValueError):
        (m + TorusElement.one(sh)).inverse()


@given(keys23)
def test_json_roundtrip(key):
    sh = Shape(2, 3)
    elt = TorusElement.monomial(sh, key, q_power(2) - ONE)
    assert TorusElement.from_json(sh, elt.to_json()) == elt


def _random_key(rng, shape):
    return mono_key(
        (rng.randint(1, shape.m), rng.randint(1, shape.n), rng.randint(-2, 2))
        for _ in range(rng.randint(0, 3))
    )


def test_torus_mul_matches_the_scalar_per_key_oracle():
    rng = random.Random(11)
    sh = Shape(2, 3)
    for _ in range(300):
        a, b = (
            TorusElement(sh, [(_random_key(rng, sh), random_coeff(rng))
                              for _ in range(rng.randint(0, 4))])
            for _ in range(2)
        )
        assert a * b == oracle_torus_mul(a, b)
        # a monomial with a Fraction coefficient and its inverse
        c = Fraction(rng.choice([-3, 2, 5]), rng.randint(1, 4))
        m = TorusElement.monomial(sh, _random_key(rng, sh), q_power(rng.randint(-2, 2)) * c)
        for x, y in ((m, m.inverse()), (m.inverse(), m), (m.inverse(), a)):
            assert x * y == oracle_torus_mul(x, y)
        assert m * m.inverse() == TorusElement.one(sh)


def test_key_add_merges_like_the_oracle():
    # negative exponents, sums that cancel in part or in full, empty and
    # disjoint operands; every entry at a coordinate only one operand has
    # is that operand's own triple, and an empty operand returns the other
    rng = random.Random(16)
    sh = Shape(3, 3)
    coords = sh.coords()
    kinds = {"random": 0, "cancel": 0, "disjoint": 0, "empty": 0}
    for _ in range(3000):
        a = _random_key(rng, sh)
        kind = rng.choice(list(kinds))
        if kind == "random":
            b = _random_key(rng, sh)
        elif kind == "cancel":
            part = key_neg(tuple(e for e in a if rng.random() < 0.7))
            b = oracle_key_add(part, _random_key(rng, sh)) if rng.random() < 0.5 else part
        elif kind == "disjoint":
            used = {(i, j) for i, j, _e in a}
            free = [c for c in coords if c not in used]
            b = mono_key((i, j, rng.choice((-1, 2))) for i, j in rng.sample(free, 3))
        else:
            b = ()
        if rng.random() < 0.5:
            a, b = b, a
        kinds[kind] += 1
        out = key_add(a, b)
        assert out == oracle_key_add(a, b)
        if not a or not b:
            assert out is (b if not a else a)
        in_a = {e[:2]: e for e in a}
        in_b = {e[:2]: e for e in b}
        for entry in out:
            c = entry[:2]
            if c not in in_b:
                assert entry is in_a[c]
            elif c not in in_a:
                assert entry is in_b[c]
    assert min(kinds.values()) > 500
    assert key_add((), ()) == ()
    x = mono_key([(1, 1, 2), (2, 3, -1)])
    assert key_add(x, key_neg(x)) == ()


def test_commutation_form_merges_like_the_pair_oracle():
    # keys of up to 12 entries with negative exponents on shapes up to 5x5,
    # a == b (the inverse's form), shared rows and columns, and empty keys
    rng = random.Random(17)
    same = nonzero = 0
    for _ in range(3000):
        sh = Shape(rng.randint(1, 5), rng.randint(1, 5), relaxed=True)
        a = mono_key(
            (rng.randint(1, sh.m), rng.randint(1, sh.n), rng.choice((-3, -1, 1, 2)))
            for _ in range(rng.randint(0, 12))
        )
        if rng.random() < 0.2:
            b = a
            same += 1
        else:
            b = mono_key(
                (rng.randint(1, sh.m), rng.randint(1, sh.n), rng.choice((-2, -1, 1, 3)))
                for _ in range(rng.randint(0, 12))
            )
        got = commutation_form(a, b)
        assert got == oracle_commutation_form(a, b)
        nonzero += got != 0
        assert monomial_inverse(a)[0] == oracle_commutation_form(a, a)
    assert same > 400 and nonzero > 1500
    x = mono_key([(1, 1, 2), (1, 3, -1), (2, 1, 1)])
    assert commutation_form(x, ()) == commutation_form((), x) == 0
