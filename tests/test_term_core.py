"""The sparse-term core shared by torus elements and algebra elements."""

import operator

import pytest

from qmpaths.coeff import q_power
from qmpaths.torus import Shape, TorusElement, mono_key
from qmpaths.straighten import QmPoly

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
