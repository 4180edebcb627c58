import random

import pytest

from qmpaths.coeff import q_power
from qmpaths.torus import Shape, mono_key
from qmpaths.straighten import QmPoly, grade, term_divides
from qmpaths.cauchon import Diagram
from qmpaths.minors import HPrimeHandle, kernel_member
from qmpaths.groebner import (
    apply_trace,
    groebner_basis,
    groebner_check,
    hprime_minors,
    minimal_groebner,
    minimal_groebner_basis,
    reduce,
)

E = lambda *pairs: mono_key([(i, j, 1) for i, j in pairs])


@pytest.fixture
def staircase_handle(staircase_3x4_diagram):
    return HPrimeHandle(staircase_3x4_diagram, 12)


# ---------------------------------------------------------------------------
# basis contents


def test_hprime_minors_staircase(staircase_handle):
    minors, bare = hprime_minors(staircase_handle)
    assert [str(s) for s in minors] == [
        "[1,2|1,2]",
        "[1,3|1,2]",
        "[2,3|1,2]",
        "[2,3|1,3]",
        "[2,3|2,3]",
        "[1,2,3|1,2,3]",
        "[1,2,3|1,2,4]",
    ]
    assert bare == []


def test_hprime_minors_empty_diagram(shape23):
    h = HPrimeHandle(Diagram.all_white(shape23), 6)
    minors, bare = hprime_minors(h)
    assert minors == [] and bare == []


def test_hprime_minors_all_black(shape22):
    h = HPrimeHandle(Diagram.all_black(shape22), 4)
    minors, bare = hprime_minors(h)
    assert {str(s) for s in minors if s.k == 1} == {
        "[1|1]", "[1|2]", "[2|1]", "[2|2]"
    }
    assert bare == []


def test_bare_generators_below_top_threshold(shape22):
    # at t=1 every black square beyond (1,1) contributes a bare generator
    d = Diagram.of(shape22, [(1, 1), (1, 2)])
    h = HPrimeHandle(d, 1)
    minors, bare = hprime_minors(h)
    assert [str(s) for s in minors] == ["[1|1]"]
    assert bare == [(1, 2)]
    basis = groebner_basis(h)
    assert [str(e) for e in basis] == ["[1|1]", "x[1|2]"]


def test_minimal_groebner_staircase(staircase_handle):
    assert [str(s) for s in minimal_groebner(staircase_handle)] == [
        "[1,2|1,2]",
        "[1,3|1,2]",
        "[2,3|1,2]",
        "[2,3|1,3]",
        "[2,3|2,3]",
    ]


def test_minimal_groebner_trivial_cases(shape22):
    assert minimal_groebner(HPrimeHandle(Diagram.all_white(shape22), 4)) == []
    allb = minimal_groebner(HPrimeHandle(Diagram.all_black(shape22), 4))
    assert {str(s) for s in allb} == {"[1|1]", "[1|2]", "[2|1]", "[2|2]"}
    with pytest.raises(ValueError):
        minimal_groebner(HPrimeHandle(Diagram.all_black(shape22), 3))


def test_basis_elements_are_kernel_members_and_homogeneous(staircase_handle):
    basis = groebner_basis(staircase_handle)
    sh = staircase_handle.shape
    for e in basis:
        assert kernel_member(staircase_handle, e.poly)
        grades = {grade(sh, key) for key in e.poly.terms}
        assert len(grades) == 1


def test_minimality_every_subminor_has_a_system(staircase_handle):
    from qmpaths.cauchon import vdps_exists

    for spec in minimal_groebner(staircase_handle):
        for sub in spec.diagonal_subminors():
            assert vdps_exists(
                staircase_handle.graph, staircase_handle.t, sub.I, sub.J
            )


# ---------------------------------------------------------------------------
# reduction


def test_reduce_basis_elements_to_zero(staircase_handle):
    basis = groebner_basis(staircase_handle)
    for e in basis:
        rem, trace = reduce(e.poly, basis)
        assert rem.is_zero()
        assert apply_trace(basis, trace) == e.poly


def test_reduce_zero(staircase_handle):
    basis = groebner_basis(staircase_handle)
    rem, trace = reduce(QmPoly.zero(staircase_handle.shape, 12), basis)
    assert rem.is_zero() and trace == []


def test_reduce_right_multiples(staircase_handle):
    rng = random.Random(11)
    sh = staircase_handle.shape
    basis = groebner_basis(staircase_handle)
    coords = list(sh.coords())
    for _ in range(25):
        e = rng.choice(basis.elements)
        key = mono_key((*rng.choice(coords), 1) for _ in range(rng.randint(0, 3)))
        a = (e.poly * QmPoly.monomial(sh, 12, key)).scale(q_power(rng.randint(-1, 1)))
        rem, trace = reduce(a, basis)
        assert rem.is_zero()
        assert apply_trace(basis, trace) == a


def test_reduce_soundness_on_nonmembers(staircase_handle):
    rng = random.Random(12)
    sh = staircase_handle.shape
    basis = groebner_basis(staircase_handle)
    coords = list(sh.coords())
    for _ in range(20):
        terms = {
            mono_key((*rng.choice(coords), 1) for _ in range(rng.randint(0, 3))):
            q_power(rng.randint(-1, 1))
            for _k in range(rng.randint(1, 3))
        }
        a = QmPoly(sh, 12, terms)
        rem, trace = reduce(a, basis)
        # a - rem is the right-combination named by the trace
        assert a - rem == apply_trace(basis, trace)
        # remainder's leading term is divisible by no basis leading term
        if not rem.is_zero():
            lt_key, _c = rem.leading_term()
            assert not any(term_divides(e.lt_key, lt_key) for e in basis.elements)
        # membership is decided by the remainder
        assert kernel_member(staircase_handle, a) == rem.is_zero()


def test_reduction_remainder_locality(staircase_handle):
    # one division step by a minor moves the first difference strictly
    # northwest of the minor's maximum coordinate
    sh = staircase_handle.shape
    basis = groebner_basis(staircase_handle)
    rng = random.Random(13)
    coords = list(sh.coords())
    from qmpaths.straighten import matrix_lex_compare

    for e in basis.elements:
        if e.bare:
            continue
        ik, jk = e.spec.max_coord
        for _ in range(10):
            extra = mono_key((*rng.choice(coords), 1) for _ in range(rng.randint(0, 2)))
            key = mono_key(e.lt_key + extra)
            prod = e.poly * QmPoly.monomial(sh, 12, mono_key(extra))
            pk, pc = prod.leading_term()
            assert pk == key
            w = QmPoly.monomial(sh, 12, key, pc) - prod
            for other in w.terms:
                cmp_, witness = matrix_lex_compare(other, key)
                assert cmp_ < 0
                assert witness[0] < ik and witness[1] < jk


def test_reduce_rejects_mismatched_input(staircase_handle, shape22):
    basis = groebner_basis(staircase_handle)
    with pytest.raises(ValueError):
        reduce(QmPoly.one(shape22, 4), basis)
    loc = QmPoly.generator(
        staircase_handle.shape, 12, (3, 4), e=-1, loc=(3, 4)
    )
    with pytest.raises(ValueError):
        reduce(loc, basis)


# ---------------------------------------------------------------------------
# randomized check harness


def test_groebner_check_empty_diagram_vacuous(shape22):
    h = HPrimeHandle(Diagram.all_white(shape22), 4)
    rep = groebner_check(h, samples=20, seed=1)
    assert rep.passed
    assert rep.checked_kernel == 0  # no nonzero kernel samples exist
    assert rep.checked_nonkernel == 20


def test_groebner_check_with_no_samples_does_not_pass(staircase_handle):
    rep = groebner_check(staircase_handle, samples=0, seed=1)
    assert rep.checked_kernel == rep.checked_nonkernel == 0
    assert rep.failures == []
    assert not rep.passed


def test_groebner_check_staircase(staircase_handle):
    rep = groebner_check(staircase_handle, samples=60, seed=7)
    assert rep.passed
    assert rep.checked_kernel > 0
    data = rep.to_json()
    assert data["schema"] == 1 and data["failures"] == []


def test_groebner_check_below_top_threshold():
    # exercises the dd-image sampling route
    d = Diagram.of(Shape(2, 3), [(1, 1)])
    h = HPrimeHandle(d, 5)
    rep = groebner_check(h, samples=40, seed=3)
    assert rep.passed


def test_mutation_deleting_any_minimal_element_fails(staircase_handle):
    minimal = minimal_groebner_basis(staircase_handle)
    assert len(minimal) == 5
    full_ok = groebner_check(staircase_handle, samples=30, seed=5, basis=minimal)
    assert full_ok.passed
    for idx in range(len(minimal)):
        mutated = minimal.drop(idx)
        rep = groebner_check(
            staircase_handle, samples=30, seed=5, basis=mutated
        )
        assert not rep.passed, f"dropping {minimal.elements[idx]} went unnoticed"


def test_dd_image_kernel_elements_reduce(shape23):
    # denominator-cleared forward images of lower-level kernel elements are
    # kernel members and reduce to zero
    from qmpaths.minors import clear_denominator, dd_forward

    d = Diagram.of(shape23, [(1, 1)])
    h = HPrimeHandle(d, 6)
    low = HPrimeHandle(d, 5)
    basis = groebner_basis(h)
    low_basis = groebner_basis(low)
    rng = random.Random(17)
    coords = list(shape23.coords())
    checked = 0
    for e in low_basis.elements:
        key = mono_key((*rng.choice(coords), 1) for _ in range(2))
        b = e.poly * QmPoly.monomial(shape23, 5, key)
        img, _h = clear_denominator(dd_forward(b))
        if img.is_zero():
            continue
        assert kernel_member(h, img)
        rem, _tr = reduce(img, basis)
        assert rem.is_zero()
        checked += 1
    assert checked > 0
