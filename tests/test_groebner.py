import random

import pytest

from oracles import (
    matrix_lex_compare,
    oracle_apply_trace,
    oracle_diagonal_subminors,
    oracle_hprime_minors,
    oracle_minimal_groebner,
    oracle_reduce,
    random_coeff,
)
from qmpaths import groebner
from qmpaths.coeff import q_power
from qmpaths.torus import Shape, TorusElement, mono_key
from qmpaths.straighten import QmPoly, grade, lex_key, term_divides
from qmpaths.cauchon import Diagram, enumerate_cauchon_diagrams
from qmpaths.minors import HPrimeHandle, kernel_member, sigma
from qmpaths.groebner import (
    GroebnerBasis,
    apply_trace,
    groebner_basis,
    groebner_check,
    hprime_minors,
    minimal_groebner,
    minimal_groebner_basis,
    reduce,
)

# every Cauchon diagram of these shapes, at every threshold, in the oracle tests
ORACLE_SHAPES = [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2)]

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


@pytest.mark.parametrize("m,n", ORACLE_SHAPES)
def test_hprime_minors_sweep_matches_per_minor_search(m, n):
    shape = Shape(m, n)
    for d in enumerate_cauchon_diagrams(shape):
        h = HPrimeHandle(d, shape.mn)
        for t in range(1, shape.mn + 1):
            ht = h.at(t)
            assert hprime_minors(ht) == oracle_hprime_minors(ht), (d.to_inline(), t)


@pytest.mark.parametrize(
    "m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (2, 4), (4, 2), (3, 4), (4, 3)]
)
def test_minimal_groebner_equals_subset_filter_oracle(m, n):
    # the searched minors of the kernel sweep are the kernel minors with no
    # proper diagonal subminor in the kernel
    shape = Shape(m, n)
    for d in enumerate_cauchon_diagrams(shape):
        h = HPrimeHandle(d, shape.mn)
        assert minimal_groebner(h) == oracle_minimal_groebner(h), d.to_inline()


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
        for sub in oracle_diagonal_subminors(spec):
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


def test_lex_key_orders_like_matrix_lex_compare():
    # integer keys of either sign on the 3x3 grid; half the pairs are a key
    # and a copy of it changed at one coordinate, so that they first differ
    # past a shared prefix, at the localized sign change, or at an end
    rng = random.Random(23)
    coords = list(Shape(3, 3).coords())

    def key():
        return mono_key(
            (*rng.choice(coords), rng.choice((-2, -1, 1, 1, 2)))
            for _ in range(rng.randint(0, 5))
        )

    negative = 0
    for n in range(4000):
        a = key()
        if n % 2:
            b = mono_key(a + ((*rng.choice(coords), rng.choice((-2, -1, 1, 2))),))
        else:
            b = key()
        negative += any(e < 0 for _i, _j, e in a + b)
        lex = (lex_key(a) > lex_key(b)) - (lex_key(a) < lex_key(b))
        assert lex == matrix_lex_compare(a, b)[0], (a, b)
    assert negative > 2000


def _oracle_cases(rng, shape, per_shape):
    """Seeded (basis, element) pairs on Cauchon diagrams of the shape at
    random thresholds: right-combinations of basis elements (kernel
    members), random polynomials (mostly not), both with Fraction
    coefficients, each reduced by the basis and by the basis less one
    element."""
    diagrams = list(enumerate_cauchon_diagrams(shape))
    coords = list(shape.coords())

    def monomial():
        return mono_key((*rng.choice(coords), 1) for _ in range(rng.randint(0, 3)))

    for d in rng.sample(diagrams, min(per_shape, len(diagrams))):
        h = HPrimeHandle(d, rng.randint(1, shape.mn))
        basis = groebner_basis(h, check=False)
        bases = [basis]
        if len(basis) > 1:
            bases.append(basis.drop(rng.randrange(len(basis))))
        elements = [QmPoly(shape, h.t, {monomial(): random_coeff(rng)
                                        for _ in range(rng.randint(1, 4))})]
        if basis.elements:
            total = QmPoly.zero(shape, h.t)
            for _ in range(rng.randint(1, 3)):
                e = rng.choice(basis.elements)
                right = QmPoly.monomial(shape, h.t, monomial(), random_coeff(rng))
                total = total + e.poly * right
            elements.append(total)
        for b in bases:
            for a in elements:
                yield b, a


@pytest.mark.parametrize("m,n", ORACLE_SHAPES)
def test_reduce_and_apply_trace_match_the_qmpoly_route(m, n):
    rng = random.Random(100 * m + n)
    seen = 0
    for basis, a in _oracle_cases(rng, Shape(m, n), per_shape=24):
        rem, trace = reduce(a, basis)
        want_rem, want_trace = oracle_reduce(a, basis)
        assert rem == want_rem
        assert trace == want_trace
        assert apply_trace(basis, trace) == oracle_apply_trace(basis, trace)
        assert apply_trace(basis, trace) == a - rem
        seen += bool(trace)
    assert seen > 0


def test_basis_rejects_an_element_of_another_algebra(staircase_handle):
    basis = groebner_basis(staircase_handle)
    other = groebner_basis(staircase_handle.at(11))
    with pytest.raises(ValueError, match="lives in another algebra"):
        GroebnerBasis(staircase_handle, basis.elements + other.elements[:1])


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


@pytest.mark.parametrize("black, other", [
    ([(1, 1), (1, 2)], [(1, 1)]),
    ([(1, 1)], [(1, 1), (1, 2)]),
])
def test_groebner_check_rejects_a_basis_of_another_handle(black, other):
    # the check once ran the other diagram's basis and reported its
    # failures under the handle's name
    handle = HPrimeHandle(Diagram.of(Shape(2, 2), black), 4)
    basis = groebner_basis(HPrimeHandle(Diagram.of(Shape(2, 2), other), 4))
    with pytest.raises(ValueError, match="the basis was built for"):
        groebner_check(handle, samples=5, basis=basis)


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


def test_drop_removes_one_element_per_valid_index(staircase_handle):
    minimal = minimal_groebner_basis(staircase_handle)
    elements = minimal.elements
    size = len(elements)
    assert size == 5
    for index in range(-size, size):
        kept = minimal.drop(index).elements
        gone = index % size
        assert kept == elements[:gone] + elements[gone + 1:]
    for index in (size, 99, -size - 1):
        with pytest.raises(IndexError, match="out of range for 5 elements"):
            minimal.drop(index)


def _count_basis_builds(monkeypatch):
    """Record the threshold of every groebner_basis call groebner_check makes."""
    built = []
    original = groebner.groebner_basis

    def counting(handle, check=True):
        built.append(handle.t)
        return original(handle, check=check)

    monkeypatch.setattr(groebner, "groebner_basis", counting)
    return built


def test_lower_level_basis_is_built_at_most_once(monkeypatch, corner_diagram_2x3):
    h = HPrimeHandle(corner_diagram_2x3, 5)
    built = _count_basis_builds(monkeypatch)
    rep = groebner_check(h, samples=40, seed=3)
    assert rep.passed
    assert built == [5, 4]


def test_lower_level_basis_is_not_built_when_never_drawn(
    monkeypatch, corner_diagram_2x3
):
    # with no more samples than basis elements no random element is drawn
    h = HPrimeHandle(corner_diagram_2x3, 5)
    size = len(groebner_basis(h, check=False))
    built = _count_basis_builds(monkeypatch)
    rep = groebner_check(h, samples=size, seed=3)
    assert rep.passed
    assert built == [5]


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


def test_checks_leave_shared_parts_and_tables_intact():
    # a check shares what it reads: memoized minors and basis elements, the
    # parts of a product with the empty cofactor, the candidate lists of
    # `hprime_minors` and the families' weights and inverse weights that
    # sigma reads; after 30 seeded checks each one still equals a fresh build
    from qmpaths.cauchon import build_graph, enumerate_gamma
    from qmpaths.minors import _minor_poly, minor_poly

    sh = Shape(4, 4)
    rng = random.Random(12)
    pool = [d for d in enumerate_cauchon_diagrams(sh) if 5 <= len(d.black) <= 7]
    for d in rng.sample(pool, 30):
        t = rng.randint(2, sh.mn)
        h = HPrimeHandle(d, t)
        assert groebner_check(h, samples=8, seed=rng.randrange(1 << 30)).passed
        for handle in (h, h.at(t - 1)):
            th = handle.threshold
            for e in groebner_basis(handle, check=False).elements:
                if e.bare:
                    fresh = QmPoly.generator(sh, th, e.spec.diagonal_coords[0])
                else:
                    fresh = _minor_poly.__wrapped__(sh, th, e.spec)
                    assert minor_poly(sh, th, e.spec) == fresh
                assert e.poly == fresh
                assert e.lt_key == fresh.leading_term()[0]
            assert hprime_minors(handle) == oracle_hprime_minors(handle)
        g = build_graph(d)
        fams = h.graph._family_cache
        assert fams
        for (i, j, bound), fam in fams.items():
            # no reflected-L turn sits at (1, 1), so t = 1 selects the families
            # of bound None and (0, 0)
            t = 1 if bound in (None, (0, 0)) else sh.coord_position(bound)
            fresh = enumerate_gamma(g, t, i, j)
            assert fresh.key == fam.key
            assert fam.weights == fresh.weights
            if "inverse_weights" in vars(fam):
                assert fam.inverse_weights == fresh.generator.inverse()._terms


def test_equal_but_distinct_shape_is_accepted(grid_4x4_diagram):
    # the algebra checks compare by identity first, then by value
    handle = HPrimeHandle(grid_4x4_diagram, 16)
    basis = groebner_basis(handle)
    other = Shape(4, 4)
    assert other is not handle.shape and other == handle.shape
    a = QmPoly(other, 16, [(E((3, 3), (4, 4)), q_power(1)), (E((1, 2)), q_power(0))])
    b = QmPoly(handle.shape, 16, [(E((2, 2)), q_power(-1))])
    assert kernel_member(handle, a) == kernel_member(handle, a.with_loc(None))
    remainder, trace = reduce(a, basis)
    assert apply_trace(basis, trace) + remainder == a
    assert a * b == QmPoly(handle.shape, 16, a.terms) * b
    ta = sigma(handle, a)
    assert ta * TorusElement.one(other) == ta
    assert ta + TorusElement.zero(other) == ta
    with pytest.raises(ValueError, match="shape mismatch"):
        a * QmPoly(Shape(4, 3), 12, [(E((2, 2)), q_power(0))])
    with pytest.raises(ValueError, match="shape mismatch"):
        ta * TorusElement.one(Shape(4, 3))
