import random

import pytest
from hypothesis import given, strategies as st

from qmpaths.coeff import LAM, ONE, q_power
from qmpaths.torus import Shape, mono_key
from qmpaths.straighten import (
    QmPoly,
    _term_mul,
    count_terms_in_grade,
    grade,
    straighten_word,
    swap_adjacent,
    term_divides,
)
from qmpaths.cauchon import Diagram
from qmpaths.minors import (
    HPrimeHandle, MinorSpec, dd_backward, dd_forward, minor_poly, sigma,
)

from oracles import (
    expand_key,
    matrix_lex_compare,
    oracle_leading_term,
    oracle_qmpoly_mul,
    oracle_straighten_word,
    oracle_term_divides,
    random_coeff,
    random_descent_picker,
)

E = lambda *pairs: mono_key([(i, j, 1) for i, j in pairs])


def test_swap_adjacent_examples(shape22, shape23):
    # diagonal pair below the threshold coordinate picks up a correction
    p = swap_adjacent(shape22, 4, (2, 2), (1, 1))
    assert p == QmPoly(
        shape22, 4, {E((1, 1), (2, 2)): ONE, E((1, 2), (2, 1)): -LAM}
    )
    # in the 2x3 algebra at t=5 the pair (1,1),(2,3) commutes
    assert swap_adjacent(shape23, 5, (2, 3), (1, 1)) == QmPoly(
        shape23, 5, {E((1, 1), (2, 3)): ONE}
    )
    # same-row swap
    assert swap_adjacent(shape23, 6, (1, 2), (1, 1)) == QmPoly(
        shape23, 6, {E((1, 1), (1, 2)): q_power(-1)}
    )
    with pytest.raises(ValueError):
        swap_adjacent(shape22, 4, (1, 1), (1, 1))
    with pytest.raises(ValueError):
        swap_adjacent(shape22, 4, (1, 1), (2, 2))


def test_qm_mul_examples(shape22):
    one = QmPoly.one(shape22, 4)
    m = QmPoly.monomial(shape22, 4, E((1, 1), (2, 1)))
    assert m * one == m
    a = QmPoly.generator(shape22, 4, (1, 1))
    b = QmPoly.generator(shape22, 4, (2, 2))
    assert a * b == QmPoly.monomial(shape22, 4, E((1, 1), (2, 2)))
    assert b * a == QmPoly(
        shape22, 4, {E((1, 1), (2, 2)): ONE, E((1, 2), (2, 1)): -LAM}
    )


def test_threshold_mismatch_rejected(shape22):
    a = QmPoly.generator(shape22, 4, (1, 1))
    b = QmPoly.generator(shape22, 3, (2, 2))
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b


def test_inconsistent_threshold_rejected(shape22):
    from qmpaths.straighten import Threshold

    with pytest.raises(ValueError):
        QmPoly.zero(shape22, Threshold(3, (2, 2)))
    assert QmPoly.zero(shape22, Threshold(3, (2, 1))).is_zero()


def test_matrix_lex_examples():
    assert matrix_lex_compare(E((1, 1)), E((1, 1))) == (0, None)
    # larger entry at the first differing coordinate wins
    cmp_, witness = matrix_lex_compare(E((1, 2)), E((1, 1)))
    assert (cmp_, witness) == (-1, (1, 1))
    # generators sort opposite to their coordinates
    coords = [(1, 1), (1, 2), (2, 1), (2, 2)]
    for a in coords:
        for b in coords:
            if a != b:
                assert (matrix_lex_compare(E(a), E(b))[0] < 0) == (a > b)


def test_leading_term_examples(shape22):
    single = QmPoly.monomial(shape22, 4, E((1, 2)))
    assert single.leading_term() == (E((1, 2)), ONE)
    det = minor_poly(shape22, 4, MinorSpec.of([1, 2], [1, 2]))
    key, coeff = det.leading_term()
    assert key == E((1, 1), (2, 2))
    assert coeff == ONE
    with pytest.raises(ValueError):
        QmPoly.zero(shape22, 4).leading_term()


def test_leading_term_of_localized_elements_matches_the_comparator():
    # terms that differ only at the localized coordinate, whose exponents
    # may go negative, and the derivation images of generators and of
    # generator pairs, which are localized at a threshold coordinate
    shape = Shape(3, 3)
    rs = (2, 2)
    elements = []
    for rest in (E(), E((1, 1)), E((3, 3)), E((1, 3), (3, 1))):
        for exps in ((0, -1, -2), (-1, -2), (-2, 1, -1), (2, 1, 0)):
            terms = {mono_key(rest + ((*rs, e),)): ONE for e in exps}
            elements.append(QmPoly(shape, 5, terms, loc=rs))
    coords = shape.coords()
    for t in range(2, shape.mn + 1):
        r, s = shape.threshold_coord(t)
        for a in coords:
            x, y = (QmPoly.generator(shape, level, a) for level in (t - 1, t))
            elements += [dd_forward(x), dd_backward(y)]
            if a[0] < r and a[1] < s:  # images with a correction term
                for b in coords:
                    elements += [
                        dd_forward(x * QmPoly.generator(shape, t - 1, b)),
                        dd_backward(QmPoly.generator(shape, t, b) * y),
                    ]
    assert sum(len(a) > 1 for a in elements) > 150
    for a in elements:
        assert a.leading_term() == oracle_leading_term(a)


def test_term_divides_examples():
    assert term_divides((), E((1, 1), (2, 2)))
    assert term_divides(E((1, 1)), E((1, 1), (2, 2)))
    assert not term_divides(E((1, 2)), E((1, 1), (2, 2)))


_keys = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(-2, 3)),
    max_size=10,
).map(mono_key)


_nonneg_keys = st.lists(
    st.tuples(st.integers(1, 4), st.integers(1, 4), st.integers(0, 3)),
    max_size=10,
).map(mono_key)


@given(_keys, _keys, _nonneg_keys)
def test_term_divides_matches_dict_definition(a, b, c):
    # b is an arbitrary key; a + c lies entrywise above a wherever it can
    for x, y in [(a, b), (b, a), (a, a), (a, mono_key(a + c)), (c, mono_key(a + c))]:
        assert term_divides(x, y) == oracle_term_divides(x, y)


def test_grade_examples(shape22):
    gv = grade(shape22, E((1, 1), (2, 2)))
    assert gv.rows == (1, 1) and gv.cols == (1, 1)
    assert grade(shape22, ()).rows == (0, 0)
    with pytest.raises(ValueError):
        grade(shape22, mono_key([(1, 1, -1)]))
    assert count_terms_in_grade(gv) == 2  # E11+E22 and E12+E21


def _random_key(rng, shape, max_degree=4):
    coords = list(shape.coords())
    return mono_key(
        (*rng.choice(coords), 1) for _ in range(rng.randint(0, max_degree))
    )


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3)])
def test_qm_mul_associative_random(m, n):
    rng = random.Random(10 * m + n)
    shape = Shape(m, n)
    for _ in range(300):
        t = rng.randint(1, shape.mn)
        a = QmPoly.monomial(shape, t, _random_key(rng, shape), q_power(rng.randint(-1, 1)))
        b = QmPoly.monomial(shape, t, _random_key(rng, shape))
        c = QmPoly.monomial(shape, t, _random_key(rng, shape))
        assert (a * b) * c == a * (b * c)


def test_straightening_leading_structure():
    # x^M x^N = q^alpha x^(M+N) + strictly smaller terms
    rng = random.Random(5)
    shape = Shape(2, 3)
    for _ in range(300):
        t = rng.randint(1, 6)
        M = _random_key(rng, shape)
        N = _random_key(rng, shape)
        prod = QmPoly.monomial(shape, t, M) * QmPoly.monomial(shape, t, N)
        top = mono_key(M + N)
        key, coeff = prod.leading_term()
        assert key == top
        assert coeff.as_monomial() is not None  # q^alpha
        for other in prod.terms:
            if other != top:
                assert matrix_lex_compare(other, top)[0] < 0


def test_homogeneity_of_products():
    rng = random.Random(6)
    shape = Shape(2, 3)
    for _ in range(200):
        t = rng.randint(1, 6)
        M = _random_key(rng, shape)
        N = _random_key(rng, shape)
        prod = QmPoly.monomial(shape, t, M) * QmPoly.monomial(shape, t, N)
        want = grade(shape, M) + grade(shape, N)
        for key in prod.terms:
            assert grade(shape, key) == want


def test_confluence_under_randomized_strategies():
    rng = random.Random(7)
    shape = Shape(3, 3)
    coords = list(shape.coords())
    for trial in range(40):
        t = rng.randint(1, 9)
        rs = shape.threshold_coord(t)
        word = tuple(
            (*rng.choice(coords), 1) for _ in range(rng.randint(2, 6))
        )
        reference = straighten_word(rs, None, word)
        for _ in range(10):
            pick = random_descent_picker(rng)
            assert oracle_straighten_word(rs, None, word, pick=pick) == reference


def test_confluence_localized():
    rng = random.Random(8)
    shape = Shape(2, 3)
    for trial in range(30):
        t = rng.randint(2, 6)
        rs = shape.threshold_coord(t)
        word = []
        for _ in range(rng.randint(2, 5)):
            if rng.random() < 0.3:
                word.append((*rs, -1))
            else:
                word.append((*rng.choice(list(shape.coords())), 1))
        word = tuple(word)
        reference = straighten_word(rs, rs, word)
        for _ in range(10):
            pick = random_descent_picker(rng)
            assert oracle_straighten_word(rs, rs, word, pick=pick) == reference


def test_embedding_consistency_generators():
    # with the all-white diagram the evaluation map is an isomorphism onto a
    # torus subalgebra computed by completely independent machinery; products
    # of generators must agree under it for every shape up to 3x3 and every t
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        shape = Shape(m, n)
        d = Diagram.all_white(shape)
        for t in range(1, shape.mn + 1):
            h = HPrimeHandle(d, t)
            gens = [QmPoly.generator(shape, t, c) for c in shape.coords()]
            for a in gens:
                for b in gens:
                    assert sigma(h, a * b) == sigma(h, a) * sigma(h, b)


def test_embedding_consistency_random_products():
    rng = random.Random(9)
    for m, n in [(2, 2), (2, 3), (3, 3)]:
        shape = Shape(m, n)
        d = Diagram.all_white(shape)
        for _ in range(60):
            t = rng.randint(1, shape.mn)
            h = HPrimeHandle(d, t)
            a = QmPoly(
                shape, t,
                {_random_key(rng, shape, 3): q_power(rng.randint(-2, 2))
                 for _ in range(rng.randint(1, 3))},
            )
            b = QmPoly(
                shape, t,
                {_random_key(rng, shape, 3): q_power(rng.randint(-2, 2))
                 for _ in range(rng.randint(1, 3))},
            )
            assert sigma(h, a * b) == sigma(h, a) * sigma(h, b)


def test_embedding_consistency_localized():
    # multiplication in the localized algebra also matches the torus model,
    # exercising the inverted-letter rewrite rules
    rng = random.Random(11)
    for m, n in [(2, 2), (2, 3)]:
        shape = Shape(m, n)
        d = Diagram.all_white(shape)
        coords = list(shape.coords())
        for _ in range(80):
            t = rng.randint(1, shape.mn)
            rs = shape.threshold_coord(t)
            h = HPrimeHandle(d, t)

            def rand_localized():
                items = []
                for _ in range(rng.randint(0, 3)):
                    items.append((*rng.choice(coords), 1))
                if rng.random() < 0.7:
                    items.append((*rs, -rng.randint(1, 2)))
                return QmPoly.monomial(shape, t, mono_key(items), loc=rs)

            a, b = rand_localized(), rand_localized()
            assert sigma(h, a * b) == sigma(h, a) * sigma(h, b)


def test_localized_validation(shape22):
    with pytest.raises(ValueError):
        QmPoly.monomial(shape22, 4, mono_key([(1, 1, -1)]))
    # localized coordinate must sit at or beyond the threshold coordinate
    with pytest.raises(ValueError):
        QmPoly.zero(shape22, 4, loc=(1, 1))
    p = QmPoly.monomial(shape22, 4, mono_key([(2, 2, -2)]), loc=(2, 2))
    with pytest.raises(ValueError):
        p.as_polynomial()
    q = QmPoly.monomial(shape22, 4, mono_key([(1, 1, 1)]), loc=(2, 2))
    assert q.as_polynomial().loc is None


def test_json_roundtrip(shape23):
    p = QmPoly(
        shape23, 5,
        {E((1, 1), (2, 2)): ONE, E((1, 2), (2, 1)): -LAM},
    )
    assert QmPoly.from_json(p.to_json()) == p


def _oracle_cases(shape, rng, pairs_per_algebra=10, corrections_per_algebra=3):
    """Seeded (rs, loc, a, b) key pairs for every threshold of the shape,
    plain and localized at every coordinate at or after rs.  Besides random
    keys with exponents up to 3, each algebra gets pairs built to correct:
    z^e (e <= 3) at z <= rs against a letter northwest of z, and, localized
    at rs, rs^-k (k <= 3) against a letter northwest of rs."""
    coords = list(shape.coords())

    def extras(loc, count):
        items = [(*rng.choice(coords), rng.randint(1, 3)) for _ in range(count)]
        if loc is not None and rng.random() < 0.5:
            items.append((*loc, rng.choice([-3, -2, -1, 1, 2])))
        return items

    for t in range(1, shape.mn + 1):
        rs = shape.threshold_coord(t)
        corners = [c for c in coords if c <= rs and c[0] > 1 and c[1] > 1]
        for loc in [None] + [c for c in coords if c >= rs]:
            for _ in range(pairs_per_algebra):
                a = mono_key(extras(loc, rng.randint(0, 2)))
                b = mono_key(extras(loc, rng.randint(0, 2)))
                yield rs, loc, a, b
            for _ in range(corrections_per_algebra if corners else 0):
                z = rng.choice(corners)
                y = (rng.randint(1, z[0] - 1), rng.randint(1, z[1] - 1), 1)
                a = mono_key(extras(loc, 1) + [(*z, rng.randint(1, 3))])
                yield rs, loc, a, mono_key([y] + extras(None, rng.randint(0, 1)))
            inverted = loc == rs and rs[0] > 1 and rs[1] > 1
            for _ in range(corrections_per_algebra if inverted else 0):
                y = (rng.randint(1, rs[0] - 1), rng.randint(1, rs[1] - 1), 1)
                a = mono_key(extras(None, rng.randint(0, 1)) + [(*rs, -rng.randint(1, 3))])
                yield rs, loc, a, mono_key([y, *extras(None, rng.randint(0, 1))])


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3), (3, 4)])
def test_term_mul_and_straighten_word_equal_rewrite_tree_oracle(m, n):
    rng = random.Random(100 * m + n)
    shape = Shape(m, n)
    corrected = inverted_corrected = 0
    for rs, loc, a, b in _oracle_cases(shape, rng):
        word = expand_key(a) + expand_key(b)
        want = oracle_straighten_word(rs, loc, word)
        assert dict(_term_mul(rs, loc, a, b)) == want, (rs, loc, a, b)
        assert straighten_word(rs, loc, word) == want, (rs, loc, word)
        if len(want) > 1:
            corrected += 1
            inverted_corrected += any(e < 0 for _, _, e in a)
    # the per-copy correction loop ran, also for the inverted letter
    assert corrected > 0
    assert inverted_corrected > 0


def test_stress_word_equals_rewrite_tree_oracle():
    # (x33 x22 x11)^4 at 3x3, t = 9: the roadmap's stress word, one power down
    word = ((3, 3, 1), (2, 2, 1), (1, 1, 1)) * 4
    got = straighten_word((3, 3), None, word)
    assert got == oracle_straighten_word((3, 3), None, word)
    assert len(got) > 1


@pytest.mark.parametrize(
    "loc,word",
    [
        pytest.param((2, 2), [(0, 1, 1)], id="row-0"),
        pytest.param((2, 2), [(1, 0, 1)], id="column-0"),
        pytest.param((2, 2), [(2, 2, 2), (1, 1, 1)], id="exponent-2"),
        pytest.param((2, 2), [(2, 2, 0)], id="exponent-0"),
        pytest.param(None, [(2, 2, -1), (1, 1, 1)], id="inverted-unlocalized"),
        pytest.param((2, 2), [(1, 2, -1)], id="inverted-off-loc"),
        pytest.param((1, 2), [(1, 1, 1)], id="loc-before-rs"),
    ],
)
def test_straighten_word_rejects_bad_letters(loc, word):
    with pytest.raises(ValueError) as info:
        straighten_word((2, 2), loc, word)
    assert "\n" not in str(info.value)


def test_straighten_word_split_word_keeps_its_correction():
    # the exponent-2 letter is rejected; spelled as two letters it keeps the
    # (q^-3 - q) x12 x21 x22 correction term
    got = straighten_word((2, 2), None, [(2, 2, 1), (2, 2, 1), (1, 1, 1)])
    assert got == {
        E((1, 1), (2, 2), (2, 2)): ONE,
        E((1, 2), (2, 1), (2, 2)): q_power(-3) - q_power(1),
    }


def _random_poly(rng, shape, t, loc):
    """One to three terms of degree up to 3, with x_loc^(+-1) in about half
    of them when localized."""
    coords = list(shape.coords())
    terms = []
    for _ in range(rng.randint(1, 3)):
        items = [(*rng.choice(coords), 1) for _ in range(rng.randint(0, 3))]
        if loc is not None and rng.random() < 0.5:
            items.append((*loc, rng.choice([-1, 1])))
        terms.append((mono_key(items), random_coeff(rng)))
    return QmPoly(shape, t, terms, loc=loc)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_qmpoly_mul_equals_per_pair_oracle(m, n):
    rng = random.Random(300 + 10 * m + n)
    shape = Shape(m, n)
    cancelled = 0
    for t in range(1, shape.mn + 1):
        rs = shape.threshold_coord(t)
        for loc in [None] + [c for c in shape.coords() if c >= rs]:
            for _ in range(4):
                a = _random_poly(rng, shape, t, loc)
                b = _random_poly(rng, shape, t, loc)
                assert a * b == oracle_qmpoly_mul(a, b), (t, loc, a, b)
            # (x_z + lam x_(yi,zj)) (x_y + x_(zi,yj)) with y northwest of
            # z <= rs: the correction of x_z x_y cancels the second pair
            corners = [c for c in shape.coords()
                       if c <= rs and c[0] > 1 and c[1] > 1]
            if corners:
                zi, zj = rng.choice(corners)
                yi, yj = rng.randint(1, zi - 1), rng.randint(1, zj - 1)
                c = random_coeff(rng)
                a = QmPoly(shape, t, [(E((zi, zj)), c), (E((yi, zj)), c * LAM)], loc=loc)
                b = QmPoly(shape, t, [(E((yi, yj)), ONE), (E((zi, yj)), ONE)], loc=loc)
                got = a * b
                assert got == oracle_qmpoly_mul(a, b), (t, loc, a, b)
                assert E((yi, zj), (zi, yj)) not in got.terms
                cancelled += 1
    assert cancelled > 0
