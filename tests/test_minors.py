import random
from itertools import combinations

import pytest

from qmpaths.coeff import ONE, q_power
from qmpaths.torus import Shape, TorusElement, mono_key, t_gen, torus_product
from qmpaths.straighten import QmPoly, Threshold
from qmpaths.cauchon import (
    Diagram, enumerate_cauchon_diagrams, enumerate_vdps, family_grid, generator,
)
from qmpaths import cauchon
from qmpaths.minors import (
    HPrimeHandle,
    MinorSpec,
    clear_denominator,
    dd_backward,
    dd_forward,
    inversions,
    kernel_member,
    lindstrom_eval,
    minor_in_kernel,
    minor_poly,
    quantum_determinant,
    sigma,
)

from oracles import (
    oracle_derivation,
    oracle_diagonal_subminors,
    oracle_inversions,
    oracle_lindstrom_eval,
    oracle_minor_poly,
    oracle_sigma,
    random_coeff,
)

E = lambda *pairs: mono_key([(i, j, 1) for i, j in pairs])


# ---------------------------------------------------------------------------
# specs and the minor polynomial


def test_minor_spec_validation_and_parse():
    s = MinorSpec.of([1, 2], [1, 3])
    assert s.k == 2
    assert s.max_coord == (2, 3)
    assert s.diagonal_coords == ((1, 1), (2, 3))
    assert str(s) == "[1,2|1,3]"
    assert MinorSpec.parse("[1,2|1,3]") == s
    assert MinorSpec.parse("[ 1 , 2 | 1 , 3 ]") == s
    with pytest.raises(ValueError):
        MinorSpec.of([2, 1], [1, 2])
    with pytest.raises(ValueError):
        MinorSpec.of([1], [1, 2])
    with pytest.raises(ValueError):
        MinorSpec.parse("1,2|1,3")


def test_bool_is_not_a_minor_index_or_generator_coordinate(shape22):
    with pytest.raises(TypeError, match="minor indices must be integers, not bool"):
        MinorSpec((True, 2), (1, 2))
    with pytest.raises(TypeError, match="entries must be integers, not bool"):
        QmPoly.generator(shape22, 4, (True, 1))
    with pytest.raises(TypeError, match="entries must be integers, not bool"):
        QmPoly(shape22, 4, [(((1, True, 1),), ONE)])


def test_check_in_shape_rejects_indices_outside_the_grid(shape22):
    assert MinorSpec.of([1, 2], [1, 2]).check_in_shape(shape22).k == 2
    for I, J in [([0], [1]), ([-1], [1]), ([1], [0]), ([1, 3], [1, 2]), ([1], [3])]:
        with pytest.raises(ValueError, match="does not fit"):
            MinorSpec.of(I, J).check_in_shape(shape22)


def test_diagonal_subminors():
    s = MinorSpec.of([1, 2, 3], [1, 2, 4])
    subs = {str(x) for x in oracle_diagonal_subminors(s)}
    assert subs == {
        "[1|1]", "[2|2]", "[3|4]",
        "[1,2|1,2]", "[1,3|1,4]", "[2,3|2,4]",
    }


def test_minor_poly_examples(shape22):
    assert minor_poly(shape22, 4, MinorSpec.of([1], [1])) == QmPoly.generator(
        shape22, 4, (1, 1)
    )
    det = minor_poly(shape22, 4, MinorSpec.of([1, 2], [1, 2]))
    assert det == QmPoly(
        shape22, 4, {E((1, 1), (2, 2)): ONE, E((1, 2), (2, 1)): -q_power(1)}
    )


def test_minor_poly_sign_pattern():
    # six terms with coefficients (-q)^{inv(sigma)}
    sh = Shape(3, 4)
    p = minor_poly(sh, 12, MinorSpec.of([1, 2, 3], [1, 3, 4]))
    coeffs = sorted(repr(c) for c in p.terms.values())
    assert len(p.terms) == 6
    from collections import Counter

    counted = Counter(coeffs)
    assert counted[repr(ONE)] == 1
    assert counted[repr(-q_power(1))] == 2
    assert counted[repr(q_power(2))] == 2
    assert counted[repr(-q_power(3))] == 1


def test_minor_leading_term_is_diagonal():
    # for every minor on shapes up to 3x3 the leading term is the diagonal one
    for m, n in [(2, 2), (3, 3)]:
        sh = Shape(m, n)
        from itertools import combinations

        for k in range(1, min(m, n) + 1):
            for I in combinations(range(1, m + 1), k):
                for J in combinations(range(1, n + 1), k):
                    p = minor_poly(sh, sh.mn, MinorSpec(I, J))
                    key, coeff = p.leading_term()
                    assert key == E(*zip(I, J))
                    assert coeff == ONE


def test_memoized_minor_poly_equals_fresh_build():
    from itertools import combinations

    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        sh = Shape(m, n)
        for t in range(1, sh.mn + 1):
            for k in range(1, min(m, n) + 1):
                for I in combinations(range(1, m + 1), k):
                    for J in combinations(range(1, n + 1), k):
                        spec = MinorSpec(I, J)
                        fresh = oracle_minor_poly(sh, t, I, J)
                        p = minor_poly(sh, t, spec)
                        assert p == fresh
                        # arithmetic on the shared result leaves it intact
                        used = (p + p * p - p.scale(q_power(1))) * -p
                        assert not used.is_zero()
                        again = minor_poly(sh, Threshold.of(sh, t), spec)
                        assert again is p and again == fresh


def test_inversions_matches_oracle():
    from itertools import permutations

    for perm in permutations(range(4)):
        assert inversions(perm) == oracle_inversions(perm)


# ---------------------------------------------------------------------------
# evaluation


def test_handle_rejects_a_non_cauchon_diagram(shape22):
    # (2,2) is black with white squares above and to its left
    bad = Diagram.of(shape22, [(2, 2)])
    with pytest.raises(ValueError, match=r"not a Cauchon diagram.*\(2, 2\)"):
        HPrimeHandle(bad, 4)


def test_handle_at_shares_the_graph(grid_3x3_diagram):
    base = HPrimeHandle(grid_3x3_diagram, 9)
    for t in range(1, 10):
        h = base.at(t)
        assert h == HPrimeHandle(grid_3x3_diagram, t)
        assert h.graph is base.graph
        spec = MinorSpec.of((1, 2), (1, 2))
        if spec.max_coord <= h.rs:
            assert sigma(h, minor_poly(h.shape, t, spec)) == lindstrom_eval(h, spec)
    with pytest.raises(ValueError):
        base.at(10)


def test_sigma_black_generator_vanishes():
    # a black square beyond the threshold coordinate has an empty path family
    sh = Shape(2, 3)
    d = Diagram.of(sh, [(1, 3)])
    for t in (1, 2, 3):
        h = HPrimeHandle(d, t)
        assert sigma(h, QmPoly.generator(sh, t, (1, 3))).is_zero()


def test_sigma_injective_on_small_random_empty_diagram(shape22):
    rng = random.Random(3)
    d = Diagram.all_white(shape22)
    coords = list(shape22.coords())
    for t in (1, 2, 3, 4):
        h = HPrimeHandle(d, t)
        for _ in range(50):
            terms = {}
            for _k in range(rng.randint(1, 3)):
                key = mono_key(
                    (*rng.choice(coords), 1) for _ in range(rng.randint(0, 3))
                )
                terms[key] = q_power(rng.randint(-2, 2))
            a = QmPoly(shape22, t, terms)
            if not a.is_zero():
                assert not sigma(h, a).is_zero()


def test_sigma_mismatch_errors(shape22, shape23):
    h = HPrimeHandle(Diagram.all_white(shape22), 4)
    with pytest.raises(ValueError):
        sigma(h, QmPoly.one(shape23, 6))
    with pytest.raises(ValueError):
        sigma(h, QmPoly.one(shape22, 3))


def test_sigma_homomorphism_random():
    # a random product for every Cauchon diagram on every shape up to 3x3,
    # at every threshold
    rng = random.Random(4)
    for m, n in [(2, 2), (2, 3), (3, 2), (3, 3)]:
        sh = Shape(m, n)
        coords = list(sh.coords())
        for d in enumerate_cauchon_diagrams(sh):
            for t in range(1, sh.mn + 1):
                h = HPrimeHandle(d, t)

                def rand():
                    return QmPoly(
                        sh, t,
                        {
                            mono_key(
                                (*rng.choice(coords), 1)
                                for _ in range(rng.randint(0, 3))
                            ): q_power(rng.randint(-2, 2))
                            for _k in range(rng.randint(1, 3))
                        },
                    )

                a, b = rand(), rand()
                assert sigma(h, a * b) == sigma(h, a) * sigma(h, b)


def test_lindstrom_requires_max_coord(grid_4x4_diagram):
    h = HPrimeHandle(grid_4x4_diagram, 5)
    with pytest.raises(ValueError):
        lindstrom_eval(h, MinorSpec.of([1, 2], [1, 2]))
    with pytest.raises(ValueError):
        minor_in_kernel(h, MinorSpec.of([1, 2], [1, 2]))


def test_lindstrom_examples(grid_4x4_diagram):
    sh = grid_4x4_diagram.shape
    h = HPrimeHandle(grid_4x4_diagram, 16)
    assert lindstrom_eval(h, MinorSpec.of([1, 2], [1, 2])).is_zero()
    assert minor_in_kernel(h, MinorSpec.of([1, 2], [1, 2]))
    assert not minor_in_kernel(h, MinorSpec.of([1, 2, 3], [1, 3, 4]))
    got = lindstrom_eval(h, MinorSpec.of([1, 2, 3], [1, 3, 4]))
    want = (
        t_gen(sh, 1, 2) * t_gen(sh, 4, 2, -1) * t_gen(sh, 4, 1)
    ) * t_gen(sh, 2, 3) * t_gen(sh, 3, 4)
    assert got == want


def test_quantum_determinant_empty_diagram():
    for n in (2, 3, 4):
        sh = Shape(n, n)
        h = HPrimeHandle(Diagram.all_white(sh), sh.mn)
        dq = lindstrom_eval(h, MinorSpec.of(range(1, n + 1), range(1, n + 1)))
        assert dq == TorusElement.monomial(
            sh, mono_key([(i, i, 1) for i in range(1, n + 1)])
        )
        assert sigma(h, quantum_determinant(sh)) == dq
        # central: commutes with every generator image
        g = h.graph
        for i, j in sh.coords():
            x = generator(g, sh.mn, i, j)
            assert dq * x == x * dq


def test_empty_diagram_minors_never_vanish():
    # the nested-hook system always exists in the all-white graph
    from itertools import combinations

    for m, n in [(2, 2), (3, 3)]:
        sh = Shape(m, n)
        h = HPrimeHandle(Diagram.all_white(sh), sh.mn)
        for k in range(1, min(m, n) + 1):
            for I in combinations(range(1, m + 1), k):
                for J in combinations(range(1, n + 1), k):
                    assert not minor_in_kernel(h, MinorSpec(I, J))


def test_kernel_member_examples(grid_4x4_diagram):
    sh = grid_4x4_diagram.shape
    h = HPrimeHandle(grid_4x4_diagram, 16)
    assert kernel_member(h, QmPoly.zero(sh, 16))
    assert not kernel_member(h, QmPoly.one(sh, 16))
    mp = minor_poly(sh, 16, MinorSpec.of([1, 2], [1, 2]))
    rng = random.Random(5)
    coords = list(sh.coords())
    for _ in range(10):
        key = mono_key((*rng.choice(coords), 1) for _ in range(rng.randint(0, 3)))
        assert kernel_member(h, mp * QmPoly.monomial(sh, 16, key))


# ---------------------------------------------------------------------------
# derivation maps


def test_dd_forward_examples(shape22):
    # away from the northwest quadrant the generator passes through
    y21 = QmPoly.generator(shape22, 3, (2, 1))
    assert dd_forward(y21) == QmPoly.generator(shape22, 4, (2, 1), loc=(2, 2))
    # the northwest generator picks up the localized correction
    y11 = QmPoly.generator(shape22, 3, (1, 1))
    f = dd_forward(y11)
    assert f == QmPoly(
        shape22, 4,
        {
            E((1, 1)): ONE,
            mono_key([(1, 2, 1), (2, 1, 1), (2, 2, -1)]): -q_power(1),
        },
        loc=(2, 2),
    )


def test_dd_backward_examples(shape22):
    x22 = QmPoly.generator(shape22, 4, (2, 2))
    assert dd_backward(x22) == QmPoly.generator(shape22, 3, (2, 2), loc=(2, 2))
    x11 = QmPoly.generator(shape22, 4, (1, 1))
    b = dd_backward(x11)
    assert b == QmPoly(
        shape22, 3,
        {
            E((1, 1)): ONE,
            mono_key([(1, 2, 1), (2, 1, 1), (2, 2, -1)]): q_power(1),
        },
        loc=(2, 2),
    )


def test_dd_threshold_bounds(shape22):
    with pytest.raises(ValueError):
        dd_forward(QmPoly.one(shape22, 4))
    with pytest.raises(ValueError):
        dd_backward(QmPoly.one(shape22, 1))


def test_dd_roundtrip_random():
    rng = random.Random(6)
    for m, n in [(2, 2), (2, 3)]:
        sh = Shape(m, n)
        coords = list(sh.coords())
        for _ in range(100):
            t = rng.randint(2, sh.mn)
            rs = sh.threshold_coord(t)
            terms = {
                mono_key((*rng.choice(coords), 1) for _ in range(rng.randint(0, 4))):
                q_power(rng.randint(-2, 2))
                for _k in range(rng.randint(1, 3))
            }
            a = QmPoly(sh, t - 1, terms)
            assert dd_backward(dd_forward(a)) == a.with_loc(rs)
            b = QmPoly(sh, t, terms)
            assert dd_forward(dd_backward(b)) == b.with_loc(rs)


def test_dd_homomorphism(shape22):
    rng = random.Random(7)
    coords = list(shape22.coords())
    for t in (2, 3, 4):
        for _ in range(25):
            def rand():
                return QmPoly(
                    shape22, t - 1,
                    {
                        mono_key(
                            (*rng.choice(coords), 1)
                            for _ in range(rng.randint(0, 3))
                        ): q_power(rng.randint(-1, 1))
                        for _k in range(rng.randint(1, 2))
                    },
                )

            a, b = rand(), rand()
            assert dd_forward(a * b) == dd_forward(a) * dd_forward(b)


def test_clear_denominator(shape22):
    y11 = QmPoly.generator(shape22, 3, (1, 1))
    f = dd_forward(y11)
    cleared, h = clear_denominator(f)
    assert h == 1
    assert cleared.loc is None
    assert cleared == f.as_polynomial() if h == 0 else True
    # x11*x22 - q x12 x21 localizes back cleanly
    xrs = QmPoly.generator(shape22, 4, (2, 2), loc=(2, 2))
    assert cleared.with_loc((2, 2)) == f * xrs


def test_sigma_on_localized(shape22):
    d = Diagram.all_white(shape22)
    h = HPrimeHandle(d, 4)
    p = QmPoly.monomial(shape22, 4, mono_key([(1, 1, 1), (2, 2, -2)]), loc=(2, 2))
    got = sigma(h, p)
    want = sigma(h, QmPoly.generator(shape22, 4, (1, 1))) * t_gen(
        shape22, 2, 2, -1
    ) * t_gen(shape22, 2, 2, -1)
    assert got == want
    # localized evaluation at a black threshold square is rejected
    d_black = Diagram.of(shape22, [(1, 1), (1, 2), (2, 1), (2, 2)])
    hb = HPrimeHandle(d_black, 4)
    with pytest.raises(ValueError):
        sigma(hb, p)


# ---------------------------------------------------------------------------
# the substitution loop against independent routes


def _random_element(rng, sh, t, loc=None):
    """A few random terms at level t; with loc, about half of them carry a
    negative power of x_loc."""
    coords = list(sh.coords())
    terms = {}
    for _k in range(rng.randint(1, 3)):
        letters = [(*rng.choice(coords), 1) for _ in range(rng.randint(0, 3))]
        if loc is not None and rng.random() < 0.5:
            letters.append((*loc, -rng.randint(1, 2)))
        terms[mono_key(letters)] = q_power(rng.randint(-2, 2))
    return QmPoly(sh, t, terms, loc=loc)


def _sigma_by_torus_product(h, a):
    """sigma as a torus_product of each term's factor list, then scaled."""
    total = TorusElement.zero(h.shape)
    for key, coeff in a.terms.items():
        factors = []
        for i, j, e in key:
            base = generator(h.graph, h.t, i, j)
            factors.extend([base] * e if e > 0 else [base.inverse()] * -e)
        total = total + torus_product(h.shape, factors).scale(coeff)
    return total


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_derivations_equal_table_oracle(m, n):
    rng = random.Random(100 + 10 * m + n)
    sh = Shape(m, n)
    for t in range(2, sh.mn + 1):
        rs = sh.threshold_coord(t)
        for loc in (None, rs):
            for _ in range(4):
                a = _random_element(rng, sh, t - 1, loc)
                assert dd_forward(a) == oracle_derivation(a, t, rs, -1)
                b = _random_element(rng, sh, t, loc)
                assert dd_backward(b) == oracle_derivation(b, t - 1, rs, 1)


def _power_element(rng, sh, t, loc=None):
    """A few random terms at level t whose letters carry exponents 1 to 3;
    with loc, about half of the terms also carry x_loc^-1 to x_loc^-3."""
    coords = list(sh.coords())
    terms = {}
    for _k in range(rng.randint(1, 3)):
        letters = [(*rng.choice(coords), rng.randint(1, 3))
                   for _ in range(rng.randint(0, 2))]
        if loc is not None and rng.random() < 0.5:
            letters.append((*loc, -rng.randint(1, 3)))
        terms[mono_key(letters)] = random_coeff(rng)
    return QmPoly(sh, t, terms, loc=loc)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_derivations_with_powers_equal_table_oracle(m, n):
    # exponents up to 3, plain and localized, Fraction coefficients
    rng = random.Random(300 + 10 * m + n)
    sh = Shape(m, n)
    for t in range(2, sh.mn + 1):
        rs = sh.threshold_coord(t)
        for loc in (None, rs):
            for _ in range(2):
                a = _power_element(rng, sh, t - 1, loc)
                assert dd_forward(a) == oracle_derivation(a, t, rs, -1)
                b = _power_element(rng, sh, t, loc)
                assert dd_backward(b) == oracle_derivation(b, t - 1, rs, 1)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_lindstrom_eval_equals_system_weight_sum(m, n):
    sh = Shape(m, n)
    specs = [
        MinorSpec(I, J)
        for k in range(1, min(m, n) + 1)
        for I in combinations(range(1, m + 1), k)
        for J in combinations(range(1, n + 1), k)
    ]
    for d in enumerate_cauchon_diagrams(sh):
        top = HPrimeHandle(d, sh.mn)
        for t in range(1, sh.mn + 1):
            h = top.at(t)
            for spec in specs:
                if spec.max_coord <= h.rs:
                    assert lindstrom_eval(h, spec) == oracle_lindstrom_eval(h, spec)


def test_sigma_looks_up_each_family_once_per_call(monkeypatch):
    # sigma reads the graph's family grid: across calls, and across handles
    # sharing the graph, each (i, j) is looked up once per threshold, and
    # each family's inverse weights are built once
    sh = Shape(3, 3)
    h = HPrimeHandle(Diagram.all_white(sh), sh.mn)
    seen, inverted = [], []
    select, invert = cauchon._family, TorusElement.inverse

    def counting(g, i, j, rs, column):
        seen.append((i, j))
        return select(g, i, j, rs, column)

    def counting_inverse(a):
        inverted.append(a)
        return invert(a)

    monkeypatch.setattr(cauchon, "_family", counting)
    monkeypatch.setattr(TorusElement, "inverse", counting_inverse)

    def elements(t):
        a = QmPoly(sh, t, {
            E((1, 1), (1, 1), (2, 2)): ONE,
            E((1, 1), (2, 2), (3, 3)): ONE,
            mono_key([(2, 2, 3), (3, 3, 1)]): ONE,
        }, loc=(3, 3))
        b = QmPoly(sh, t, {mono_key([(1, 1, 1), (3, 3, -2)]): ONE}, loc=(3, 3))
        return a, b

    def looked_up(handle, poly):
        # (families looked up, inverses built) by sigma; the oracle reads
        # the families on its own
        seen.clear()
        inverted.clear()
        value = sigma(handle, poly)
        counts = sorted(seen), len(inverted)
        assert value == oracle_sigma(handle, poly)
        return counts

    grid = sorted(sh.coords())
    a, b = elements(sh.mn)
    assert looked_up(h, a) == (grid, 0)
    # only the inverse of x_{3,3} is new
    assert looked_up(h, a + b) == ([], 1)
    assert looked_up(h, a + b) == ([], 0)
    assert looked_up(h.at(sh.mn), a + b) == ([], 0)
    # another threshold on the same graph has a grid of its own; gamma(5;
    # 3, 3) is the family of the top threshold, so its inverse is kept
    low = h.at(5)
    a5, b5 = elements(5)
    assert looked_up(low, a5 + b5) == (grid, 0)
    assert looked_up(h.at(5), a5) == ([], 0)
    assert looked_up(h, a) == ([], 0)
    # a black coordinate's inverse is refused on every call, never kept
    black = HPrimeHandle(Diagram.of(sh, [(3, 1), (3, 2), (3, 3)]), sh.mn)
    for _ in range(2):
        with pytest.raises(ValueError, match="cannot invert"):
            sigma(black, b)
    assert not any(
        "inverse_weights" in vars(fam) for fam in black.graph._family_cache.values()
    )


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_sigma_equals_torus_product_route(m, n):
    # localized at rs wherever rs is white, so x_{r,s}^{-1} letters occur
    rng = random.Random(200 + 10 * m + n)
    sh = Shape(m, n)
    for d in enumerate_cauchon_diagrams(sh):
        top = HPrimeHandle(d, sh.mn)
        for t in range(1, sh.mn + 1):
            h = top.at(t)
            loc = None if d.is_black(h.rs) else h.rs
            a = _random_element(rng, sh, t, loc)
            assert sigma(h, a) == _sigma_by_torus_product(h, a)


@pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_sigma_equals_substitution_oracle(m, n):
    # every Cauchon diagram and threshold, plain and, wherever rs is white,
    # localized at rs
    rng = random.Random(400 + 10 * m + n)
    sh = Shape(m, n)
    for d in enumerate_cauchon_diagrams(sh):
        top = HPrimeHandle(d, sh.mn)
        for t in range(1, sh.mn + 1):
            h = top.at(t)
            for loc in (None,) if d.is_black(h.rs) else (None, h.rs):
                keys = _random_element(rng, sh, t, loc).terms
                a = QmPoly(sh, t, {k: random_coeff(rng) for k in keys}, loc=loc)
                assert sigma(h, a) == oracle_sigma(h, a), (d, t, a)


def _assert_canonical_parts(parts):
    # no zero n and no empty inner dict
    assert all(cs and all(cs.values()) for cs in parts.values()), parts


def test_path_sums_systems_and_sigma_values_are_canonical_parts():
    # every 3x3 diagram at every threshold: the weights of each family, the
    # inverse of the threshold coordinate's path sum where it is white, and
    # of every minor its sigma value and, at most at the threshold
    # coordinate, its path systems' weights
    sh = Shape(3, 3)
    specs = [
        MinorSpec(I, J)
        for k in (1, 2, 3)
        for I in combinations(range(1, 4), k)
        for J in combinations(range(1, 4), k)
    ]
    for d in enumerate_cauchon_diagrams(sh):
        top = HPrimeHandle(d, sh.mn)
        for t in range(1, sh.mn + 1):
            h = top.at(t)
            (r, s), rows = h.rs, family_grid(h.graph, t)
            for fam in (fam for row in rows for fam in row):
                _assert_canonical_parts(fam.weights)
            if not d.is_black((r, s)):
                _assert_canonical_parts(rows[r - 1][s - 1].inverse_weights)
            for spec in specs:
                _assert_canonical_parts(sigma(h, minor_poly(sh, t, spec))._terms)
                if spec.max_coord <= (r, s):
                    systems = enumerate_vdps(h.graph, t, spec.I, spec.J)
                    _assert_canonical_parts(systems.weights)


def test_zero_maps_to_zero_in_the_target_algebra(shape23):
    d = Diagram.of(shape23, [(1, 1)])
    for t in range(1, shape23.mn + 1):
        image = sigma(HPrimeHandle(d, t), QmPoly.zero(shape23, t))
        assert image == TorusElement.zero(shape23)
    for t in range(2, shape23.mn + 1):
        rs = shape23.threshold_coord(t)
        for loc in (None, rs):
            forward = dd_forward(QmPoly.zero(shape23, t - 1, loc=loc))
            assert forward == QmPoly.zero(shape23, t, loc=rs)
            backward = dd_backward(QmPoly.zero(shape23, t, loc=loc))
            assert backward == QmPoly.zero(shape23, t - 1, loc=rs)
