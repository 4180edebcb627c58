"""sigma's two routes, the trie of words evaluated right to left and the
term-by-term left-to-right loop, against each other and `oracle_sigma`."""

import hashlib
import json
import random
from itertools import combinations

import pytest

from oracles import oracle_sigma
from qmpaths import minors
from qmpaths.cauchon import Diagram, enumerate_cauchon_diagrams
from qmpaths.coeff import LAM, ONE, Q, Q_INV
from qmpaths.groebner import groebner_basis, random_kernel_element
from qmpaths.minors import (
    HPrimeHandle,
    MinorSpec,
    dd_forward,
    minor_poly,
    sigma,
)
from qmpaths.straighten import QmPoly
from qmpaths.torus import Shape, TorusElement, mono_key

FIVE = ".#.../#..../...../...../....."
SIX = ".###.#/..#.../#.#.../###.../..#.../#....."


def _every_minor(shape):
    for k in range(1, min(shape.m, shape.n) + 1):
        for I in combinations(range(1, shape.m + 1), k):
            for J in combinations(range(1, shape.n + 1), k):
                yield MinorSpec(I, J)


def _assert_routes_agree(h, a):
    """Both routes, `sigma` and the oracle give one element; returns it."""
    image = minors._image_lookup(h)
    trie, ltr = (
        TorusElement._raw(h.shape, route(a._terms, image))
        for route in (minors._sigma_trie, minors._sigma_left_to_right)
    )
    assert trie == ltr, a
    assert trie == oracle_sigma(h, a), a
    assert sigma(h, a) == trie
    return trie


@pytest.mark.parametrize("m,per_shape", [(3, 40), (4, 8)])
def test_routes_agree_on_every_minor_at_every_threshold(m, per_shape):
    sh = Shape(m, m)
    rng = random.Random(70 + m)
    diagrams = list(enumerate_cauchon_diagrams(sh))
    specs = list(_every_minor(sh))
    for d in rng.sample(diagrams, per_shape):
        top = HPrimeHandle(d, sh.mn)
        for t in range(1, sh.mn + 1):
            h = top.at(t)
            for spec in specs:
                a = minor_poly(sh, t, spec)
                # from k = 3 on, the k! terms take the trie route
                trie = len(a._terms) >= minors._TRIE_MIN_TERMS
                assert trie == (spec.k > 2)
                _assert_routes_agree(h, a)


def test_routes_agree_on_right_combinations_from_the_5x5_basis():
    # multiples of the two 4x4 minors of the 5x5 basis; cofactors from the
    # last row and column keep the left-to-right loop at a fraction of a
    # second (an x_{1,1} cofactor costs it about ten)
    d = Diagram.from_text(FIVE)
    h = HPrimeHandle(d, d.shape.mn)
    sh, t = h.shape, h.t
    basis = groebner_basis(h, check=False)
    assert [e.spec.k for e in basis.elements] == [4, 4]
    cheap = [(5, j) for j in range(1, 6)] + [(i, 5) for i in range(1, 5)]
    rng = random.Random(55)
    for _ in range(3):
        a = QmPoly.zero(sh, t)
        for e in basis.elements:
            cofactor = QmPoly.generator(sh, t, rng.choice(cheap))
            a = a + (e.poly * cofactor).scale(rng.choice((ONE, -Q, Q_INV, LAM)))
        assert len(a._terms) >= minors._TRIE_MIN_TERMS
        assert _assert_routes_agree(h, a).is_zero()


@pytest.mark.parametrize("m,n", [(2, 3), (3, 3)])
def test_routes_agree_on_dd_forward_images(m, n):
    # the images carry x_{r,s}^{-1}, a letter of its own in the trie
    sh = Shape(m, n)
    rng = random.Random(90 + 10 * m + n)
    specs = list(_every_minor(sh))
    both = 0
    for d in rng.sample(list(enumerate_cauchon_diagrams(sh)), 40):
        top = HPrimeHandle(d, sh.mn)
        for t in range(2, sh.mn + 1):
            h = top.at(t)
            if d.is_black(h.rs):
                continue
            picks = rng.sample(specs, 3)
            images = [dd_forward(minor_poly(sh, t - 1, s)) for s in picks]
            for a in [*images, images[0] - images[1].scale(Q) + images[2]]:
                inverted = any(e < 0 for key in a._terms for _, _, e in key)
                both += inverted and len(a._terms) >= minors._TRIE_MIN_TERMS
                _assert_routes_agree(h, a)
    assert both >= 20


def test_routes_agree_on_kernel_elements_whose_subtrees_cancel(
    monkeypatch, staircase_3x4_diagram
):
    # sigma of a kernel element is zero; in the trie its subtree sums
    # cancel before they are multiplied, so it makes fewer products
    h = HPrimeHandle(staircase_3x4_diagram, 12)
    basis = groebner_basis(h, check=False)
    low_handle = h.at(11)
    low = (low_handle, groebner_basis(low_handle, check=False))
    products = []

    def counting(left, right):
        products.append(len(left) * len(right))
        return product(left, right)

    product = minors.parts_mul
    monkeypatch.setattr(minors, "parts_mul", counting)
    rng = random.Random(12)
    saved = 0
    for _ in range(30):
        a = random_kernel_element(h, basis, rng, low=lambda: low)
        image = minors._image_lookup(h)
        products.clear()
        assert minors._sigma_trie(a._terms, image) == {}
        trie = sum(products)
        products.clear()
        ltr = TorusElement._raw(
            h.shape, minors._sigma_left_to_right(a._terms, image)
        )
        assert ltr.is_zero()
        assert oracle_sigma(h, a).is_zero()
        saved += trie < sum(products)
    assert saved >= 20


def test_route_is_picked_by_the_number_of_terms(monkeypatch):
    sh = Shape(3, 3)
    h = HPrimeHandle(Diagram.all_white(sh), sh.mn)
    taken = []
    for name in ("_sigma_trie", "_sigma_left_to_right"):
        route = getattr(minors, name)
        monkeypatch.setattr(
            minors, name,
            lambda terms, image, name=name, route=route: (
                taken.append(name) or route(terms, image)
            ),
        )

    def first_route(*keys, loc=None):
        taken.clear()
        a = QmPoly(sh, sh.mn, {mono_key(k): ONE for k in keys}, loc=loc)
        assert sigma(h, a) == oracle_sigma(h, a)
        return taken[0]

    assert minors._TRIE_MIN_TERMS == 4
    three = ([(1, 1, 1)], [(1, 1, 2)], [(1, 1, 1), (2, 2, 1)])
    assert first_route(*three) == "_sigma_left_to_right"
    assert first_route(*three, [(2, 2, 1)]) == "_sigma_trie"
    # no two of these share a first letter; the trie still agrees
    assert first_route([], [(1, 2, 1)], [(2, 1, 1)], [(3, 3, 2)]) == "_sigma_trie"
    # x_{3,3} and its inverse are different letters of one trie
    powers = [[(3, 3, e)] for e in (-2, -1, 1, 2)]
    assert first_route(*powers, loc=(3, 3)) == "_sigma_trie"


def test_6x6_basis_with_check():
    # every one of the 246 minors is confirmed in the kernel by sigma; the
    # digest is that of the spec list the left-to-right loop gave
    d = Diagram.from_text(SIX)
    basis = groebner_basis(HPrimeHandle(d, d.shape.mn), check=True)
    specs = basis.spec_strings()
    assert len(specs) == 246
    digest = hashlib.sha256(json.dumps(specs, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "3f9ed5c1c3756b6793f461848aa4f316b0dac8232e92fadedbf2e77c711030b4"
    )
