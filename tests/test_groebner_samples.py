"""The randomized Groebner check against its oracle route: the sample
builders, the check's reports, and a reduction that leaves its input as
it found it."""

import copy
import random

from oracles import (
    oracle_groebner_check,
    oracle_random_kernel_element,
    oracle_random_nonkernel_element,
    oracle_random_right_combination,
)
from qmpaths.cauchon import enumerate_cauchon_diagrams
from qmpaths.groebner import (
    _random_right_combination,
    groebner_basis,
    groebner_check,
    minimal_groebner_basis,
    random_kernel_element,
    random_nonkernel_element,
    reduce,
)
from qmpaths.minors import HPrimeHandle
from qmpaths.straighten import QmPoly
from qmpaths.torus import Shape
from qmpaths.verify import _shapes


def _diagrams():
    """Every Cauchon diagram of every shape up to 3x3."""
    for shape in _shapes(3, 3):
        yield from enumerate_cauchon_diagrams(shape)


def _same_draws(build, oracle, *args, seed):
    """build and oracle on equal rng streams: equal results, equal states."""
    r1, r2 = random.Random(seed), random.Random(seed)
    out = build(*args, r1)
    assert out == oracle(*args, r2)
    assert r1.getstate() == r2.getstate()
    return out


def test_builders_equal_the_qmpoly_route():
    # every diagram up to 3x3, six seeds each at a seeded threshold; the
    # kernel builder with and without its lower level
    rng = random.Random(16)
    nonzero = 0
    for d in _diagrams():
        for _ in range(6):
            t = rng.randint(1, d.shape.mn)
            h = HPrimeHandle(d, t)
            basis = groebner_basis(h, check=False)
            seed = rng.randrange(1 << 30)
            b = _same_draws(_random_right_combination,
                            oracle_random_right_combination, h, basis, seed=seed)
            nonzero += not b.is_zero()
            _same_draws(random_nonkernel_element,
                        oracle_random_nonkernel_element, h, seed=seed)
            if t >= 2 and h.rs not in d.black:
                low_h = h.at(t - 1)
                low_basis = groebner_basis(low_h, check=False)
                low = lambda: (low_h, low_basis)
                r1, r2 = random.Random(seed), random.Random(seed)
                out = random_kernel_element(h, basis, r1, low=low)
                assert out == oracle_random_kernel_element(h, basis, r2, low=low)
                assert r1.getstate() == r2.getstate()
    assert nonzero > 500


def test_check_reports_equal_the_oracle_route():
    # every diagram up to 3x3 at t = mn: the full basis, then each single
    # deletion from the minimal basis; a deletion among the first `samples`
    # elements surfaces a failure, so most of these reports fail
    failed = 0
    for n, d in enumerate(_diagrams()):
        h = HPrimeHandle(d, d.shape.mn)
        assert (groebner_check(h, samples=6, seed=n).to_json()
                == oracle_groebner_check(h, samples=6, seed=n).to_json())
        minimal = minimal_groebner_basis(h)
        for k in range(len(minimal)):
            basis = minimal.drop(k)
            report = groebner_check(h, samples=6, seed=n, basis=basis)
            assert report.to_json() == oracle_groebner_check(
                h, samples=6, seed=n, basis=basis).to_json()
            failed += not report.passed
    assert failed > 1000


def test_reduce_leaves_its_input_untouched():
    # kernel and non-kernel samples of seeded 3x3 and 3x4 kernels: the
    # input's parts equal a deep copy taken before; a reduction without a
    # step returns the input itself, and one with steps new parts
    rng = random.Random(7)
    steps = no_steps = 0
    for shape in (Shape(3, 3), Shape(3, 4)):
        pool = list(enumerate_cauchon_diagrams(shape))
        for d in rng.sample(pool, 12):
            h = HPrimeHandle(d, shape.mn)
            basis = groebner_basis(h, check=False)
            for _ in range(6):
                for a in (random_kernel_element(h, basis, rng),
                          random_nonkernel_element(h, rng)):
                    before = copy.deepcopy(a._terms)
                    rem, trace = reduce(a, basis)
                    assert a._terms == before
                    if trace:
                        steps += 1
                        assert rem._terms is not a._terms
                        for key, parts in rem._terms.items():
                            assert parts is not a._terms.get(key)
                    else:
                        no_steps += 1
                        assert rem is a
    assert steps > 50 and no_steps > 50


def test_reduce_without_a_divisible_leading_term_returns_its_input(
        staircase_3x4_diagram):
    h = HPrimeHandle(staircase_3x4_diagram, 12)
    basis = groebner_basis(h)
    for a in (QmPoly.one(h.shape, 12),
              QmPoly.generator(h.shape, 12, (3, 4)).scale(-2)):
        rem, trace = reduce(a, basis)
        assert rem is a and trace == []
