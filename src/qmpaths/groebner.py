"""Right-ideal Groebner machinery for the kernels of the path evaluation.

With terms ordered matrix-lexicographically, the kernel attached to a
Cauchon diagram B at threshold t has a Groebner basis consisting of the
generators x_{i,j} with (i,j) in B beyond the threshold coordinate, together
with every quantum minor in the kernel whose maximum coordinate is at most
the threshold coordinate.  At the top threshold t = mn the minors with no
diagonal subminor in the kernel form a minimal basis.  No completion step is
ever needed; reduction is plain right-division by leading terms.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import combinations

from .coeff import LAM, ONE, Q, Q_INV, LaurentScalar
from .torus import MonoKey, key_entry, mono_key
from .straighten import (
    QmPoly,
    count_terms_in_grade,
    grade,
    term_divides,
)
from .minors import (
    HPrimeHandle,
    MinorSpec,
    clear_denominator,
    dd_forward,
    kernel_member,
    minor_in_kernel,
    minor_poly,
    sigma,
)


@dataclass(frozen=True)
class BasisElement:
    """One Groebner basis member: a monic kernel element with cached data.

    `bare` marks the single generators x_{i,j} included for black squares
    beyond the threshold coordinate (these are 1x1 minors as polynomials but
    are listed separately from the kernel minors).
    """

    spec: MinorSpec
    poly: QmPoly
    lt_key: MonoKey
    bare: bool = False

    def __str__(self):
        return ("x" if self.bare else "") + str(self.spec)


@dataclass(frozen=True)
class GroebnerBasis:
    handle: HPrimeHandle
    elements: tuple

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def spec_strings(self) -> list:
        return [str(e) for e in self.elements]

    def drop(self, index: int) -> "GroebnerBasis":
        """Basis with one element removed (mutation testing)."""
        kept = self.elements[:index] + self.elements[index + 1 :]
        return GroebnerBasis(self.handle, kept)


def hprime_minors(handle: HPrimeHandle) -> tuple[list, list]:
    """Generating data of the kernel at (B, t).

    Returns (minors, bare): all minor index pairs with maximum coordinate at
    most the threshold coordinate and empty path-system family, and the
    coordinates (i,j) in B beyond the threshold coordinate whose bare
    generators join them.  Both lists are sorted.
    """
    shape = handle.shape
    rs = handle.rs
    minors = []
    rows_all = range(1, shape.m + 1)
    cols_all = range(1, shape.n + 1)
    for k in range(1, min(shape.m, shape.n) + 1):
        for I in combinations(rows_all, k):
            if I[-1] > rs[0]:
                continue
            for J in combinations(cols_all, k):
                spec = MinorSpec(I, J)
                if spec.max_coord > rs:
                    continue
                if minor_in_kernel(handle, spec):
                    minors.append(spec)
    bare = sorted(c for c in handle.diagram.black if c > rs)
    minors.sort(key=lambda s: (s.k, s.I, s.J))
    return minors, bare


def groebner_basis(handle: HPrimeHandle, check: bool = True) -> GroebnerBasis:
    """The kernel's Groebner basis (minors plus bare generators).

    With check=True each element is verified to evaluate to zero.
    """
    minors, bare = hprime_minors(handle)
    shape, t = handle.shape, handle.t
    elements = []
    for spec in minors:
        poly = minor_poly(shape, t, spec)
        elements.append(BasisElement(spec, poly, poly.leading_term()[0]))
    for coord in bare:
        spec = MinorSpec.of([coord[0]], [coord[1]])
        poly = QmPoly.generator(shape, t, coord)
        elements.append(BasisElement(spec, poly, poly.leading_term()[0], bare=True))
    if check:
        for e in elements:
            if not kernel_member(handle, e.poly):
                raise AssertionError(f"basis element {e} is not in the kernel (bug)")
    return GroebnerBasis(handle, tuple(elements))


def minimal_groebner(handle: HPrimeHandle) -> list:
    """Minors in the kernel with no proper diagonal subminor in the kernel.

    Defined at the top threshold t = mn only.
    """
    if handle.t != handle.shape.mn:
        raise ValueError("the minimal basis is defined at the top threshold only")
    minors, _bare = hprime_minors(handle)
    in_kernel = set(minors)
    out = [
        spec
        for spec in minors
        if not any(sub in in_kernel for sub in spec.diagonal_subminors())
    ]
    return out


def minimal_groebner_basis(handle: HPrimeHandle) -> GroebnerBasis:
    """GroebnerBasis view of the minimal minor list (top threshold only)."""
    shape, t = handle.shape, handle.t
    elements = []
    for spec in minimal_groebner(handle):
        poly = minor_poly(shape, t, spec)
        elements.append(BasisElement(spec, poly, poly.leading_term()[0]))
    return GroebnerBasis(handle, tuple(elements))


# ---------------------------------------------------------------------------
# reduction


@dataclass(frozen=True)
class ReductionStep:
    """One division step: subtracted scale * basis[index] * x^cofactor."""

    index: int
    scale: LaurentScalar
    cofactor: MonoKey


def reduce(a: QmPoly, basis: GroebnerBasis):
    """Right-reduce a by the basis.

    Repeatedly cancels the leading term against the first basis element whose
    leading term divides it, subtracting scale * g * x^(lt(a) - lt(g)); stops
    when no leading term divides.  Returns (remainder, trace).  Terminates
    because leading terms strictly decrease within the finitely many exponent
    matrices of the grades present.
    """
    if a.shape != basis.handle.shape or a.threshold != basis.handle.threshold:
        raise ValueError("element and basis live in different algebras")
    if a.loc is not None:
        raise ValueError("reduction expects a polynomial (non-localized) element")
    trace = []
    if a.is_zero():
        return a, trace
    cap = 1 + sum(
        count_terms_in_grade(grade(a.shape, key)) for key in a.terms
    )
    work = a
    steps = 0
    while not work.is_zero():
        lt_key, lt_coeff = work.leading_term()
        hit = None
        for idx, e in enumerate(basis.elements):
            if term_divides(e.lt_key, lt_key):
                hit = idx
                break
        if hit is None:
            break
        steps += 1
        if steps > cap:
            raise RuntimeError("reduction exceeded its term-count bound (bug)")
        e = basis.elements[hit]
        cof = mono_key(
            (i, j, eo - key_entry(e.lt_key, (i, j)))
            for i, j, eo in lt_key
        )
        # x^cof comes from checked keys: built in a's algebra unvalidated
        prod = e.poly * a._like({cof: ONE})
        pk, pc = prod.leading_term()
        if pk != lt_key:
            raise RuntimeError("leading term of g * x^c is not lt(a) (bug)")
        if pc.as_monomial() is None:
            raise AssertionError("leading coefficient of g * x^c is not a unit (bug)")
        scale = lt_coeff * pc.inverse()
        work = work - prod.scale(scale)
        trace.append(ReductionStep(hit, scale, cof))
    return work, trace


def apply_trace(basis: GroebnerBasis, trace) -> QmPoly:
    """Right-combination named by a trace: sum of scale * g * x^cofactor."""
    shape, th = basis.handle.shape, basis.handle.threshold
    total = QmPoly.zero(shape, th)
    for step in trace:
        e = basis.elements[step.index]
        total = total + (e.poly * total._like({step.cofactor: ONE})).scale(step.scale)
    return total


# ---------------------------------------------------------------------------
# randomized checking


_COEFF_POOL = (ONE, -ONE, Q, -Q, Q_INV, -Q_INV, LAM)


def _random_monomial_key(rng, shape, max_degree) -> MonoKey:
    deg = rng.randint(0, max_degree)
    coords = list(shape.coords())
    return mono_key(
        (*rng.choice(coords), 1) for _ in range(deg)
    )


def random_kernel_element(
    handle: HPrimeHandle,
    basis: GroebnerBasis,
    rng,
    low: tuple | None = None,
) -> QmPoly:
    """Pseudo-random kernel member: a short sum of right-multiples of basis
    elements, or (when `low` supplies the next level down and the threshold
    square is white) a denominator-cleared derivation image of a lower-level
    kernel element."""
    if low is not None and rng.random() < 0.3:
        low_handle, low_basis = low
        if low_basis.elements:
            b = _random_right_combination(low_handle, low_basis, rng)
            if not b.is_zero():
                img, _h = clear_denominator(dd_forward(b))
                if not img.is_zero():
                    return img
    return _random_right_combination(handle, basis, rng)


def _random_right_combination(handle, basis, rng):
    shape, t = handle.shape, handle.t
    total = QmPoly.zero(shape, t)
    if not basis.elements:
        return total
    for _ in range(rng.randint(1, 2)):
        e = rng.choice(basis.elements)
        key = _random_monomial_key(rng, shape, 2)
        coeff = rng.choice(_COEFF_POOL)
        total = total + (e.poly * total._like({key: ONE})).scale(coeff)
    return total


def random_nonkernel_element(handle: HPrimeHandle, rng) -> QmPoly:
    """Pseudo-random element with nonzero evaluation: random terms plus a
    constant, nudged until sigma is visibly nonzero."""
    shape, t = handle.shape, handle.t
    terms = [(mono_key(()), rng.choice(_COEFF_POOL))]
    for _ in range(rng.randint(0, 2)):
        terms.append((_random_monomial_key(rng, shape, 3),
                      rng.choice(_COEFF_POOL)))
    a = QmPoly(shape, t, terms)
    bump = 1
    while sigma(handle, a).is_zero():
        a = a + QmPoly.one(shape, t).scale(bump)
        bump += 1
    return a


@dataclass
class GroebnerReport:
    diagram: str
    t: int
    basis: list
    samples: int
    checked_kernel: int = 0
    checked_nonkernel: int = 0
    failures: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """No failures, and at least one sample was checked."""
        checked = self.checked_kernel + self.checked_nonkernel
        return checked > 0 and not self.failures

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "diagram": self.diagram,
            "t": self.t,
            "basis": self.basis,
            "samples": self.samples,
            "checked_kernel": self.checked_kernel,
            "checked_nonkernel": self.checked_nonkernel,
            "failures": self.failures,
        }


def groebner_check(
    handle: HPrimeHandle,
    samples: int = 200,
    seed: int = 0,
    basis: GroebnerBasis | None = None,
) -> GroebnerReport:
    """Randomized validation of the Groebner property.

    Every sampled kernel element must (i) be confirmed by sigma, (ii) have
    its leading term divisible by a basis leading term, and (iii) reduce to
    zero; sampled non-kernel elements must reduce to nonzero remainders.
    The first samples are the basis elements themselves, so deleting any
    member of a minimal basis is guaranteed to surface a failure.
    """
    full_basis = groebner_basis(handle, check=False)
    if basis is None:
        basis = full_basis
    rng = random.Random(seed)
    report = GroebnerReport(
        diagram=handle.diagram.to_inline(),
        t=handle.t,
        basis=basis.spec_strings(),
        samples=samples,
    )

    def witness(kind, a, detail=""):
        report.failures.append(
            {"kind": kind, "element": repr(a), "detail": detail}
        )

    low = None
    if handle.t >= 2 and handle.rs not in handle.diagram.black:
        low_handle = handle.at(handle.t - 1)
        low = (low_handle, groebner_basis(low_handle, check=False))
    queue = [e.poly for e in full_basis.elements]
    while len(queue) < samples:
        queue.append(random_kernel_element(handle, full_basis, rng, low=low))
    for a in queue[:samples]:
        if a.is_zero():
            continue
        report.checked_kernel += 1
        if not kernel_member(handle, a):
            witness("sample-not-in-kernel", a)
            continue
        lt_key, _ = a.leading_term()
        if not any(term_divides(e.lt_key, lt_key) for e in basis.elements):
            witness("leading-term-not-divisible", a)
            continue
        rem, trace = reduce(a, basis)
        if not rem.is_zero():
            witness("nonzero-remainder", a, detail=repr(rem))
            continue
        recon = apply_trace(basis, trace)
        if recon != a:
            witness("trace-mismatch", a)
    for _ in range(samples):
        a = random_nonkernel_element(handle, rng)
        report.checked_nonkernel += 1
        rem, _trace = reduce(a, basis)
        if rem.is_zero():
            witness("nonkernel-reduced-to-zero", a)
        elif not kernel_member(handle, a - rem):
            witness("reduction-left-the-ideal", a)
    return report
