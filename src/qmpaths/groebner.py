"""Right-ideal Groebner machinery for the kernels of the path evaluation.

With terms ordered matrix-lexicographically, the kernel attached to a
Cauchon diagram B at threshold t has a Groebner basis consisting of the
generators x_{i,j} with (i,j) in B beyond the threshold coordinate, together
with every quantum minor in the kernel whose maximum coordinate is at most
the threshold coordinate.  At the top threshold t = mn the minors with no
diagonal subminor in the kernel form a minimal basis; the sweep that finds
the kernel minors finds them too, as the ones it has to search.  No
completion step is ever needed; reduction is plain right-division by leading
terms.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache, cached_property, lru_cache
from itertools import combinations

from .coeff import LAM, ONE, Q, Q_INV, LaurentScalar, _norm_coeff
from .torus import EMPTY_KEY, Coord, MonoKey, Shape, add_parts, to_scalar
from .cauchon import disjoint_pick_exists, family_grid
from .straighten import (
    QmPoly,
    Threshold,
    count_terms_in_grade,
    grade,
    lex_key,
    term_divides,
    times_monomial,
)
from .minors import (
    HPrimeHandle,
    MinorSpec,
    clear_denominator,
    dd_forward,
    kernel_member,
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

    @cached_property
    def name(self) -> str:
        """The element's name, built on first use and kept."""
        return ("x" if self.bare else "") + str(self.spec)

    def __str__(self):
        return self.name


def _support_mask(key: MonoKey, n: int) -> int:
    """Bit (i-1)*n + (j-1) set for every coordinate (i, j) of the key."""
    mask = 0
    for i, j, _e in key:
        mask |= 1 << ((i - 1) * n + j - 1)
    return mask


@dataclass(frozen=True)
class GroebnerBasis:
    """Basis elements of the kernel named by `handle`.

    `masks` holds the support bitmask of each element's leading term
    (`_support_mask`), which `reduce` tests before `term_divides`; it is
    built with the basis and freed with it.
    """

    handle: HPrimeHandle
    elements: tuple
    masks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        algebra = (self.handle.shape, self.handle.threshold, None)
        for e in self.elements:
            if (e.poly.shape, e.poly.threshold, e.poly.loc) != algebra:
                raise ValueError(f"basis element {e} lives in another algebra")
        n = self.handle.shape.n
        masks = tuple(_support_mask(e.lt_key, n) for e in self.elements)
        object.__setattr__(self, "masks", masks)

    def __iter__(self):
        return iter(self.elements)

    def __len__(self):
        return len(self.elements)

    def spec_strings(self) -> list:
        return [e.name for e in self.elements]

    def drop(self, index: int) -> "GroebnerBasis":
        """Basis with the element at a tuple index removed (negative indices
        count from the end); IndexError for any other index.  Used for
        mutation testing."""
        size = len(self.elements)
        if not -size <= index < size:
            raise IndexError(f"basis index {index} out of range for {size} elements")
        index %= size
        kept = self.elements[:index] + self.elements[index + 1 :]
        return GroebnerBasis(self.handle, kept)


@lru_cache(maxsize=1 << 8)
def _minor_candidates(rs: Coord, n: int) -> tuple:
    """(spec, diagonal coordinates, candidate indices of the k diagonal
    (k-1)-subminors) of every minor on columns 1..n with maximum coordinate
    at most rs, in (k, I, J) order.  Each subminor's maximum coordinate is
    at most its minor's, so it is a candidate one size down.  Built once
    per (threshold coordinate, n) and shared by every diagram."""
    r, s = rs
    rows, cols = range(1, r + 1), range(1, n + 1)
    index: dict = {}
    out = []
    for k in range(1, min(r, n) + 1):
        for I in combinations(rows, k):
            for J in combinations(cols, k):
                if I[-1] == r and J[-1] > s:
                    continue
                subs = () if k == 1 else tuple(
                    index[I[:a] + I[a + 1 :], J[:a] + J[a + 1 :]] for a in range(k)
                )
                index[I, J] = len(out)
                out.append((MinorSpec(I, J), tuple(zip(I, J)), subs))
    return tuple(out)


def _kernel_sweep(handle: HPrimeHandle) -> tuple[list, list]:
    """(kernel, searched): the minors with maximum coordinate at most the
    threshold coordinate and empty path-system family, in (k, I, J) order,
    and the sublist of those found empty by a search.

    One sweep visits the minors in (k, I, J) order (`_minor_candidates`).
    A k-minor with a diagonal (k-1)-subminor in the kernel is in the kernel
    without a search: each restricted family gamma(t; i, j) depends on
    (i, j) alone, and a sub-system of a vertex-disjoint system is still
    vertex-disjoint (Lindstrom 1973, Gessel-Viennot 1985), so dropping one
    index pair from a disjoint system for [I|J] would give one for the
    subminor, whose family is empty.  The subminor's maximum coordinate is
    at most the minor's, so the sweep met it one size earlier.  Emptiness of
    a smaller diagonal subminor's family passes up through the
    (k-1)-subminors the same way, so these k lookups decide every
    inheritance, and the kernel minors that inherit nothing, the searched
    ones, are exactly those with no proper diagonal subminor in the kernel.
    They are searched by `disjoint_pick_exists` over the vertex sets of the
    families in the threshold's family grid.
    """
    rows = family_grid(handle.graph, handle.t)
    kernel, searched = [], []
    in_kernel = []  # per candidate, in sweep order
    for spec, coords, subs in _minor_candidates(handle.rs, handle.shape.n):
        if any(in_kernel[x] for x in subs):
            hit = True
        else:
            hit = not disjoint_pick_exists(
                [rows[i - 1][j - 1].vertex_sets for i, j in coords]
            )
            if hit:
                searched.append(spec)
        in_kernel.append(hit)
        if hit:
            kernel.append(spec)
    return kernel, searched


def hprime_minors(handle: HPrimeHandle) -> tuple[list, list]:
    """Generating data of the kernel at (B, t).

    Returns (minors, bare): all minor index pairs with maximum coordinate at
    most the threshold coordinate and empty path-system family, and the
    coordinates (i,j) in B beyond the threshold coordinate whose bare
    generators join them.  Both lists are sorted, the minors by (k, I, J).
    Such a minor lies in the kernel exactly when its family of
    vertex-disjoint path systems is empty (`minor_in_kernel`); the minors
    come from one sweep (`_kernel_sweep`).
    """
    minors, _searched = _kernel_sweep(handle)
    bare = sorted(c for c in handle.diagram.black if c > handle.rs)
    return minors, bare


@lru_cache(maxsize=1 << 12)
def _minor_element(shape: Shape, th: Threshold, spec: MinorSpec) -> BasisElement:
    """The basis element of a minor: its memoized polynomial and leading
    key, taken once per memoized minor and shared by every basis."""
    poly = minor_poly(shape, th, spec)
    return BasisElement(spec, poly, max(poly._terms, key=lex_key))


def groebner_basis(handle: HPrimeHandle, check: bool = True) -> GroebnerBasis:
    """The kernel's Groebner basis (minors plus bare generators).

    With check=True each element is verified to evaluate to zero.
    """
    minors, bare = hprime_minors(handle)
    shape, t = handle.shape, handle.threshold
    elements = [_minor_element(shape, t, spec) for spec in minors]
    for coord in bare:
        spec = MinorSpec.of([coord[0]], [coord[1]])
        poly = QmPoly.generator(shape, t, coord)
        lt_key = max(poly._terms, key=lex_key)
        elements.append(BasisElement(spec, poly, lt_key, bare=True))
    if check:
        for e in elements:
            if not kernel_member(handle, e.poly):
                raise AssertionError(f"basis element {e} is not in the kernel (bug)")
    return GroebnerBasis(handle, tuple(elements))


def minimal_groebner(handle: HPrimeHandle) -> list:
    """Minors in the kernel with no proper diagonal subminor in the kernel,
    in (k, I, J) order: the ones the kernel sweep searches (`_kernel_sweep`).

    Defined at the top threshold t = mn only.
    """
    if handle.t != handle.shape.mn:
        raise ValueError("the minimal basis is defined at the top threshold only")
    return _kernel_sweep(handle)[1]


def minimal_groebner_basis(handle: HPrimeHandle) -> GroebnerBasis:
    """GroebnerBasis view of the minimal minor list (top threshold only)."""
    shape, t = handle.shape, handle.threshold
    return GroebnerBasis(handle, tuple(
        _minor_element(shape, t, spec) for spec in minimal_groebner(handle)
    ))


# ---------------------------------------------------------------------------
# reduction


@dataclass(frozen=True)
class ReductionStep:
    """One division step: subtracted scale * basis[index] * x^cofactor."""

    index: int
    scale: LaurentScalar
    cofactor: MonoKey


def _divisor(basis: GroebnerBasis, key: MonoKey):
    """Index of the first basis element whose leading term divides the
    nonnegative key, or None; the support masks rule most elements out
    before `term_divides` runs."""
    support = _support_mask(key, basis.handle.shape.n)
    for idx, mask in enumerate(basis.masks):
        if not mask & ~support and term_divides(basis.elements[idx].lt_key, key):
            return idx
    return None


def _quotient(b: MonoKey, a: MonoKey) -> MonoKey:
    """The key b - a, for a key a that divides b."""
    out, k = [], 0
    for i, j, e in b:
        if k < len(a) and a[k][0] == i and a[k][1] == j:
            e -= a[k][2]
            k += 1
        if e:
            out.append((i, j, e))
    return tuple(out)


def reduce(a: QmPoly, basis: GroebnerBasis):
    """Right-reduce a by the basis.

    Repeatedly cancels the leading term against the first basis element whose
    leading term divides it, subtracting scale * g * x^(lt(a) - lt(g)); stops
    when no leading term divides.  Returns (remainder, trace).  Terminates
    because leading terms strictly decrease within the finitely many exponent
    matrices of the grades present.

    The work polynomial is a's parts ({key: {q-exponent: n}}), copied at
    the first step, so a reduction that takes none returns a itself; each
    product g * x^c comes from `times_monomial` in that form, and a
    LaurentScalar is built only for each step's scale.
    """
    h = basis.handle
    if (a.shape is not h.shape and a.shape != h.shape) or (
            a.threshold is not h.threshold and a.threshold != h.threshold):
        raise ValueError("element and basis live in different algebras")
    if a.loc is not None:
        raise ValueError("reduction expects a polynomial (non-localized) element")
    trace = []
    if a.is_zero():
        return a, trace
    # every key counts itself in its grade, so cap >= 1 + len(a):
    # the cap is needed only past that many steps
    free_steps, cap = 1 + len(a), None
    work = a._terms
    steps = 0
    while work:
        lt_key = max(work, key=lex_key)
        hit = _divisor(basis, lt_key)
        if hit is None:
            break
        if not steps:
            work = {key: dict(parts) for key, parts in work.items()}
        steps += 1
        if steps > free_steps:
            if cap is None:
                cap = 1 + sum(
                    count_terms_in_grade(grade(a.shape, key)) for key in a._terms
                )
            if steps > cap:
                raise RuntimeError("reduction exceeded its term-count bound (bug)")
        e = basis.elements[hit]
        cof = _quotient(lt_key, e.lt_key)
        prod = times_monomial(e.poly, cof)
        if max(prod, key=lex_key) != lt_key:
            raise RuntimeError("leading term of g * x^c is not lt(a) (bug)")
        if len(prod[lt_key]) != 1:
            raise AssertionError("leading coefficient of g * x^c is not a unit (bug)")
        ((pp, pn),) = prod[lt_key].items()
        inverse = int(pn) if pn in (1, -1) else _norm_coeff(Fraction(1, 1) / pn)
        scale = {p - pp: m * inverse for p, m in work[lt_key].items()}
        minus = [(p, -n) for p, n in scale.items()]
        for key, powers in prod.items():
            add_parts(work, key, powers.items(), minus)
        trace.append(ReductionStep(hit, to_scalar(scale), cof))
    if not trace:
        return a, trace
    return a._like(work), trace


def apply_trace(basis: GroebnerBasis, trace) -> QmPoly:
    """Right-combination named by a trace: sum of scale * g * x^cofactor.

    This is the check on `reduce`, so every product is recomputed."""
    total: dict = {}
    for step in trace:
        prod = times_monomial(basis.elements[step.index].poly, step.cofactor)
        for key, powers in prod.items():
            add_parts(total, key, powers.items(), step.scale.terms)
    if not basis.elements:
        return QmPoly.zero(basis.handle.shape, basis.handle.threshold)
    return basis.elements[0].poly._like(total)


# ---------------------------------------------------------------------------
# randomized checking


_COEFF_POOL = (ONE, -ONE, Q, -Q, Q_INV, -Q_INV, LAM)


def _random_monomial_key(rng, shape, max_degree) -> MonoKey:
    """The key of a product of up to max_degree random generators, built
    sorted from the drawn coordinates."""
    deg = rng.randint(0, max_degree)
    coords = shape.coords()
    key: list = []
    for i, j in sorted([rng.choice(coords) for _ in range(deg)]):
        if key and key[-1][0] == i and key[-1][1] == j:
            key[-1] = (i, j, key[-1][2] + 1)
        else:
            key.append((i, j, 1))
    return tuple(key)


def random_kernel_element(
    handle: HPrimeHandle,
    basis: GroebnerBasis,
    rng,
    low: Callable[[], tuple] | None = None,
) -> QmPoly:
    """Pseudo-random kernel member: a short sum of right-multiples of basis
    elements, or (when `low` supplies the next level down and the threshold
    square is white) a denominator-cleared derivation image of a lower-level
    kernel element.  `low` is a zero-argument callable returning the
    (handle, basis) pair of that level, called only when the draw needs it."""
    if low is not None and rng.random() < 0.3:
        low_handle, low_basis = low()
        if low_basis.elements:
            b = _random_right_combination(low_handle, low_basis, rng)
            if not b.is_zero():
                img, _h = clear_denominator(dd_forward(b))
                if not img.is_zero():
                    return img
    return _random_right_combination(handle, basis, rng)


def _random_right_combination(handle, basis, rng):
    """One or two terms coeff * g * x^key, summed into one parts dict."""
    if not basis.elements:
        return QmPoly.zero(handle.shape, handle.threshold)
    shape = handle.shape
    total: dict = {}
    for _ in range(rng.randint(1, 2)):
        e = rng.choice(basis.elements)
        key = _random_monomial_key(rng, shape, 2)
        coeff = rng.choice(_COEFF_POOL)
        for k, parts in times_monomial(e.poly, key).items():
            add_parts(total, k, parts.items(), coeff.terms)
    return e.poly._like(total)


def random_nonkernel_element(handle: HPrimeHandle, rng) -> QmPoly:
    """Pseudo-random element with nonzero evaluation: random terms plus a
    constant, nudged until sigma is visibly nonzero."""
    shape, t = handle.shape, handle.threshold
    terms: dict = {}
    add_parts(terms, EMPTY_KEY, rng.choice(_COEFF_POOL).terms, ONE.terms)
    for _ in range(rng.randint(0, 2)):
        key = _random_monomial_key(rng, shape, 3)
        add_parts(terms, key, rng.choice(_COEFF_POOL).terms, ONE.terms)
    a = QmPoly.zero(shape, t)._like(terms)
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
    zero; sampled non-kernel elements must reduce to nonzero remainders
    that differ from them by a kernel element.  A reduction that takes no
    step returns the sample itself, so that difference is zero, which lies
    in the kernel: it is neither built nor evaluated.
    The first samples are the basis elements themselves, in basis order, so
    deleting a member of a minimal basis is guaranteed to surface a failure
    when it is among the first `samples` elements of the full basis; a
    member further down the list is caught only if a random kernel sample
    happens to need it.  A negative `samples` raises ValueError, and with
    0 nothing is checked, so the report does not pass.
    """
    if samples < 0:
        raise ValueError(f"samples must be at least 0, got {samples}")
    if basis is not None and basis.handle != handle:
        raise ValueError(f"the basis was built for {basis.handle}, not {handle}")
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
        # built on the first draw that reads it, at most once per check
        low = cache(lambda: (low_handle, groebner_basis(low_handle, check=False)))
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
        rem, trace = reduce(a, basis)
        if not trace:  # reduce stops at once when no leading term divides lt(a)
            witness("leading-term-not-divisible", a)
            continue
        if not rem.is_zero():
            witness("nonzero-remainder", a, detail=repr(rem))
            continue
        recon = apply_trace(basis, trace)
        if recon != a:
            witness("trace-mismatch", a)
    for _ in range(samples):
        a = random_nonkernel_element(handle, rng)
        report.checked_nonkernel += 1
        rem, trace = reduce(a, basis)
        if rem.is_zero():
            witness("nonkernel-reduced-to-zero", a)
        elif trace and not kernel_member(handle, a - rem):
            witness("reduction-left-the-ideal", a)
    return report
