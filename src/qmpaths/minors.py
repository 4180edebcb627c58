"""Quantum minors, torus evaluation, kernels, and the derivation maps.

A diagram B and threshold t determine the evaluation homomorphism sending
each generator x_{i,j} to its path sum in the quantum torus; its kernel is
the torus-invariant prime attached to B at level t.  Each path sum is a
sum of monomials q^c t^N with integer multiplicities, so evaluation works on
the integer parts {N: {c: n}} a TorusElement stores (`torus.parts_mul`).
The path sums, and the inverses of the monomial ones, are read off the
graph's family grid at the threshold (`cauchon.family_grid`).  Minors whose
maximum coordinate is at most the threshold coordinate evaluate by the
q-analogue of the Lindstrom/Gessel-Viennot rule: a sum of weights over
vertex-disjoint path systems, which vanishes exactly when the family is
empty.

The deleting/adding derivation maps connect the algebras at neighbouring
thresholds after inverting the threshold generator:

    forward  (level t-1 to t):  y_{i,j} -> x_{i,j} - x_{i,s} x_{r,s}^{-1} x_{r,j}
    backward (level t to t-1):  x_{i,j} -> y_{i,j} + y_{i,s} y_{r,s}^{-1} y_{r,j}

for (i,j) northwest of (r,s), identity on all other generators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .coeff import ONE, q_power
from .torus import (
    EMPTY_KEY, Coord, Shape, TorusElement, add_parts, key_entry, mono_key,
    parts_mul,
)
from .straighten import QmPoly, Threshold, _fold, _unit_letters
from .cauchon import Diagram, build_graph, enumerate_vdps, family_grid, vdps_exists


@dataclass(frozen=True)
class MinorSpec:
    """Index pair of a quantum minor: equal-size increasing row/column sets."""

    I: tuple
    J: tuple

    def __post_init__(self):
        if len(self.I) != len(self.J) or not self.I:
            raise ValueError("row and column sets must be nonempty of equal size")
        if any(x.__class__ is bool for x in self.I + self.J):
            raise TypeError("minor indices must be integers, not bool")
        if any(a >= b for a, b in zip(self.I, self.I[1:])) or any(
            a >= b for a, b in zip(self.J, self.J[1:])
        ):
            raise ValueError("index sets must be strictly increasing")

    @classmethod
    def of(cls, I, J) -> "MinorSpec":
        return cls(tuple(I), tuple(J))

    @property
    def k(self) -> int:
        return len(self.I)

    @property
    def diagonal_coords(self) -> tuple:
        return tuple(zip(self.I, self.J))

    @property
    def max_coord(self) -> Coord:
        return (self.I[-1], self.J[-1])

    def check_in_shape(self, shape: Shape) -> "MinorSpec":
        low, high = (self.I[0], self.J[0]), self.max_coord
        if not (shape.contains(low) and shape.contains(high)):
            raise ValueError(f"minor {self} does not fit a {shape.m}x{shape.n} grid")
        return self

    def __str__(self):
        return "[{}|{}]".format(
            ",".join(map(str, self.I)), ",".join(map(str, self.J))
        )

    @classmethod
    def parse(cls, text: str) -> "MinorSpec":
        body = text.strip()
        if not body.startswith("[") or not body.endswith("]") or "|" not in body:
            raise ValueError(f"cannot parse minor spec {text!r}")
        left, right = body[1:-1].split("|", 1)
        return cls(
            tuple(int(x) for x in left.replace(" ", "").split(",") if x),
            tuple(int(x) for x in right.replace(" ", "").split(",") if x),
        )


def inversions(perm) -> int:
    return sum(
        1
        for a in range(len(perm))
        for b in range(a + 1, len(perm))
        if perm[a] > perm[b]
    )


def minor_poly(shape: Shape, t, spec: MinorSpec) -> QmPoly:
    """The quantum minor as a polynomial: sum over permutations sigma of
    (-q)^{inv(sigma)} x_{i_1, j_sigma(1)} ... x_{i_k, j_sigma(k)}.

    Each summand is already a lexicographic term, so this expression is the
    canonical form.  Memoized per (shape, threshold, spec): the returned
    polynomial is shared, so callers must not mutate its terms.
    """
    spec.check_in_shape(shape)
    th = t if isinstance(t, Threshold) else Threshold.of(shape, t)
    return _minor_poly(shape, th, spec)


@lru_cache(maxsize=1 << 12)
def _minor_poly(shape: Shape, th: Threshold, spec: MinorSpec) -> QmPoly:
    terms = []
    k = spec.k
    for perm in permutations(range(k)):
        key = mono_key((spec.I[a], spec.J[perm[a]], 1) for a in range(k))
        coeff = q_power(inversions(perm)) * ((-1) ** inversions(perm))
        terms.append((key, coeff))
    return QmPoly(shape, th, terms)


# ---------------------------------------------------------------------------
# evaluation into the torus


class HPrimeHandle:
    """A Cauchon diagram with a threshold level; names ker(sigma)."""

    __slots__ = ("diagram", "threshold", "graph")

    def __init__(self, diagram: Diagram, t: int):
        self.diagram = diagram
        self.threshold = Threshold.of(diagram.shape, t)
        self.graph = build_graph(diagram)

    def at(self, t: int) -> "HPrimeHandle":
        """The same diagram at threshold t, sharing this handle's graph and
        the evaluation caches kept on it."""
        other = object.__new__(HPrimeHandle)
        other.diagram = self.diagram
        other.threshold = Threshold.of(self.diagram.shape, t)
        other.graph = self.graph
        return other

    @property
    def shape(self) -> Shape:
        return self.diagram.shape

    @property
    def t(self) -> int:
        return self.threshold.t

    @property
    def rs(self) -> Coord:
        return self.threshold.rs

    def __eq__(self, other):
        return (
            isinstance(other, HPrimeHandle)
            and self.diagram == other.diagram
            and self.threshold == other.threshold
        )

    def __hash__(self):
        return hash((self.diagram, self.threshold))

    def __repr__(self):
        return f"HPrimeHandle({self.diagram.to_inline()!r}, t={self.t})"


# From this many terms on, `sigma` evaluates over the trie of the words.  Of
# the sigma calls of a groebner-check run (4x4, seed 0), 582 of the 583 with
# four or more terms have two terms that begin with the same letter, and
# only 118 of the 17,534 with fewer do; where nothing is shared, the trie
# only adds bookkeeping.
_TRIE_MIN_TERMS = 4


def _image_lookup(handle: HPrimeHandle):
    """image(i, j, e): the path sum of x_{i,j} (e = 1) or its inverse
    (e = -1) at the handle's threshold, as parts {N: {c: n}}: the `weights` or
    `inverse_weights` of gamma(t; i, j) in the graph's family grid, shared
    by every call and handle at that threshold and never mutated."""
    rows = family_grid(handle.graph, handle.t)
    black = handle.diagram.black

    def image(i, j, e):
        fam = rows[i - 1][j - 1]
        if e > 0:
            return fam.weights
        if (i, j) in black:
            raise ValueError("cannot invert the image of a black coordinate")
        return fam.inverse_weights  # a monomial: white at loc

    return image


def _sigma_left_to_right(terms: dict, image) -> dict:
    """sigma of {word: {q-exponent: n}}, as parts {N: {c: n}}, term by
    term: the images of each word's letters (i, j, e), each taken |e|
    times, are multiplied left to right.  A monomial key is such a word."""
    acc: dict = {}
    for word, coeff in terms.items():
        prod = None
        for i, j, e in word:
            factor = image(i, j, 1 if e > 0 else -1)
            for _ in range(abs(e)):
                prod = factor if prod is None else parts_mul(prod, factor)
        for k, parts in ({EMPTY_KEY: {0: 1}} if prod is None else prod).items():
            add_parts(acc, k, parts.items(), coeff.items())
    return acc


def _horner(items: list, depth: int, image) -> dict:
    """sigma of the sum of c w over the (word, coefficient parts) pairs of
    `items`, whose words share their first `depth` letters, without that
    prefix: the coefficients of the words that end here plus, for each next
    letter y, image(y) times the sum over y's subtree.  Each subtree is
    summed, in canonical parts, before its one product, so cancelling
    subtrees are never multiplied.  A subtree of one word is that word's
    product, left to right, times its coefficient."""
    if len(items) == 1:
        word, coeff = items[0]
        return _sigma_left_to_right({word[depth:]: coeff}, image)
    acc: dict = {}
    children: dict = {}
    for word, coeff in items:
        if len(word) == depth:
            add_parts(acc, EMPTY_KEY, coeff.items(), ONE.terms)
        else:
            children.setdefault(word[depth], []).append((word, coeff))
    for y, sub in children.items():
        child = _horner(sub, depth + 1, image)
        if child:
            for k, parts in parts_mul(image(*y), child).items():
                add_parts(acc, k, parts.items(), ONE.terms)
    return acc


def _sigma_trie(terms: dict, image) -> dict:
    """sigma of {key: {q-exponent: n}}, as parts {N: {c: n}}, over the trie
    of the words, right to left (`_horner`)."""
    return _horner([(_unit_letters(key), c) for key, c in terms.items()], 0, image)


def sigma(handle: HPrimeHandle, a: QmPoly) -> TorusElement:
    """Evaluate a polynomial by substituting path sums for generators.

    Work is done on the parts {N: {c: n}} of the path sums' `weights`, and
    one TorusElement holds the result.  The number of terms picks one of two
    routes, which give the same element:
      - four or more terms: over the trie of the terms' words (the letters
        in lexicographic order), right to left.  Each letter's subtree is
        summed, in canonical parts, before it is multiplied by the
        letter's image, so a shared prefix is multiplied once and a
        cancelling subtree not at all.  The k! terms of a quantum minor,
        and their right multiples, share their prefixes;
      - fewer terms (most random samples): term by term, each word's
        images multiplied left to right.
    Localized input is accepted when the localized coordinate is white, so
    that its image is an invertible monomial; the inverse of x_{i,j} is a
    letter of its own.  Images are read off the graph's family grid at the
    threshold (`_image_lookup`).
    """
    if a.shape is not handle.shape and a.shape != handle.shape:
        raise ValueError("shape mismatch")
    if a.threshold is not handle.threshold and a.threshold != handle.threshold:
        raise ValueError("threshold mismatch")
    terms = a._terms
    route = _sigma_trie if len(terms) >= _TRIE_MIN_TERMS else _sigma_left_to_right
    return TorusElement._raw(handle.shape, route(terms, _image_lookup(handle)))


def kernel_member(handle: HPrimeHandle, a: QmPoly) -> bool:
    """Membership in ker(sigma)."""
    return sigma(handle, a).is_zero()


def _check_below_threshold(handle: HPrimeHandle, spec: MinorSpec) -> None:
    spec.check_in_shape(handle.shape)
    if spec.max_coord > handle.rs:
        raise ValueError(
            f"maximum coordinate {spec.max_coord} exceeds threshold {handle.rs}"
        )


def lindstrom_eval(handle: HPrimeHandle, spec: MinorSpec) -> TorusElement:
    """Evaluate a minor as the weight sum over vertex-disjoint path systems.

    Valid only when the minor's maximum coordinate is at most the threshold
    coordinate; sigma(minor_poly(...)) evaluates without that hypothesis.
    """
    _check_below_threshold(handle, spec)
    systems = enumerate_vdps(handle.graph, handle.t, spec.I, spec.J)
    # summed from each member path's (q-exponent, key) in its family
    return TorusElement._raw(handle.shape, systems.weights)


def minor_in_kernel(handle: HPrimeHandle, spec: MinorSpec) -> bool:
    """A minor with maximum coordinate <= (r, s) lies in the kernel exactly
    when its vertex-disjoint path family is empty."""
    _check_below_threshold(handle, spec)
    return not vdps_exists(handle.graph, handle.t, spec.I, spec.J)


def quantum_determinant(shape: Shape, t=None) -> QmPoly:
    if shape.m != shape.n:
        raise ValueError("the quantum determinant needs a square shape")
    n = shape.n
    return minor_poly(
        shape,
        shape.mn if t is None else t,
        MinorSpec.of(range(1, n + 1), range(1, n + 1)),
    )


# ---------------------------------------------------------------------------
# deleting / adding derivations


def _derivation(a: QmPoly, t: int, rs: Coord, sign: int) -> QmPoly:
    """Substitute into the level-t algebra localized at rs = (r, s) the image
    x_{i,j} + sign * x_{i,s} x_{r,s}^{-1} x_{r,j} of each generator northwest
    of (r, s) and the generator itself for every other one.

    Each term's letters are folded left to right into its integer parts
    ({key: {q-exponent: n}}, as `TermSum._terms` stores them), straightened
    at the level-t threshold coordinate; a northwest letter adds the fold of
    the correction, kept in lexicographic order x_{i,s} x_{r,j} x_{r,s}^{-1}
    at the cost of one factor q.  The input is localized at rs or not at
    all, so only x_{r,s} can carry a negative exponent.
    """
    r, s = rs
    target = QmPoly.zero(a.shape, t, loc=rs)
    at = target.threshold.rs
    corr_scale = ((1, sign),)
    acc: dict = {}
    for key, coeff in a._terms.items():
        terms = {EMPTY_KEY: coeff}
        for y in _unit_letters(key):
            i, j, e = y
            out = _fold(at, terms, (y,))
            if e > 0 and i < r and j < s:
                corr = _fold(at, terms, ((i, s, 1), (r, j, 1), (r, s, -1)))
                for k, parts in corr.items():
                    add_parts(out, k, parts.items(), corr_scale)
            terms = out
        for k, parts in terms.items():
            add_parts(acc, k, parts.items(), ONE.terms)
    return target._like(acc)


def dd_forward(a: QmPoly) -> QmPoly:
    """Deleting-derivations image: level t-1 element into the level-t algebra
    localized at its threshold coordinate (r, s).

    Generators northwest of (r, s) map to x_{i,j} - x_{i,s} x_{r,s}^{-1} x_{r,j};
    all others map to themselves.  Input may itself be localized at (r, s).
    """
    t = a.threshold.t + 1
    if t > a.shape.mn:
        raise ValueError("no level above the top threshold")
    rs = a.shape.threshold_coord(t)
    if a.loc is not None and a.loc != rs:
        raise ValueError("input localization must be at the target coordinate")
    return _derivation(a, t, rs, -1)


def dd_backward(a: QmPoly) -> QmPoly:
    """Adding-derivations image: level t element into the level-(t-1) algebra
    localized at (r, s), the t-th coordinate.

    Generators northwest of (r, s) map to y_{i,j} + y_{i,s} y_{r,s}^{-1} y_{r,j};
    all others to themselves.
    """
    t = a.threshold.t
    if t < 2:
        raise ValueError("no level below the bottom threshold")
    rs = a.threshold.rs
    if a.loc is not None and a.loc != rs:
        raise ValueError("input localization must be at the threshold coordinate")
    return _derivation(a, t - 1, rs, 1)


def clear_denominator(a: QmPoly) -> tuple[QmPoly, int]:
    """Right-multiply a localized element by x_loc^h to land in the
    polynomial algebra; returns (polynomial, h)."""
    if a.loc is None:
        return a, 0
    h = 0
    for key in a._terms:
        e = key_entry(key, a.loc)
        if e < 0:
            h = max(h, -e)
    if h == 0:
        return a.as_polynomial(), 0
    factor = QmPoly.generator(a.shape, a.threshold, a.loc, e=h, loc=a.loc)
    return (a * factor).as_polynomial(), h
