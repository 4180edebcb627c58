"""Interpolating quantum-matrix algebras with straightening normal forms.

For a threshold position t in [mn] with coordinate (r, s), the algebra has
generators x_{i,j} subject to, for every 2x2 submatrix [[a, b], [c, d]]:

    ab = q ba,  cd = q dc,  ac = q ca,  bd = q db,  bc = cb,
    ad = da                        if d = x_{k,l} with (k,l) >  (r,s),
    ad = da + (q - q^{-1}) bc      if d = x_{k,l} with (k,l) <= (r,s).

At t = 1 every diagonal pair commutes (quantum affine space); at t = mn this
is the quantized coordinate ring of m x n matrices.

Elements are kept in lexicographic expression: a finite map from nonnegative
exponent matrices N to scalars, standing for the ordered monomials x^N.
Multiplication works on these exponent keys: a key times one generator is
straightened in a single scan of the key from its largest coordinate down,
each block of equal letters handled in one step.  A product of polynomials
folds that scan over the letters of each right-hand key, for all left terms
at once; coefficients stay integers (or Fractions) until one scalar is built
per result key.  A single coordinate may be localized (inverted); its
exponent is then allowed to go negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .coeff import ONE, LaurentScalar, _norm_coeff, lam_power
from .torus import (
    Coord,
    EMPTY_KEY,
    MonoKey,
    Shape,
    TermSum,
    mono_key,
)


@dataclass(frozen=True)
class Threshold:
    """A position t in [mn] together with its coordinate (the t-th smallest)."""

    t: int
    rs: Coord

    @classmethod
    def of(cls, shape: Shape, t: int) -> "Threshold":
        return cls(t, shape.threshold_coord(t))


# ---------------------------------------------------------------------------
# matrix-lexicographic term order


def matrix_lex_compare(a: MonoKey, b: MonoKey):
    """Compare exponent matrices by their first differing coordinate.

    Returns (cmp, witness): cmp is -1/0/+1 for a < b / a == b / a > b in the
    term order, witness the coordinate where they first differ (None if equal).
    The matrix with the larger entry at the witness is the larger term.
    """
    ia, ib = 0, 0
    while ia < len(a) and ib < len(b):
        ca = (a[ia][0], a[ia][1])
        cb = (b[ib][0], b[ib][1])
        if ca == cb:
            if a[ia][2] != b[ib][2]:
                return (-1 if a[ia][2] < b[ib][2] else 1), ca
            ia += 1
            ib += 1
        elif ca < cb:
            # entry of b at ca is 0
            return (-1 if a[ia][2] < 0 else 1), ca
        else:
            return (1 if b[ib][2] < 0 else -1), cb
    if ia < len(a):
        ca = (a[ia][0], a[ia][1])
        return (-1 if a[ia][2] < 0 else 1), ca
    if ib < len(b):
        cb = (b[ib][0], b[ib][1])
        return (1 if b[ib][2] < 0 else -1), cb
    return 0, None


class _TermKey:
    """Sort adapter: max(keys, key=_TermKey) picks the leading term."""

    __slots__ = ("k",)

    def __init__(self, k: MonoKey):
        self.k = k

    def __lt__(self, other):
        return matrix_lex_compare(self.k, other.k)[0] < 0


def term_divides(a: MonoKey, b: MonoKey) -> bool:
    """Entrywise a <= b (both nonnegative).

    A merge walk over the two sorted keys: each entry of a is compared with
    the entry of b at its coordinate, 0 where b has none.
    """
    k, nb = 0, len(b)
    for i, j, e in a:
        while k < nb and (b[k][0] < i or (b[k][0] == i and b[k][1] < j)):
            k += 1
        if k < nb and b[k][0] == i and b[k][1] == j:
            if e > b[k][2]:
                return False
        elif e > 0:
            return False
    return True


# ---------------------------------------------------------------------------
# grading


@dataclass(frozen=True)
class GradeVector:
    """Row sums and column sums of an exponent matrix."""

    rows: tuple
    cols: tuple

    def __add__(self, other):
        return GradeVector(
            tuple(a + b for a, b in zip(self.rows, other.rows)),
            tuple(a + b for a, b in zip(self.cols, other.cols)),
        )


def grade(shape: Shape, key: MonoKey) -> GradeVector:
    rows = [0] * shape.m
    cols = [0] * shape.n
    for i, j, e in key:
        if e < 0:
            raise ValueError("grade is defined for nonnegative exponents only")
        rows[i - 1] += e
        cols[j - 1] += e
    return GradeVector(tuple(rows), tuple(cols))


@lru_cache(maxsize=None)
def _count_tables(rows: tuple, cols: tuple) -> int:
    """Number of nonnegative integer matrices with given row/column sums."""
    if not rows:
        return 1 if all(c == 0 for c in cols) else 0
    r0, rest = rows[0], rows[1:]
    total = 0

    def place(idx, remaining, cols_acc):
        nonlocal total
        if idx == len(cols_acc) - 1:
            if remaining <= cols_acc[idx]:
                new_cols = list(cols_acc)
                new_cols[idx] -= remaining
                total += _count_tables(rest, tuple(new_cols))
            return
        for e in range(min(remaining, cols_acc[idx]) + 1):
            new_cols = list(cols_acc)
            new_cols[idx] -= e
            place(idx + 1, remaining - e, tuple(new_cols))

    place(0, r0, cols)
    return total


def count_terms_in_grade(gv: GradeVector) -> int:
    return _count_tables(gv.rows, gv.cols)


# ---------------------------------------------------------------------------
# the straightening engine
#
# Work is done on sorted exponent keys.  x^K y for one letter y = (i, j, +-1)
# is straightened in one scan of K from its largest coordinate down: y moves
# left past every block z^e with z > y.  A block in y's row or column costs
# q^(-e * sign(y)); a southwest/northeast pair and a block past rs commute.
# A block z^e southeast of y with z <= rs (or the inverted letter at rs with
# y northwest of it) leaves one correction branch per copy h of z:
#
#     z^e y = y z^e - (q - q^{-1}) sum_h z^(e-1-h) (y_i, z_j) (z_i, y_j) z^h,
#     z^-e y = y z^-e + q^2 (q - q^{-1}) sum_h z^-(e-1-h) (y_i, z_j) (z_i, y_j) z^-2 z^-h.
#
# The correction letters lie below z, so they are inserted recursively into
# the prefix times z^(+-(e-1-h)), and z^(+-h) and the passed suffix are then
# re-attached as they are.  A nested correction happens at a coordinate
# below z, so the recursion is at most mn deep.  Coefficients along a branch
# are kept as {(a, b): n} for n q^a (q - q^{-1})^b until a result key is
# final.


def _accumulate(out, key, coeffs, dq=0, dl=0, sign=1):
    """Add sign q^dq (q - q^{-1})^dl coeffs at key into out, never aliasing."""
    acc = out.get(key)
    if acc is None:
        out[key] = {(qa + dq, lb + dl): n * sign for (qa, lb), n in coeffs.items()}
        return
    for (qa, lb), n in coeffs.items():
        k = (qa + dq, lb + dl)
        acc[k] = acc.get(k, 0) + n * sign


def _reattach(key: MonoKey, i: int, j: int, e: int) -> MonoKey:
    """key x_{i,j}^e for a key with no coordinate past (i, j)."""
    if not e:
        return key
    if key and key[-1][0] == i and key[-1][1] == j:
        e += key[-1][2]
        return key[:-1] + ((i, j, e),) if e else key[:-1]
    return key + ((i, j, e),)


def _insert_letter(rs: Coord, key: MonoKey, y, coeffs, out) -> None:
    """Add coeffs * x^key y, straightened, into out ({key: {(a, b): n}})."""
    yi, yj, ye = y
    shift = 0
    p = len(key)
    while p:
        zi, zj, e = key[p - 1]
        if zi < yi or (zi == yi and zj <= yj):
            break
        if zi == yi or zj == yj:
            shift -= e * ye
        elif zj > yj and (zi, zj) <= rs:
            if e > 0:
                unit, copies, dq, sign = 1, e, shift, -1
                letters = ((yi, zj, 1), (zi, yj, 1))
            else:  # the inverted letter, at rs
                unit, copies, dq, sign = -1, -e, shift + 2, 1
                letters = ((yi, zj, 1), (zi, yj, 1), (zi, zj, -1), (zi, zj, -1))
            prefix, suffix = key[: p - 1], key[p:]
            for h in range(copies):
                start = _reattach(prefix, zi, zj, unit * (copies - 1 - h))
                branch: dict = {}
                _accumulate(branch, start, coeffs, dq, 1, sign)
                for k2, c2 in _fold(rs, branch, letters).items():
                    _accumulate(out, _reattach(k2, zi, zj, unit * h) + suffix, c2)
        p -= 1
    if p and key[p - 1][0] == yi and key[p - 1][1] == yj:
        key = _reattach(key[:p], yi, yj, ye) + key[p:]
    else:
        key = key[:p] + (y,) + key[p:]
    _accumulate(out, key, coeffs, shift)


def _fold(rs: Coord, terms: dict, letters) -> dict:
    """terms ({key: {(a, b): n}}) times the letters, in lexicographic
    expression; equal keys are merged after every letter."""
    for y in letters:
        out: dict = {}
        for key, coeffs in terms.items():
            _insert_letter(rs, key, y, coeffs, out)
        terms = out
    return terms


def _scalars(terms: dict) -> dict[MonoKey, LaurentScalar]:
    """One LaurentScalar per key from its {(a, b): n} parts; zeros dropped."""
    result = {}
    for key, parts in terms.items():
        powers: dict[int, int] = {}
        for (qa, lb), n in parts.items():
            if n:
                for p, m in lam_power(lb).terms:
                    powers[qa + p] = powers.get(qa + p, 0) + n * m
        c = tuple(sorted((p, _norm_coeff(n)) for p, n in powers.items() if n))
        if c:
            result[key] = LaurentScalar._raw(c)
    return result


def straighten_word(rs: Coord, loc: Coord | None, word):
    """Lexicographic expression of a generator word.

    rs: threshold coordinate of the algebra; loc: localized coordinate (not
    before rs) or None; word: iterable of (i, j, +-1) letters with i, j >= 1
    and e = -1 only at loc.  Returns {key: LaurentScalar}.
    """
    if loc is not None and loc < rs:
        raise ValueError(f"localized coordinate {loc} precedes the threshold {rs}")
    word = tuple(word)
    for i, j, e in word:
        if i < 1 or j < 1:
            raise ValueError(f"letter {(i, j, e)}: coordinates must be at least 1")
        if e not in (1, -1):
            raise ValueError(f"letter {(i, j, e)}: exponent must be 1 or -1")
        if e < 0 and (i, j) != loc:
            raise ValueError(f"letter {(i, j, e)}: inverted outside localization {loc}")
    return _scalars(_fold(rs, {EMPTY_KEY: {(0, 0): 1}}, word))


@lru_cache(maxsize=1 << 16)
def _term_mul(rs: Coord, loc: Coord | None, a: MonoKey, b: MonoKey):
    """Cached x^a x^b as (key, scalar) pairs, for the tests and layer tracer."""
    letters = [(i, j, 1 if e > 0 else -1) for i, j, e in b for _ in range(abs(e))]
    return tuple(sorted(_scalars(_fold(rs, {a: {(0, 0): 1}}, letters)).items()))


# ---------------------------------------------------------------------------
# polynomial elements


class QmPoly(TermSum):
    """Element of the threshold-t algebra in lexicographic expression.

    terms: {exponent key: scalar}, all exponents nonnegative except possibly
    at the localized coordinate `loc` (None for the plain polynomial ring).
    """

    __slots__ = ("threshold", "loc")

    LETTER = "x"

    def __init__(self, shape: Shape, t, terms=(), loc: Coord | None = None):
        self.shape = shape
        self.threshold = t if isinstance(t, Threshold) else Threshold.of(shape, t)
        if self.threshold.rs != shape.threshold_coord(self.threshold.t):
            raise ValueError("threshold coordinate inconsistent with shape")
        if loc is not None:
            shape.check_coord(loc)
            if shape.coord_position(loc) < self.threshold.t:
                raise ValueError(
                    "localized coordinate must not precede the threshold coordinate"
                )
        self.loc = loc
        self._set_terms(terms)

    def _check_key(self, key: MonoKey) -> None:
        for i, j, e in key:
            self.shape.check_coord((i, j))
            if e < 0 and (i, j) != self.loc:
                raise ValueError(
                    f"negative exponent at {(i, j)} outside localization"
                )

    def _check_mate(self, other):
        if not isinstance(other, QmPoly):
            raise TypeError("expected a QmPoly")
        if other.shape != self.shape:
            raise ValueError("shape mismatch")
        if other.threshold != self.threshold:
            raise ValueError("threshold mismatch")
        if other.loc != self.loc:
            raise ValueError("localization mismatch")

    def _like(self, terms: dict) -> "QmPoly":
        new = object.__new__(QmPoly)
        new.shape = self.shape
        new.threshold = self.threshold
        new.loc = self.loc
        new._terms = terms
        return new

    def _algebra(self) -> tuple:
        return (self.shape, self.threshold, self.loc)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, shape: Shape, t, loc=None) -> "QmPoly":
        return cls(shape, t, (), loc)

    @classmethod
    def one(cls, shape: Shape, t, loc=None) -> "QmPoly":
        return cls(shape, t, [(EMPTY_KEY, ONE)], loc)

    @classmethod
    def monomial(cls, shape: Shape, t, key: MonoKey, coeff=ONE, loc=None) -> "QmPoly":
        return cls(shape, t, [(key, coeff)], loc)

    @classmethod
    def generator(cls, shape: Shape, t, coord: Coord, e: int = 1, loc=None) -> "QmPoly":
        shape.check_coord(coord)
        return cls(shape, t, [(mono_key([(*coord, e)]), ONE)], loc)

    # -- ring operations ---------------------------------------------------------

    def __mul__(self, other):
        self._check_mate(other)
        rs = self.threshold.rs
        left = {k: {(p, 0): n for p, n in c.terms} for k, c in self._terms.items()}
        acc: dict = {}
        for k2, c2 in other._terms.items():
            letters = [
                (i, j, 1 if e > 0 else -1) for i, j, e in k2 for _ in range(abs(e))
            ]
            for key, parts in _fold(rs, left, letters).items():
                out = acc.setdefault(key, {})
                for (qa, lb), n in parts.items():
                    for p, m in c2.terms:
                        out[qa + p, lb] = out.get((qa + p, lb), 0) + n * m
        return self._like(_scalars(acc))

    # -- order structure ------------------------------------------------------------

    def leading_term(self) -> tuple[MonoKey, LaurentScalar]:
        """Maximal term in the matrix-lexicographic order; error on zero."""
        if not self._terms:
            raise ValueError("the zero element has no leading term")
        key = max(self._terms, key=_TermKey)
        return key, self._terms[key]

    # -- localization ----------------------------------------------------------------

    def with_loc(self, loc: Coord | None) -> "QmPoly":
        """Reinterpret in the (de)localized algebra; exponents must fit."""
        return QmPoly(self.shape, self.threshold, self._terms, loc)

    def as_polynomial(self) -> "QmPoly":
        """Down-cast to the plain polynomial algebra.

        Errors if any localized exponent is negative.
        """
        return self.with_loc(None)

    # -- io -----------------------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "m": self.shape.m,
            "n": self.shape.n,
            "t": self.threshold.t,
            "terms": self._terms_json(),
        }

    @classmethod
    def from_json(cls, data, loc=None) -> "QmPoly":
        shape = Shape(data["m"], data["n"])
        return cls(shape, data["t"], cls._terms_from_json(data["terms"]), loc)


def swap_adjacent(shape: Shape, t, a: Coord, b: Coord) -> QmPoly:
    """Lexicographic expression of the out-of-order product x_a x_b.

    Requires a > b; a == b is rejected.
    """
    shape.check_coord(a)
    shape.check_coord(b)
    if a == b:
        raise ValueError("swap of a generator with itself is undefined")
    if a < b:
        raise ValueError("swap_adjacent expects an out-of-order pair (a > b)")
    th = t if isinstance(t, Threshold) else Threshold.of(shape, t)
    terms = straighten_word(th.rs, None, ((*a, 1), (*b, 1)))
    return QmPoly(shape, th, terms)


def leading_term(a: QmPoly) -> tuple[MonoKey, LaurentScalar]:
    return a.leading_term()
