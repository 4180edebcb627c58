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
Multiplication straightens words by a worklist of out-of-order adjacent
pairs; the default strategy rewrites the rightmost descent first, and a
pluggable strategy hook lets the tests check confluence under randomized
orders.  A single coordinate may be localized (inverted); its exponent is
then allowed to go negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .coeff import ONE, ZERO, LaurentScalar, lam_power, q_power
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


def term_lt(a: MonoKey, b: MonoKey) -> bool:
    return matrix_lex_compare(a, b)[0] < 0


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
# Words are tuples of letters (i, j, e) with e = +1, or e = -1 only at the
# localized coordinate.  A descent is an adjacent pair with strictly
# decreasing coordinates; rewriting a descent swaps it, possibly at the cost
# of a power of q and a correction word.  Each rewrite strictly decreases
# (support matrix in the term order, inversion count), so the worklist
# terminates within a fixed grading component.

_MAX_REWRITES = 10**8


def _find_descent_rightmost(w):
    for k in range(len(w) - 2, -1, -1):
        if (w[k][0], w[k][1]) > (w[k + 1][0], w[k + 1][1]):
            return k
    return -1


def straighten_word(rs: Coord, loc: Coord | None, word, pick=None):
    """Lexicographic expression of a generator word.

    rs: threshold coordinate of the algebra; loc: localized coordinate or
    None; word: iterable of (i, j, +-1) letters (e = -1 only at loc); pick:
    optional strategy choosing which descent to rewrite (defaults to the
    rightmost one).  Returns {key: LaurentScalar}.
    """
    # coefficients along a rewrite branch stay of the form
    # sign * q^a * (q - q^{-1})^b, tracked as an int triple
    out: dict[MonoKey, dict] = {}
    stack = [(1, 0, 0, tuple(word))]
    steps = 0
    while stack:
        steps += 1
        if steps > _MAX_REWRITES:
            raise RuntimeError("straightening did not terminate (bug)")
        sg, qa, lb, w = stack.pop()
        idx = _find_descent_rightmost(w) if pick is None else pick(w)
        if idx < 0:
            key = mono_key(w)
            if loc is None and any(e < 0 for _, _, e in key):
                raise AssertionError("negative exponent outside localization")
            acc = out.setdefault(key, {})
            acc[(qa, lb)] = acc.get((qa, lb), 0) + sg
            continue
        u, v = w[idx], w[idx + 1]
        swapped = w[:idx] + (v, u) + w[idx + 2 :]
        c1 = (u[0], u[1])
        c2 = (v[0], v[1])
        if u[2] == 1 and v[2] == 1:
            if c1[0] == c2[0] or c1[1] == c2[1]:
                stack.append((sg, qa - 1, lb, swapped))
            elif c1[1] < c2[1]:
                # southwest past northeast: they commute
                stack.append((sg, qa, lb, swapped))
            else:
                # c2 northwest of c1 (the quantum-plane diagonal pair)
                stack.append((sg, qa, lb, swapped))
                if c1 <= rs:
                    corr = (
                        w[:idx]
                        + ((c2[0], c1[1], 1), (c1[0], c2[1], 1))
                        + w[idx + 2 :]
                    )
                    stack.append((-sg, qa, lb + 1, corr))
        elif u[2] == -1:
            # u is the inverted letter; c1 == loc > c2
            if c1[0] == c2[0] or c1[1] == c2[1]:
                stack.append((sg, qa + 1, lb, swapped))
            elif c2[1] > c1[1]:
                stack.append((sg, qa, lb, swapped))
            else:
                # c2 northwest of loc
                stack.append((sg, qa, lb, swapped))
                if c1 == rs:
                    r, s = c1
                    corr = (
                        w[:idx]
                        + ((c2[0], s, 1), (r, c2[1], 1), (r, s, -1), (r, s, -1))
                        + w[idx + 2 :]
                    )
                    stack.append((sg, qa + 2, lb + 1, corr))
        else:
            # v is the inverted letter; every c1 > loc q*-commutes with it
            if c1[0] == c2[0] or c1[1] == c2[1]:
                stack.append((sg, qa + 1, lb, swapped))
            else:
                stack.append((sg, qa, lb, swapped))

    result: dict[MonoKey, LaurentScalar] = {}
    for key, parts in out.items():
        c = ZERO
        for (qa, lb), n in parts.items():
            if n:
                c = c + q_power(qa) * lam_power(lb) * n
        if c:
            result[key] = c
    return result


def _key_to_word(key: MonoKey, loc: Coord | None):
    word = []
    for i, j, e in key:
        if e >= 0:
            word.extend([(i, j, 1)] * e)
        else:
            if (i, j) != loc:
                raise ValueError(f"negative exponent at non-localized {(i, j)}")
            word.extend([(i, j, -1)] * (-e))
    return tuple(word)


@lru_cache(maxsize=1 << 16)
def _term_mul(rs: Coord, loc: Coord | None, a: MonoKey, b: MonoKey):
    """Cached normal form of x^a x^b, as a tuple of (key, scalar)."""
    word = _key_to_word(a, loc) + _key_to_word(b, loc)
    return tuple(sorted(straighten_word(rs, loc, word).items()))


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
        acc: dict[MonoKey, LaurentScalar] = {}
        for k1, c1 in self._terms.items():
            for k2, c2 in other._terms.items():
                c12 = c1 * c2
                for key, c in _term_mul(rs, self.loc, k1, k2):
                    s = acc.get(key, ZERO) + c12 * c
                    if s:
                        acc[key] = s
                    elif key in acc:
                        del acc[key]
        return self._like(acc)

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
