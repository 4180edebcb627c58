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
at once.  Coefficients are integer (or Fraction) parts throughout, in the
{q-exponent: n} form `TermSum` stores; only `straighten_word` and
`_term_mul` return scalars.  A single coordinate may be localized
(inverted); its exponent is then allowed to go negative.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .coeff import ONE, LaurentScalar
from .torus import (
    Coord,
    EMPTY_KEY,
    MonoKey,
    Shape,
    TermSum,
    add_parts,
    check_exponents,
    mono_key,
    to_scalar,
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


_END = ((1,),)


def lex_key(key: MonoKey) -> tuple:
    """Sort key of an integer exponent key in the matrix-lexicographic term
    order: the key with the larger entry at the first coordinate where two
    keys differ sorts last.  Exponents may have either sign.

    An entry (i, j, e) becomes (1, -i, -j, e) when e > 0 and (0, i, j, e)
    when e < 0, and every key ends in (1,).  Tuples compare at the first
    position where they differ, which is where the first differing
    coordinate c is met:
    - both keys have an entry at c: same sign, so the larger e sorts last;
      opposite signs, so the positive one, which leads with 1, sorts last;
    - one key has an entry e at c = (i, j), the other its next entry at a
      later coordinate (k, l), so a zero at c: with e > 0 the first sorts
      last, since (1, -i, -j, e) beats (1, -k, -l, ...) and every
      (0, ...); with e < 0 it sorts first, since (0, i, j, e) loses to
      (0, k, l, ...) and every (1, ...);
    - one key has an entry e at c, the other has ended, so a zero at c:
      with e > 0 its (1, -i, -j, e) sorts after the end's (1,), of which
      it is an extension; with e < 0 its (0, i, j, e) sorts before (1,).
    """
    return tuple([(1, -i, -j, e) if e > 0 else (0, i, j, e) for i, j, e in key]) + _END


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
    return _place_row(rows[1:], 0, rows[0], cols)


def _place_row(rest: tuple, idx: int, remaining: int, cols: tuple) -> int:
    """Number of tables with row sums `rest` under the first row, summed over
    the ways to spread `remaining` of that row over the columns idx, ...;
    `cols` holds the column sums still to fill."""
    if idx == len(cols) - 1:
        if remaining > cols[idx]:
            return 0
        new_cols = list(cols)
        new_cols[idx] -= remaining
        return _count_tables(rest, tuple(new_cols))
    total = 0
    for e in range(min(remaining, cols[idx]) + 1):
        new_cols = list(cols)
        new_cols[idx] -= e
        total += _place_row(rest, idx + 1, remaining - e, tuple(new_cols))
    return total


def count_terms_in_grade(gv: GradeVector) -> int:
    return _count_tables(gv.rows, gv.cols)


# ---------------------------------------------------------------------------
# the straightening engine
#
# Work is done on sorted exponent keys, each carrying the integer parts
# {q-exponent: n} that `TermSum._terms` stores.  x^K y for one letter
# y = (i, j, +-1) is straightened in one scan of K from its largest
# coordinate down: y moves left past every block z^e with z > y.  A block in
# y's row or column costs q^(-e * sign(y)); a southwest/northeast pair and a
# block past rs commute.  A block z^e southeast of y with z <= rs (or the
# inverted letter at rs with y northwest of it) leaves one correction branch
# per copy h of z:
#
#     z^e y = y z^e - (q - q^{-1}) sum_h z^(e-1-h) (y_i, z_j) (z_i, y_j) z^h,
#     z^-e y = y z^-e + q^2 (q - q^{-1}) sum_h z^-(e-1-h) (y_i, z_j) (z_i, y_j) z^-2 z^-h.
#
# The correction letters lie below z, so they are inserted recursively into
# the prefix times z^(+-(e-1-h)), and z^(+-h) and the passed suffix are then
# re-attached as they are.  For e > 0 both letters share a row or a column
# with z, so each passes z^k for q^(-k): copy h is the prefix's fold times
# z^(e-1), shifted by q^(-2(e-1-h)), and the e copies are one fold of the
# prefix whose parts carry (q - q^{-1})(1 + q^-2 + ... + q^-2(e-1)) =
# q - q^(1-2e).  The inverted letter folds once per copy.  A nested
# correction happens at a coordinate below z, so the recursion is at most
# mn deep.  The branch coefficient times the incoming parts is multiplied
# out once per fold; neighbouring exponents can cancel there, and every
# merge drops zero parts and keys left with none, so results are canonical
# parts.
# Parts handed in are read, never mutated: they may be an operand's own.


def _lam_times(parts: dict, dq: int, sign: int, e: int = 1) -> dict:
    """sign q^dq (q - q^{-1}) (1 + q^-2 + ... + q^-2(e-1)) parts, that is
    sign q^dq (q - q^(1-2e)) parts, with zero parts dropped."""
    out: dict = {}
    low = dq + 1 - 2 * e
    for p, n in parts.items():
        out[p + dq + 1] = out.get(p + dq + 1, 0) + sign * n
        out[p + low] = out.get(p + low, 0) - sign * n
    return {p: n for p, n in out.items() if n}


def _reattach(key: MonoKey, i: int, j: int, e: int) -> MonoKey:
    """key x_{i,j}^e for a key with no coordinate past (i, j)."""
    if not e:
        return key
    if key and key[-1][0] == i and key[-1][1] == j:
        e += key[-1][2]
        return key[:-1] + ((i, j, e),) if e else key[:-1]
    return key + ((i, j, e),)


def _insert_letter(rs: Coord, key: MonoKey, y, parts: dict, out: dict) -> None:
    """Add parts * x^key y, straightened, into out ({key: {q-exponent: n}})."""
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
            prefix, suffix = key[: p - 1], key[p:]
            if e > 0:
                # every copy lands on the prefix's fold times z^(e-1): one
                # fold, with the copies' q-shifts summed into its parts
                lam = _lam_times(parts, shift, -1, e)
                for k2, c2 in _fold(rs, {prefix: lam}, ((yi, zj, 1), (zi, yj, 1))).items():
                    add_parts(out, _reattach(k2, zi, zj, e - 1) + suffix,
                              c2.items(), ONE.terms)
            else:  # the inverted letter, at rs
                lam = _lam_times(parts, shift + 2, 1)
                letters = ((yi, zj, 1), (zi, yj, 1), (zi, zj, -1), (zi, zj, -1))
                for h in range(-e):
                    start = _reattach(prefix, zi, zj, e + 1 + h)
                    for k2, c2 in _fold(rs, {start: lam}, letters).items():
                        add_parts(out, _reattach(k2, zi, zj, -h) + suffix,
                                  c2.items(), ONE.terms)
        p -= 1
    if p and key[p - 1][0] == yi and key[p - 1][1] == yj:
        e = key[p - 1][2] + ye
        key = key[: p - 1] + ((yi, yj, e),) + key[p:] if e else key[: p - 1] + key[p:]
    else:
        key = key[:p] + (y,) + key[p:]
    acc = out.get(key)
    if acc is None:
        out[key] = {q + shift: n for q, n in parts.items()} if shift else parts.copy()
        return
    for q, n in parts.items():
        q += shift
        v = acc.get(q, 0) + n
        if v:
            acc[q] = v
        else:
            del acc[q]
    if not acc:
        del out[key]


def _unit_letters(key: MonoKey) -> tuple:
    """The letters (i, j, +-1) of x^key, in lexicographic order: each
    (i, j, e) repeated |e| times."""
    return tuple(
        [(i, j, 1 if e > 0 else -1) for i, j, e in key for _ in range(abs(e))]
    )


def _fold(rs: Coord, terms: dict, letters) -> dict:
    """terms ({key: {q-exponent: n}}, canonical) times the letters, in
    lexicographic expression; equal keys are merged after every letter.
    The result is canonical and shares no parts with terms, except that
    terms itself comes back when there are no letters."""
    for y in letters:
        out: dict = {}
        for key, parts in terms.items():
            _insert_letter(rs, key, y, parts, out)
        terms = out
    return terms


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
    terms = _fold(rs, {EMPTY_KEY: {0: 1}}, word)
    return {key: to_scalar(parts) for key, parts in terms.items()}


@lru_cache(maxsize=1 << 16)
def _term_mul(rs: Coord, loc: Coord | None, a: MonoKey, b: MonoKey):
    """Cached x^a x^b as (key, scalar) pairs, for the tests and layer tracer."""
    terms = _fold(rs, {a: {0: 1}}, _unit_letters(b))
    return tuple(sorted((key, to_scalar(parts)) for key, parts in terms.items()))


# ---------------------------------------------------------------------------
# polynomial elements


class QmPoly(TermSum):
    """Element of the threshold-t algebra in lexicographic expression.

    Exponents are nonnegative except possibly at the localized coordinate
    `loc` (None for the plain polynomial ring).
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
        check_exponents(key)
        for i, j, e in key:
            self.shape.check_coord((i, j))
            if e < 0 and (i, j) != self.loc:
                raise ValueError(
                    f"negative exponent at {(i, j)} outside localization"
                )

    def _check_mate(self, other):
        if not isinstance(other, QmPoly):
            raise TypeError("expected a QmPoly")
        if other.shape is not self.shape and other.shape != self.shape:
            raise ValueError("shape mismatch")
        if other.threshold is not self.threshold and other.threshold != self.threshold:
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
        acc: dict = {}
        for k2, c2 in other._terms.items():
            scale = c2.items()
            for key, parts in _fold(rs, self._terms, _unit_letters(k2)).items():
                add_parts(acc, key, parts.items(), scale)
        return self._like(acc)

    # -- order structure ------------------------------------------------------------

    def leading_term(self) -> tuple[MonoKey, LaurentScalar]:
        """Maximal term in the matrix-lexicographic order; error on zero."""
        if not self._terms:
            raise ValueError("the zero element has no leading term")
        key = max(self._terms, key=lex_key)
        return key, to_scalar(self._terms[key])

    # -- localization ----------------------------------------------------------------

    def with_loc(self, loc: Coord | None) -> "QmPoly":
        """Reinterpret in the (de)localized algebra; exponents must fit."""
        new = QmPoly(self.shape, self.threshold, (), loc)
        for key in self._terms:
            new._check_key(key)
        new._terms = self._terms
        return new

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


def times_monomial(a: QmPoly, key: MonoKey) -> dict:
    """The product a x^key in the parts format of `TermSum._terms`; for the
    empty key, a's own parts, shared and not to be mutated."""
    return _fold(a.threshold.rs, a._terms, _unit_letters(key))


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
