"""The m-by-n quantum torus.

Elements are finite sums of normal-ordered Laurent monomials t^N, where N is
an integer exponent matrix indexed by the grid [m] x [n] and the generators
q-commute: t_a t_b = q^c t_b t_a with c = +1 when a is due west or due north
of b, -1 mirrored, 0 when both row and column differ.

Exponent matrices are stored sparsely as sorted tuples of (i, j, e) triples
("keys"); normal order is the lexicographic order on coordinates, smallest
leftmost.  The q-exponent of a reordering is computed by a closed bilinear
form over support pairs, which the test suite validates against literal
adjacent transpositions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

from .coeff import ONE, LaurentScalar, _norm_coeff, q_power

Coord = tuple[int, int]
MonoKey = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class Shape:
    """Grid dimensions.  m, n >= 2 unless constructed with relaxed=True."""

    m: int
    n: int
    relaxed: bool = field(default=False, compare=False, repr=False)

    def __post_init__(self):
        for dim in (self.m, self.n):
            if dim.__class__ is not int:
                raise TypeError(
                    f"shape dimensions must be integers, not {dim.__class__.__name__}"
                )
        if self.m < 1 or self.n < 1:
            raise ValueError("shape dimensions must be positive")
        if not self.relaxed and (self.m < 2 or self.n < 2):
            raise ValueError("m, n >= 2 required (pass relaxed=True to allow 1)")

    @property
    def mn(self) -> int:
        return self.m * self.n

    def coords(self) -> tuple:
        """All coordinates in lexicographic order, a tuple built on first use."""
        return self._coords

    @cached_property
    def _coords(self) -> tuple:
        return tuple(self._threshold_coords.values())

    def contains(self, coord: Coord) -> bool:
        """Whether an int coordinate lies in the grid.  Any other entry,
        a bool or a float equal to an int included, is a TypeError."""
        i, j = coord
        if i.__class__ is not int or j.__class__ is not int:
            bad = j if i.__class__ is int else i
            raise TypeError(
                f"coordinate {coord}: entries must be integers, not {bad.__class__.__name__}"
            )
        return 1 <= i <= self.m and 1 <= j <= self.n

    def check_coord(self, coord: Coord) -> Coord:
        if not self.contains(coord):
            raise ValueError(f"coordinate {coord} outside {self.m}x{self.n} grid")
        return coord

    def threshold_coord(self, t: int) -> Coord:
        """The t-th smallest coordinate, t in [mn], read from a table built
        on first use.  Only an int is a threshold: a bool, float or Fraction
        equal to one would pass the lookup and end up in JSON output."""
        if t.__class__ is not int:
            raise TypeError(
                f"threshold must be an integer, not {t.__class__.__name__}"
            )
        rs = self._threshold_coords.get(t)
        if rs is None:
            raise ValueError(f"threshold {t} outside [1, {self.mn}]")
        return rs

    @cached_property
    def _threshold_coords(self) -> dict:
        n = self.n
        return {t: ((t - 1) // n + 1, (t - 1) % n + 1) for t in range(1, self.mn + 1)}

    def coord_position(self, coord: Coord) -> int:
        """Inverse of threshold_coord."""
        i, j = self.check_coord(coord)
        return (i - 1) * self.n + j


def pair_commutation(a: Coord, b: Coord) -> int:
    """c with t_a t_b = q^c t_b t_a for distinct coordinates a, b."""
    if a == b:
        raise ValueError("self-commutation exponent is undefined")
    ai, aj = a
    bi, bj = b
    if ai == bi:
        return 1 if aj < bj else -1
    if aj == bj:
        return 1 if ai < bi else -1
    return 0


# ---------------------------------------------------------------------------
# sparse exponent keys


def mono_key(items) -> MonoKey:
    """Canonicalize (i, j, e) triples: merge duplicates, drop zeros, sort."""
    acc: dict[Coord, int] = {}
    for i, j, e in items:
        s = acc.get((i, j), 0) + e
        if s:
            acc[(i, j)] = s
        elif (i, j) in acc:
            del acc[(i, j)]
    return tuple((i, j, e) for (i, j), e in sorted(acc.items()))


EMPTY_KEY: MonoKey = ()


def key_add(a: MonoKey, b: MonoKey) -> MonoKey:
    """The key of a + b, by one merge walk over the two sorted keys.

    Entries at a coordinate both keys have are summed, and dropped when
    they cancel; every other entry is its input's own (i, j, e) triple,
    shared rather than rebuilt, and an empty operand returns the other key
    itself.  Equal to `mono_key(a + b)` without its dict and sort.
    """
    if not a:
        return b
    if not b:
        return a
    out = []
    append = out.append
    x = y = 0
    na, nb = len(a), len(b)
    while x < na and y < nb:
        u, v = a[x], b[y]
        if u[0] == v[0] and u[1] == v[1]:
            e = u[2] + v[2]
            if e:
                append((u[0], u[1], e))
            x += 1
            y += 1
        elif u < v:
            append(u)
            x += 1
        else:
            append(v)
            y += 1
    return tuple(out) + a[x:] + b[y:]


def key_neg(a: MonoKey) -> MonoKey:
    return tuple((i, j, -e) for i, j, e in a)


def key_entry(key: MonoKey, coord: Coord) -> int:
    for i, j, e in key:
        if (i, j) == coord:
            return e
    return 0


def key_in_shape(key: MonoKey, shape: Shape) -> bool:
    return all(shape.contains((i, j)) for i, j, _ in key)


def check_exponents(key: MonoKey) -> None:
    """TypeError unless every exponent of the key is an int (not a bool)."""
    for i, j, e in key:
        if e.__class__ is not int:
            raise TypeError(
                f"exponent at {(i, j)}: must be an integer, not {e.__class__.__name__}"
            )


def commutation_form(a: MonoKey, b: MonoKey) -> int:
    """Bilinear form giving t^a t^b = q^form t^(a+b).

    Sums e_u * e_v * pair_commutation(u, v) over support pairs u in a, v in b
    with u lexicographically greater than v (the pairs a normal-ordering pass
    actually transposes).  Such a pair counts only when u and v share a row
    (v to the west) or a column (v to the north), each time with -1, so one
    merge walk keeps the running sums of b's entries strictly before u in
    u's row and per column, and the form is -sum(e_u * (row + column sum)).
    Strict order keeps a == b right (`monomial_inverse`).
    """
    total = 0
    cols = {}
    row, row_sum = None, 0
    y, nb = 0, len(b)
    for ai, aj, ae in a:
        while y < nb:
            bi, bj, be = b[y]
            if bi > ai or (bi == ai and bj >= aj):
                break
            cols[bj] = cols.get(bj, 0) + be
            if bi == row:
                row_sum += be
            else:
                row, row_sum = bi, be
            y += 1
        s = cols.get(aj, 0)
        if row == ai:
            s += row_sum
        total -= ae * s
    return total


@lru_cache(maxsize=1 << 18)
def monomial_mul(a: MonoKey, b: MonoKey) -> tuple[int, MonoKey]:
    """Normal-ordered product: returns (c, a+b) with t^a t^b = q^c t^(a+b)."""
    return commutation_form(a, b), key_add(a, b)


def monomial_inverse(a: MonoKey) -> tuple[int, MonoKey]:
    """(c, -a) with (t^a)^{-1} = q^c t^{-a}."""
    return commutation_form(a, a), key_neg(a)


# ---------------------------------------------------------------------------
# sparse term sums


def add_parts(acc: dict, key, parts, scale, shift: int = 0) -> None:
    """acc[key] += parts * scale * q^shift, on the {q-exponent: n} parts of
    a term sum; parts and scale are given as (q-exponent, n) pairs with no
    zero n.  Zero parts are dropped, and so is a key left with none."""
    out = acc.get(key)
    if out is None:
        out = acc[key] = {}
    for p, m in parts:
        p += shift
        for sp, sn in scale:
            v = out.get(p + sp, 0) + m * sn
            if v:
                out[p + sp] = v
            else:
                del out[p + sp]
    if not out:
        del acc[key]


def parts_mul(left: dict, right: dict) -> dict:
    """The canonical parts of the product of two torus sums given by their
    canonical parts {key: {q-exponent: n}}, sharing none of theirs."""
    acc: dict = {}
    for k1, c1 in left.items():
        for k2, c2 in right.items():
            e, k = monomial_mul(k1, k2)
            add_parts(acc, k, c1.items(), c2.items(), e)
    return acc


def to_scalar(parts: dict) -> LaurentScalar:
    """The LaurentScalar of nonzero {q-exponent: n} parts."""
    return LaurentScalar._raw(tuple(sorted((p, _norm_coeff(n)) for p, n in parts.items())))


class TermSum:
    """Finite sum of n q^c t^N (or x^N) in canonical form: `_terms` maps
    each exponent key to the parts of its coefficient, {q-exponent: n} with
    n an int or Fraction, no zero n and no empty inner dict.  Term loops
    merge parts with `add_parts`; LaurentScalars are built only where
    callers see them (`terms`, `repr`, JSON).  Parts are never mutated once
    an element holds them, so results may share them with operands.

    The arithmetic that does not depend on the algebra lives here.  A
    subclass names its algebra: it sets its attributes, validates keys in
    `_check_key`, checks operands in `_check_mate`, builds a result in the
    same algebra in `_like`, returns its attributes from `_algebra` for
    equality and hashing, sets `LETTER`, the generator letter `repr` prints,
    and defines `__mul__` in its own body.
    """

    __slots__ = ("shape", "_terms")

    def _set_terms(self, terms) -> None:
        """Canonicalize (key, coeff) pairs or a dict into `_terms`."""
        if isinstance(terms, dict):
            terms = terms.items()
        acc: dict = {}
        for key, coeff in terms:
            if not isinstance(coeff, LaurentScalar):
                coeff = LaurentScalar.from_int(coeff)
            self._check_key(key)
            add_parts(acc, key, coeff.terms, ONE.terms)
        self._terms = acc

    @property
    def terms(self) -> dict:
        """{key: LaurentScalar}, built afresh on each read."""
        return {key: to_scalar(parts) for key, parts in self._terms.items()}

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self):
        return len(self._terms)

    def __bool__(self):
        return bool(self._terms)

    def sorted_terms(self):
        return sorted(self.terms.items())

    def __add__(self, other):
        self._check_mate(other)
        acc = {key: dict(parts) for key, parts in self._terms.items()}
        for key, parts in other._terms.items():
            add_parts(acc, key, parts.items(), ONE.terms)
        return self._like(acc)

    def __neg__(self):
        return self.scale(-1)

    def __sub__(self, other):
        self._check_mate(other)
        return self + (-other)

    def scale(self, coeff):
        if not isinstance(coeff, LaurentScalar):
            coeff = LaurentScalar.from_int(coeff)
        acc: dict = {}
        for key, parts in self._terms.items():
            add_parts(acc, key, parts.items(), coeff.terms)
        return self._like(acc)

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._algebra() == other._algebra() and self._terms == other._terms

    def __hash__(self):
        return hash((*self._algebra(), tuple(self.sorted_terms())))

    def _terms_json(self) -> list:
        return [
            {"N": [[i, j, e] for i, j, e in key], "coeff": c.to_json()}
            for key, c in self.sorted_terms()
        ]

    @staticmethod
    def _terms_from_json(data) -> list:
        return [
            (mono_key((i, j, e) for i, j, e in item["N"]),
             LaurentScalar.from_json(item["coeff"]))
            for item in data
        ]

    def __repr__(self):
        if not self._terms:
            return "0"
        letter = self.LETTER
        bits = []
        for key, c in self.sorted_terms():
            mono = "".join(
                f"{letter}[{i},{j}]" + (f"^{e}" if e != 1 else "")
                for i, j, e in key
            )
            cs = repr(c)
            if mono == "":
                bits.append(cs)
            elif cs == "1":
                bits.append(mono)
            else:
                bits.append(f"({cs})*{mono}")
        return " + ".join(bits)


# ---------------------------------------------------------------------------
# torus elements


class TorusElement(TermSum):
    """Finite sum of Laurent monomials coeff * t^N in canonical form."""

    __slots__ = ()

    LETTER = "t"

    def __init__(self, shape: Shape, terms=()):
        self.shape = shape
        self._set_terms(terms)

    def _check_key(self, key: MonoKey) -> None:
        if not key_in_shape(key, self.shape):
            raise ValueError(
                f"key {key} outside shape {self.shape.m}x{self.shape.n}"
            )
        check_exponents(key)

    def _check_mate(self, other):
        if not isinstance(other, TorusElement):
            raise TypeError("expected a TorusElement")
        if other.shape is not self.shape and other.shape != self.shape:
            raise ValueError("shape mismatch")

    def _like(self, terms: dict) -> "TorusElement":
        return TorusElement._raw(self.shape, terms)

    def _algebra(self) -> tuple:
        return (self.shape,)

    @classmethod
    def _raw(cls, shape, terms: dict) -> "TorusElement":
        self = object.__new__(cls)
        self.shape = shape
        self._terms = terms
        return self

    @classmethod
    def zero(cls, shape: Shape) -> "TorusElement":
        return cls._raw(shape, {})

    @classmethod
    def one(cls, shape: Shape) -> "TorusElement":
        return cls._raw(shape, {EMPTY_KEY: {0: 1}})

    @classmethod
    def monomial(cls, shape: Shape, key: MonoKey, coeff=ONE) -> "TorusElement":
        return cls(shape, [(key, coeff)])

    def __mul__(self, other):
        self._check_mate(other)
        return self._like(parts_mul(self._terms, other._terms))

    def as_monomial(self):
        """(key, coeff) if this is a single term, else None."""
        if len(self._terms) == 1:
            ((key, parts),) = self._terms.items()
            return key, to_scalar(parts)
        return None

    def inverse(self) -> "TorusElement":
        """Inverse of a single-monomial element with unit coefficient."""
        m = self.as_monomial()
        if m is None:
            raise ValueError("only monomial torus elements are invertible here")
        key, coeff = m
        e, nk = monomial_inverse(key)
        return self._like({nk: dict((coeff.inverse() * q_power(e)).terms)})

    def to_json(self) -> list:
        return self._terms_json()

    @classmethod
    def from_json(cls, shape: Shape, data) -> "TorusElement":
        return cls(shape, cls._terms_from_json(data))


def t_gen(shape: Shape, i: int, j: int, e: int = 1) -> TorusElement:
    """The generator t_{i,j}^e as a torus element."""
    shape.check_coord((i, j))
    return TorusElement.monomial(shape, mono_key([(i, j, e)]))


def torus_product(shape: Shape, factors) -> TorusElement:
    """Left-to-right product of torus elements."""
    out = TorusElement.one(shape)
    for f in factors:
        out = out * f
    return out
