"""Exact scalars: Laurent polynomials in the quantum parameter q over Q.

Every identity in this package is an exact polynomial identity in q, so
coefficients are exact rationals and q stays symbolic.  Integer coefficients
are stored as plain ints, everything else as ``fractions.Fraction``.
"""

from __future__ import annotations

from fractions import Fraction


def _norm_coeff(c):
    """Coerce to an exact rational, preferring plain int; bool is refused."""
    if isinstance(c, int) and not isinstance(c, bool):
        return c
    if isinstance(c, Fraction):
        return int(c) if c.denominator == 1 else c
    raise TypeError(f"coefficient must be int or Fraction, got {type(c).__name__}")


class LaurentScalar:
    """Immutable Laurent polynomial in q with rational coefficients.

    Canonical form: a sorted tuple of (power, coeff) pairs with no zero
    coefficient.  Equality, hashing and all arithmetic act on this form.
    """

    __slots__ = ("_t", "_h")

    def __init__(self, terms=()):
        if isinstance(terms, dict):
            terms = terms.items()
        acc: dict[int, object] = {}
        for p, c in terms:
            if not isinstance(p, int) or isinstance(p, bool):
                raise TypeError("powers of q must be integers")
            c = _norm_coeff(c)
            s = acc.get(p, 0) + c
            if s:
                acc[p] = s
            elif p in acc:
                del acc[p]
        self._t = tuple(sorted(acc.items()))
        self._h = None

    @classmethod
    def _raw(cls, t):
        # internal: t is already canonical
        self = object.__new__(cls)
        self._t = t
        self._h = None
        return self

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentScalar":
        return _ZERO

    @classmethod
    def one(cls) -> "LaurentScalar":
        return _ONE

    @classmethod
    def from_int(cls, n) -> "LaurentScalar":
        n = _norm_coeff(n)
        return cls._raw(((0, n),)) if n else _ZERO

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> tuple:
        """Canonical (power, coeff) pairs, sorted by power."""
        return self._t

    def is_zero(self) -> bool:
        return not self._t

    def as_monomial(self):
        """Return (power, coeff) if this is a single term, else None."""
        if len(self._t) == 1:
            return self._t[0]
        return None

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not other._t:
            return self
        if not self._t:
            return other
        acc = dict(self._t)
        for p, c in other._t:
            s = acc.get(p, 0) + c
            if s:
                acc[p] = s
            else:
                del acc[p]
        return LaurentScalar._raw(tuple(sorted(acc.items())))

    __radd__ = __add__

    def __neg__(self):
        return LaurentScalar._raw(tuple((p, -c) for p, c in self._t))

    def __sub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if not self._t or not other._t:
            return _ZERO
        if other._t == ((0, 1),):
            return self
        if self._t == ((0, 1),):
            return other
        acc: dict[int, object] = {}
        for p1, c1 in self._t:
            for p2, c2 in other._t:
                p = p1 + p2
                s = acc.get(p, 0) + c1 * c2
                if s:
                    acc[p] = s
                elif p in acc:
                    del acc[p]
        return LaurentScalar._raw(tuple(sorted(acc.items())))

    __rmul__ = __mul__

    def inverse(self) -> "LaurentScalar":
        """Multiplicative inverse; defined only for monomials c*q^p."""
        m = self.as_monomial()
        if m is None:
            raise ValueError("only monomial scalars are invertible")
        p, c = m
        return LaurentScalar._raw(((-p, _norm_coeff(Fraction(1, 1) / c)),))

    # -- comparison / hashing ------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LaurentScalar):
            other = _coerce(other)
            if other is NotImplemented:
                return NotImplemented
        return self._t == other._t

    def __hash__(self):
        if self._h is None:
            self._h = hash(self._t)
        return self._h

    def __bool__(self):
        return bool(self._t)

    # -- io -------------------------------------------------------------------

    def to_json(self) -> list:
        """[[power, numerator, denominator], ...] sorted by power."""
        out = []
        for p, c in self._t:
            f = Fraction(c)
            out.append([p, f.numerator, f.denominator])
        return out

    @classmethod
    def from_json(cls, data) -> "LaurentScalar":
        return cls((p, Fraction(num, den)) for p, num, den in data)

    def __repr__(self):
        if not self._t:
            return "0"
        bits = []
        for p, c in self._t:
            if p == 0:
                s = str(c)
            else:
                qs = "q" if p == 1 else f"q^{p}"
                if c == 1:
                    s = qs
                elif c == -1:
                    s = "-" + qs
                else:
                    s = f"{c}*{qs}"
            bits.append(s)
        out = bits[0]
        for s in bits[1:]:
            out += " - " + s[1:] if s.startswith("-") else " + " + s
        return out


def _coerce(x):
    if isinstance(x, LaurentScalar):
        return x
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return LaurentScalar.from_int(x)
    return NotImplemented


_ZERO = LaurentScalar._raw(())
_ONE = LaurentScalar._raw(((0, 1),))

ZERO = _ZERO
ONE = _ONE


def q_power(e: int) -> LaurentScalar:
    """The monomial q^e."""
    if not isinstance(e, int) or isinstance(e, bool):
        raise TypeError("exponent must be an integer")
    return LaurentScalar._raw(((e, 1),))


Q = q_power(1)
Q_INV = q_power(-1)

#: q - q^{-1}, the coefficient of every straightening correction term.
LAM = Q - Q_INV

