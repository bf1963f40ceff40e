"""Exact arithmetic in the number field Q(i, sqrt(3)).

Every exact coefficient in this repository lives in the 4-dimensional
Q-vector space spanned by (1, i, sqrt(3), i*sqrt(3)).  This is the smallest
field containing both the imaginary unit (needed for the antisymmetric
eigenpolynomials, whose coefficients are purely imaginary) and the primitive
cube root of unity j = -1/2 + i*sqrt(3)/2 (needed for the three-fold rotation
symmetry of the deltoid domain).

An element is stored as five Python ints, ``ints = (a, b, c, d, q)``, for

    (a + b*i + c*sqrt(3) + d*i*sqrt(3)) / q

with i**2 = -1 and sqrt(3)**2 = 3, in the one canonical form q > 0 and
gcd(a, b, c, d, q) = 1 (zero is (0, 0, 0, 0, 1)), so equal elements have
equal ints, hashes and text.  An operation does int arithmetic over one
common denominator and divides out one multi-argument gcd, where a Fraction
per component pays a gcd each.  ``a`` to ``d`` are read-only Fraction views
of the components, for code off the hot paths.  Field conjugation sends i to
-i, that is (a, b, c, d) -> (a, -b, c, -d).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, sqrt
from typing import Union

Rational = Fraction
RationalLike = Union[int, Fraction]

_SQRT3 = sqrt(3.0)
_ZERO_INTS = (0, 0, 0, 0, 1)
_QZERO = Fraction(0)


def _rational_parts(x: RationalLike) -> tuple[int, int]:
    """(numerator, denominator) of an int or a Fraction; the denominator is > 0."""
    if isinstance(x, (int, Fraction)):
        return x.numerator, x.denominator
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _view(k: int, doc: str) -> property:
    """Read-only Fraction view of component k; a zero component costs no gcd."""
    return property(lambda self: Fraction(self.ints[k], self.ints[4]) if self.ints[k] else _QZERO, doc=doc)


class FieldScalar:
    """Element of Q(i, sqrt(3)) from rational (int or Fraction) components a, b, c, d."""

    __slots__ = ("ints",)

    def __init__(self, a: RationalLike = 0, b: RationalLike = 0,
                 c: RationalLike = 0, d: RationalLike = 0):
        # Over the lcm of reduced denominators the ints are already coprime.
        parts = [_rational_parts(x) for x in (a, b, c, d)]
        q = lcm(*(m for _, m in parts))
        _set_ints(self, tuple(n * (q // m) for n, m in parts) + (q,))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"FieldScalar is immutable; cannot change {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return _scalar, (self.ints,)

    a = _view(0, "Rational part.")
    b = _view(1, "Coefficient of i.")
    c = _view(2, "Coefficient of sqrt(3).")
    d = _view(3, "Coefficient of i*sqrt(3).")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(x: RationalLike) -> "FieldScalar":
        n, m = _rational_parts(x)
        return _scalar((n, 0, 0, 0, m))

    @staticmethod
    def coerce(x: "FieldScalar | RationalLike") -> "FieldScalar":
        return x if isinstance(x, FieldScalar) else FieldScalar.from_rational(x)

    # -- predicates and identity -------------------------------------------

    def __bool__(self) -> bool:
        return self.ints != _ZERO_INTS

    def is_rational(self) -> bool:
        _, b, c, d, _ = self.ints
        return not (b or c or d)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.a

    def __eq__(self, other: object) -> bool:
        return self.ints == other.ints if isinstance(other, FieldScalar) else NotImplemented

    def __hash__(self) -> int:
        return hash(self.ints)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other: "FieldScalar | RationalLike") -> "FieldScalar":
        a1, b1, c1, d1, q1 = self.ints
        a2, b2, c2, d2, q2 = FieldScalar.coerce(other).ints
        if q1 == q2:
            return _reduced(a1 + a2, b1 + b2, c1 + c2, d1 + d2, q1)
        return _reduced(a1 * q2 + a2 * q1, b1 * q2 + b2 * q1,
                        c1 * q2 + c2 * q1, d1 * q2 + d2 * q1, q1 * q2)

    __radd__ = __add__

    def __neg__(self) -> "FieldScalar":
        a, b, c, d, q = self.ints
        return _scalar((-a, -b, -c, -d, q))

    def __sub__(self, other: "FieldScalar | RationalLike") -> "FieldScalar":
        a1, b1, c1, d1, q1 = self.ints
        a2, b2, c2, d2, q2 = FieldScalar.coerce(other).ints
        if q1 == q2:
            return _reduced(a1 - a2, b1 - b2, c1 - c2, d1 - d2, q1)
        return _reduced(a1 * q2 - a2 * q1, b1 * q2 - b2 * q1,
                        c1 * q2 - c2 * q1, d1 * q2 - d2 * q1, q1 * q2)

    def __rsub__(self, other: RationalLike) -> "FieldScalar":
        return FieldScalar.coerce(other) - self

    def __mul__(self, other: "FieldScalar | RationalLike") -> "FieldScalar":
        a1, b1, c1, d1, q1 = self.ints
        if isinstance(other, FieldScalar):
            a2, b2, c2, d2, q2 = other.ints
            if b2 or c2 or d2:
                if b1 or c1 or d1:
                    # The basis (1, i, r, i*r) with r = sqrt(3), r*r = 3.
                    return _reduced(a1 * a2 - b1 * b2 + 3 * (c1 * c2 - d1 * d2),
                                    a1 * b2 + b1 * a2 + 3 * (c1 * d2 + d1 * c2),
                                    a1 * c2 + c1 * a2 - b1 * d2 - d1 * b2,
                                    a1 * d2 + d1 * a2 + b1 * c2 + c1 * b2,
                                    q1 * q2)
                # self is rational: scale other by it.
                a1, b1, c1, d1, q1, a2, q2 = a2, b2, c2, d2, q2, a1, q1
        else:
            a2, q2 = _rational_parts(other)
        return _reduced(a1 * a2, b1 * a2, c1 * a2, d1 * a2, q1 * q2)

    __rmul__ = __mul__

    def inverse(self) -> "FieldScalar":
        a, b, c, d, q = self.ints
        if not (b or c or d):
            if not a:
                raise ZeroDivisionError("inverse of zero in Q(i, sqrt(3))")
            return _scalar((q, 0, 0, 0, a) if a > 0 else (-q, 0, 0, 0, -a))
        # 1/(re + i*im) = (re - i*im) / (re^2 + im^2); the denominator (n0 + n1*sqrt(3))/nq is
        # inverted by its own conjugate: nq*(n0 - n1*sqrt(3)) / (n0^2 - 3*n1^2), never 0/0.
        conj = self.conj()
        n0, _, n1, _, nq = (self * conj).ints  # purely real: b = d = 0
        denom = n0 * n0 - 3 * n1 * n1
        if denom < 0:
            n0, n1, denom = -n0, -n1, -denom
        return conj * _reduced(nq * n0, 0, -nq * n1, 0, denom)

    def __truediv__(self, other: "FieldScalar | RationalLike") -> "FieldScalar":
        return self * FieldScalar.coerce(other).inverse()

    def __rtruediv__(self, other: RationalLike) -> "FieldScalar":
        return FieldScalar.coerce(other) * self.inverse()

    # -- field structure ---------------------------------------------------

    def conj(self) -> "FieldScalar":
        """Field conjugation i -> -i (restriction of complex conjugation)."""
        a, b, c, d, q = self.ints
        return _scalar((a, -b, c, -d, q))

    def to_complex(self) -> complex:
        # int / int is correctly rounded, as float() of the reduced Fraction
        # is, so each component's float has the same bits.
        a, b, c, d, q = self.ints
        return complex(a / q + c / q * _SQRT3, b / q + d / q * _SQRT3)

    # -- canonical text ----------------------------------------------------

    def __str__(self) -> str:
        parts: list[str] = []
        for num, tag in zip(self.ints, ("", "i", "r3", "i*r3")):
            if not num:
                continue
            g = gcd(num, self.ints[4])
            comp = str(num // g) if g == self.ints[4] else f"{num // g}/{self.ints[4] // g}"
            body = comp if not tag else (f"{comp}*{tag}" if comp not in ("1", "-1") else comp[:-1] + tag)
            parts.append(body if not parts or body.startswith("-") else "+" + body)
        return "".join(parts) or "0"

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FieldScalar({self})"


_new = object.__new__
_set_ints = FieldScalar.ints.__set__


def _scalar(ints: tuple[int, int, int, int, int]) -> FieldScalar:
    """The element with these ints, which must already be canonical."""
    x = _new(FieldScalar)
    _set_ints(x, ints)
    return x


def _reduced(a: int, b: int, c: int, d: int, q: int) -> FieldScalar:
    """The element (a + b*i + c*sqrt(3) + d*i*sqrt(3)) / q for q > 0."""
    g = gcd(a, b, c, d, q)
    x = _new(FieldScalar)
    _set_ints(x, (a, b, c, d, q) if g == 1 else (a // g, b // g, c // g, d // g, q // g))
    return x


ZERO = FieldScalar()
ONE = FieldScalar(1)
I = FieldScalar(0, 1)
# Primitive cube root of unity, j = -1/2 + i*sqrt(3)/2.
J = FieldScalar(Fraction(-1, 2), 0, 0, Fraction(1, 2))
JBAR = J.conj()


def j_power(k: int) -> FieldScalar:
    """j**k, reduced mod 3."""
    return (ONE, J, JBAR)[k % 3]
