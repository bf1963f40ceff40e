"""Exact arithmetic in the number field Q(i, sqrt(3)).

Every exact coefficient in this repository lives in the 4-dimensional
Q-vector space spanned by (1, i, sqrt(3), i*sqrt(3)).  This is the smallest
field containing both the imaginary unit (needed for the antisymmetric
eigenpolynomials, whose coefficients are purely imaginary) and the primitive
cube root of unity j = -1/2 + i*sqrt(3)/2 (needed for the three-fold rotation
symmetry of the deltoid domain).

An element is stored as rational components (a, b, c, d) representing

    a + b*i + c*sqrt(3) + d*i*sqrt(3)

with i**2 = -1 and sqrt(3)**2 = 3.  Field conjugation sends i to -i, that is
(a, b, c, d) -> (a, -b, c, -d).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

Rational = Fraction
RationalLike = Union[int, Fraction]

_SQRT3 = math.sqrt(3.0)


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


_QZERO = Fraction(0)

# Products of the basis (1, i, sqrt(3), i*sqrt(3)): e_j * e_k = factor * e_m
# is stored as _BASIS_PRODUCT[j][k] = (m, factor).
_BASIS_PRODUCT = (
    ((0, 1), (1, 1), (2, 1), (3, 1)),
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((2, 1), (3, 1), (0, 3), (1, 3)),
    ((3, 1), (2, -1), (1, 3), (0, -3)),
)


def _plus(x: Fraction, y: Fraction) -> Fraction:
    if not y:
        return x
    return x + y if x else y


def _minus(x: Fraction, y: Fraction) -> Fraction:
    if not y:
        return x
    return x - y if x else -y


@dataclass(frozen=True, slots=True)
class FieldScalar:
    """Element a + b*i + c*sqrt(3) + d*i*sqrt(3) of Q(i, sqrt(3))."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)
    c: Fraction = Fraction(0)
    d: Fraction = Fraction(0)

    # -- constructors ------------------------------------------------------

    @staticmethod
    def from_rational(x: RationalLike) -> "FieldScalar":
        return FieldScalar(_frac(x))

    @staticmethod
    def coerce(x: "FieldScalar | RationalLike") -> "FieldScalar":
        if isinstance(x, FieldScalar):
            return x
        return FieldScalar(_frac(x))

    # -- predicates --------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.a or self.b or self.c or self.d)

    def is_rational(self) -> bool:
        return not (self.b or self.c or self.d)

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return self.a

    # -- ring operations ---------------------------------------------------
    #
    # Most operands in the exact layers are rational or have one nonzero
    # component, so every operation below skips zero components instead of
    # paying a Fraction product or sum for them.  A skipped component is
    # still the zero Fraction, so results print exactly as the full formula's.

    def __add__(self, other: "FieldScalar | RationalLike") -> "FieldScalar":
        o = FieldScalar.coerce(other)
        return FieldScalar(_plus(self.a, o.a), _plus(self.b, o.b),
                           _plus(self.c, o.c), _plus(self.d, o.d))

    __radd__ = __add__

    def __neg__(self) -> "FieldScalar":
        return FieldScalar(-self.a, -self.b, -self.c, -self.d)

    def __sub__(self, other: "FieldScalar | RationalLike") -> "FieldScalar":
        o = FieldScalar.coerce(other)
        return FieldScalar(_minus(self.a, o.a), _minus(self.b, o.b),
                           _minus(self.c, o.c), _minus(self.d, o.d))

    def __rsub__(self, other: RationalLike) -> "FieldScalar":
        return FieldScalar.coerce(other) - self

    def __mul__(self, other: "FieldScalar | RationalLike") -> "FieldScalar":
        if isinstance(other, FieldScalar):
            if other.is_rational():
                scale, x = other.a, self
            elif self.is_rational():
                scale, x = self.a, other
            else:
                return self._mul_irrational(other)
        else:
            scale, x = _frac(other), self
        if not scale:
            return ZERO
        a, b, c, d = x.a, x.b, x.c, x.d
        return FieldScalar(a and a * scale, b and b * scale,
                           c and c * scale, d and d * scale)

    __rmul__ = __mul__

    def _mul_irrational(self, other: "FieldScalar") -> "FieldScalar":
        """The product of two irrational elements, one term per nonzero pair."""
        out = [_QZERO, _QZERO, _QZERO, _QZERO]
        right = [(k, y) for k, y in enumerate((other.a, other.b, other.c, other.d)) if y]
        for j, x in enumerate((self.a, self.b, self.c, self.d)):
            if not x:
                continue
            row = _BASIS_PRODUCT[j]
            for k, y in right:
                m, factor = row[k]
                term = x * y
                if factor != 1:
                    term = -term if factor == -1 else factor * term
                out[m] = out[m] + term if out[m] else term
        return FieldScalar(*out)

    def inverse(self) -> "FieldScalar":
        if not self:
            raise ZeroDivisionError("inverse of zero in Q(i, sqrt(3))")
        if self.is_rational():
            return FieldScalar(1 / self.a)
        # 1/(re + i*im) = (re - i*im) / (re^2 + im^2); the denominator lies
        # in Q(sqrt(3)) and is inverted by its own conjugate.
        conj = self.conj()
        norm = self * conj  # purely real: b = d = 0
        n0, n1 = norm.a, norm.c
        denom = n0 * n0 - 3 * n1 * n1
        if denom == 0:
            raise ZeroDivisionError("norm degenerates; element is zero")
        inv0 = n0 / denom
        inv1 = -n1 / denom
        scale = FieldScalar(inv0, Fraction(0), inv1, Fraction(0))
        return conj * scale

    def __truediv__(self, other: "FieldScalar | RationalLike") -> "FieldScalar":
        return self * FieldScalar.coerce(other).inverse()

    def __rtruediv__(self, other: RationalLike) -> "FieldScalar":
        return FieldScalar.coerce(other) * self.inverse()

    # -- field structure ---------------------------------------------------

    def conj(self) -> "FieldScalar":
        """Field conjugation i -> -i (restriction of complex conjugation)."""
        return FieldScalar(self.a, -self.b, self.c, -self.d)

    def to_complex(self) -> complex:
        return complex(
            float(self.a) + float(self.c) * _SQRT3,
            float(self.b) + float(self.d) * _SQRT3,
        )

    # -- canonical text ----------------------------------------------------

    def __str__(self) -> str:
        parts: list[str] = []
        for comp, tag in ((self.a, ""), (self.b, "i"), (self.c, "r3"), (self.d, "i*r3")):
            if comp == 0:
                continue
            body = str(comp) if not tag else (f"{comp}*{tag}" if abs(comp) != 1 else ("-" + tag if comp < 0 else tag))
            if not parts:
                parts.append(body)
            elif body.startswith("-"):
                parts.append("-" + body[1:])
            else:
                parts.append("+" + body)
        if not parts:
            return "0"
        return "".join(
            p if i == 0 else (p[0] + p[1:]) for i, p in enumerate(parts)
        )

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"FieldScalar({self})"


ZERO = FieldScalar()
ONE = FieldScalar(Fraction(1))
I = FieldScalar(Fraction(0), Fraction(1))
# Primitive cube root of unity, j = -1/2 + i*sqrt(3)/2.
J = FieldScalar(Fraction(-1, 2), Fraction(0), Fraction(0), Fraction(1, 2))
JBAR = J.conj()


def j_power(k: int) -> FieldScalar:
    """j**k, reduced mod 3."""
    k %= 3
    if k == 0:
        return ONE
    if k == 1:
        return J
    return JBAR
