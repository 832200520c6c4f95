"""Exact arithmetic in the real quadratic field Q(phi), phi = (1 + sqrt 5)/2.

Every value is a + b*phi with rational a and b, stored in the basis
{1, phi}; products fold back into that basis through phi^2 = phi + 1.
With Cartan-normalized roots every finite Coxeter group with bond labels
up to 6 has its bilinear form, Cartan matrix and roots in this field:
the crystallographic types need only rationals, and H3, H4 and I2(5)
need cos(pi/5) = phi/2.  The root system build computes on integer
pairs and takes their signs and order with phi_sign alone; FieldScalar
is the reference arithmetic that the tests and verify compare against.

Comparisons are exact: a + b*phi has the sign of 2a + b + b*sqrt(5),
which is decided by comparing (2a + b)^2 with 5b^2.
"""

from __future__ import annotations

import math
from fractions import Fraction

_Q0 = Fraction(0)
_Q1 = Fraction(1)


def phi_sign(a, b) -> int:
    """-1, 0, or +1: the sign of a + b*phi, for ints or rationals a and b.

    2(a + b*phi) = p + b*sqrt(5) with p = 2a + b.  When p and b do not
    have opposite signs the sum has their sign; otherwise the larger of
    p^2 and 5b^2 decides.
    """
    p = 2 * a + b
    if not b:
        return (p > 0) - (p < 0)
    if p * b >= 0:
        return 1 if b > 0 else -1
    gap = p * p - 5 * b * b
    return 1 if (gap > 0) == (p > 0) else -1


class FieldScalar:
    """An element a + b*phi of Q(phi), stored as the two rationals (a, b).

    Instances are immutable and hashable.  Arithmetic never leaves the
    field; division by an exact zero raises ZeroDivisionError.

    >>> PHI * PHI == PHI + 1
    True
    >>> (PHI - Fraction(8, 5)).sign(), (PHI - Fraction(13, 8)).sign()
    (1, -1)
    """

    __slots__ = ("coords",)

    def __init__(self, coords: tuple):
        self.coords = coords

    # ------------------------------------------------------------------
    # constructors

    @staticmethod
    def from_rational(num, den=1) -> FieldScalar:
        """The rational number num/den as a field element."""
        return FieldScalar((Fraction(num, den), _Q0))

    @staticmethod
    def coerce(value) -> FieldScalar:
        """Accept a FieldScalar, int, or exact rational."""
        if isinstance(value, FieldScalar):
            return value
        return FieldScalar((Fraction(value), _Q0))

    # ------------------------------------------------------------------
    # structure queries

    def __bool__(self) -> bool:
        return bool(self.coords[0] or self.coords[1])

    # ------------------------------------------------------------------
    # ring operations

    def __add__(self, other) -> FieldScalar:
        if not isinstance(other, FieldScalar):
            other = FieldScalar.coerce(other)
        a, b = self.coords
        c, d = other.coords
        return FieldScalar((a + c, b + d))

    __radd__ = __add__

    def __sub__(self, other) -> FieldScalar:
        if not isinstance(other, FieldScalar):
            other = FieldScalar.coerce(other)
        a, b = self.coords
        c, d = other.coords
        return FieldScalar((a - c, b - d))

    def __rsub__(self, other) -> FieldScalar:
        return FieldScalar.coerce(other) - self

    def __neg__(self) -> FieldScalar:
        a, b = self.coords
        return FieldScalar((-a, -b))

    def __mul__(self, other) -> FieldScalar:
        if not isinstance(other, FieldScalar):
            other = FieldScalar.coerce(other)
        a, b = self.coords
        c, d = other.coords
        if not d:
            return FieldScalar((a * c, b * c))
        if not b:
            return FieldScalar((a * c, a * d))
        # (a + b phi)(c + d phi) with phi^2 = phi + 1
        bd = b * d
        return FieldScalar((a * c + bd, a * d + b * c + bd))

    __rmul__ = __mul__

    def invert(self) -> FieldScalar:
        """Multiplicative inverse.  Raises ZeroDivisionError on zero.

        The Galois conjugate of a + b*phi is (a + b) - b*phi, and their
        product is the rational norm a^2 + ab - b^2, nonzero unless both
        coordinates are, since sqrt(5) is irrational.
        """
        a, b = self.coords
        if not b:
            if not a:
                raise ZeroDivisionError("inverse of zero field element")
            return FieldScalar((1 / a, _Q0))
        norm = a * a + a * b - b * b
        return FieldScalar(((a + b) / norm, -b / norm))

    def __truediv__(self, other) -> FieldScalar:
        if isinstance(other, FieldScalar):
            return self * other.invert()
        q = Fraction(other)
        return FieldScalar((self.coords[0] / q, self.coords[1] / q))

    def __rtruediv__(self, other) -> FieldScalar:
        return FieldScalar.coerce(other) * self.invert()

    # ------------------------------------------------------------------
    # exact comparisons

    def sign(self) -> int:
        """-1, 0, or +1, decided exactly by phi_sign."""
        return phi_sign(*self.coords)

    def __eq__(self, other) -> bool:
        if isinstance(other, FieldScalar):
            return self.coords == other.coords
        if isinstance(other, (int, Fraction)):
            return not self.coords[1] and self.coords[0] == other
        return NotImplemented

    def __hash__(self):
        return hash(self.coords)

    def __lt__(self, other) -> bool:
        return (self - FieldScalar.coerce(other)).sign() < 0

    def __le__(self, other) -> bool:
        return (self - FieldScalar.coerce(other)).sign() <= 0

    def __gt__(self, other) -> bool:
        return (self - FieldScalar.coerce(other)).sign() > 0

    def __ge__(self, other) -> bool:
        return (self - FieldScalar.coerce(other)).sign() >= 0

    # ------------------------------------------------------------------
    # conversions and display

    def __float__(self) -> float:
        a, b = self.coords
        return float(a) + float(b) * (1 + math.sqrt(5)) / 2

    def __repr__(self) -> str:
        a, b = self.coords
        if not b:
            return str(a)
        phi = "phi" if b == 1 else "-phi" if b == -1 else f"{b}*phi"
        if not a:
            return phi
        return f"{a} - {phi[1:]}" if phi.startswith("-") else f"{a} + {phi}"


ZERO = FieldScalar.from_rational(0)
ONE = FieldScalar.from_rational(1)
PHI = FieldScalar((_Q0, _Q1))

