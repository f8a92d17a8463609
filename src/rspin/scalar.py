"""Exact coefficients a + b*s: a pair of rationals.

The grading puts every coefficient of the tau expansion and of the free
energy in Q or in Q*s, with s^2 = -r.  The package computes with packed
integer numerators over one denominator (tpoly.Packed), never with
coefficients: a QScalar is only the value a TPolynomial view holds, or
conversion_constant's, compared, hashed and printed.  It has no
arithmetic, and it does not need to know r.  There is no floating point
anywhere; equality means exact equality of reduced fractions.
"""

from __future__ import annotations

from fractions import Fraction


class QScalar:
    """Immutable a + b*s, built as QScalar(a, b) from reduced Fractions, so
    equal values have identical representations.  Not a tuple, so it has
    no tuple arithmetic or ordering."""

    __slots__ = ("a", "b")

    def __init__(self, a: Fraction, b: Fraction):
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)

    def __setattr__(self, name, value):
        raise AttributeError("QScalar is immutable")

    def __delattr__(self, name):
        raise AttributeError("QScalar is immutable")

    def __eq__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        return self.a == other.a and self.b == other.b

    def __hash__(self) -> int:
        return hash((self.a, self.b))

    def __repr__(self) -> str:
        return f"QScalar(a={self.a!r}, b={self.b!r})"

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __str__(self) -> str:
        a, b = self.a, self.b
        term = "" if not b else "s" if b == 1 else "-s" if b == -1 else f"{b}*s"
        if not a:
            return term or "0"
        return f"{a} - {term[1:]}" if term[:1] == "-" else f"{a} + {term}" if term else str(a)
