"""Exact coefficients a + b*s: a pair of rationals.

The grading puts every coefficient of the tau expansion and of the free
energy in Q or in Q*s, with s^2 = -r.  No path multiplies two such
coefficients: the W-mode kernel applies the powers of -r*s to its own
integer numerators, and the graded log runs on rationals.  So a
coefficient only adds, negates and scales by rationals, and it does not
need to know r; the polynomial that holds it does.  There is no floating
point anywhere; equality means exact equality of reduced fractions.

The grading makes one component of almost every operand zero, so sums,
negation and scaling pass zero components through instead of forming
Fraction operations on them.
"""

from __future__ import annotations

from fractions import Fraction


class QScalar:
    """Immutable a + b*s, built as QScalar(a, b) from reduced Fractions, so
    equal values have identical representations.  The product of two
    scalars is not defined: it would need r.  Not a tuple, so it has no
    tuple arithmetic or ordering."""

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

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    def __add__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        a1, b1, a2, b2 = self.a, self.b, other.a, other.b
        return QScalar(a1 + a2 if a1 and a2 else a1 or a2, b1 + b2 if b1 and b2 else b1 or b2)

    def __neg__(self) -> QScalar:
        a, b = self.a, self.b
        return QScalar(-a if a else a, -b if b else b)

    def __sub__(self, other):
        if not isinstance(other, QScalar):
            return NotImplemented
        return self + -other

    def __mul__(self, other):
        """Scaling by an int or a Fraction."""
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        a, b = self.a, self.b
        return QScalar(a * other if a else a, b * other if b else b)

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        a, b = self.a, self.b
        term = "" if not b else "s" if b == 1 else "-s" if b == -1 else f"{b}*s"
        if not a:
            return term or "0"
        return f"{a} - {term[1:]}" if term[:1] == "-" else f"{a} + {term}" if term else str(a)
