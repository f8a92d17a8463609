"""Exact scalars a + b*s over the rationals, with s^2 = -r.

The coefficients of the tau expansion and of the free energy live in the
quadratic extension Q(sqrt(-r)): odd-degree tau coefficients carry odd
powers of s, and the change to descendant variables divides them away
again.  There is no floating point anywhere; equality means exact equality
of reduced fractions.  The W-mode tables and the raisers are rational: the
grading gives each operator one power of -r*s, which the W-mode kernel
applies to its integer numerators itself.  Nothing here divides by a
general scalar.

s denotes a different number for every r, so each value carries its r and
mixing values from different r contexts raises instead of coercing.

The grading puts every tau coefficient in Q or in Q*s, so one component of
almost every operand is zero.  The arithmetic is written for that case:
a product with a rational-only or s-only operand forms only its nonzero
component products, a product with an int or Fraction scales the two
components directly, and sums and negation pass zero components through.
Mixed operands take the full formula.  Results are built without re-checking
r, which the operands already carry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContextError

RationalLike = int | Fraction


def _frac(x: RationalLike) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


@dataclass(frozen=True, slots=True)
class QScalar:
    """Immutable element a + b*s of Q(s), s^2 = -r.

    Fractions are always stored reduced with positive denominator, so equal
    values have identical representations.
    """

    r: int
    a: Fraction
    b: Fraction

    def __post_init__(self):
        if not isinstance(self.r, int) or self.r < 2:
            raise ValueError(f"r must be an integer >= 2, got {self.r!r}")

    @classmethod
    def of(cls, r: int, a: RationalLike = 0, b: RationalLike = 0) -> QScalar:
        return cls(r, _frac(a), _frac(b))

    @classmethod
    def root(cls, r: int) -> QScalar:
        """The generator s = sqrt(-r) itself."""
        return cls(r, Fraction(0), Fraction(1))

    @property
    def is_zero(self) -> bool:
        return not self.a and not self.b

    @property
    def is_rational(self) -> bool:
        """True iff the s-component vanishes."""
        return not self.b

    def __add__(self, other):
        r = self.r
        if isinstance(other, QScalar):
            if other.r != r:
                raise _mismatch(self, other)
            a1, b1, a2, b2 = self.a, self.b, other.a, other.b
            return _make(
                r,
                a1 + a2 if a1 and a2 else a1 or a2,
                b1 + b2 if b1 and b2 else b1 or b2,
            )
        if isinstance(other, (int, Fraction)):
            return _make(r, self.a + other if other else self.a, self.b)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> QScalar:
        a, b = self.a, self.b
        return _make(self.r, -a if a else a, -b if b else b)

    def __sub__(self, other):
        if isinstance(other, (QScalar, int, Fraction)):
            return self + -other
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, (int, Fraction)):
            return -self + other
        return NotImplemented

    def __mul__(self, other):
        r, a1, b1 = self.r, self.a, self.b
        if isinstance(other, QScalar):
            if other.r != r:
                raise _mismatch(self, other)
            # (a1 + b1 s)(a2 + b2 s) = (a1 a2 - r b1 b2) + (a1 b2 + a2 b1) s;
            # only the products of nonzero components are formed.
            a2, b2 = other.a, other.b
            if not b2:
                return _make(r, a1 * a2 if a1 else a1, b1 * a2 if b1 else b1)
            if not a2:
                return _make(r, b1 * b2 * -r if b1 else b1, a1 * b2 if a1 else a1)
            if not b1:
                return _make(r, a1 * a2, a1 * b2)
            if not a1:
                return _make(r, b1 * b2 * -r, a2 * b1)
            return _make(r, a1 * a2 - r * b1 * b2, a1 * b2 + a2 * b1)
        if isinstance(other, (int, Fraction)):
            return _make(r, a1 * other if a1 else a1, b1 * other if b1 else b1)
        return NotImplemented

    __rmul__ = __mul__

    def __bool__(self) -> bool:
        return not self.is_zero

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        parts = []
        if self.a:
            parts.append(str(self.a))
        if self.b:
            if self.b == 1:
                term = "s"
            elif self.b == -1:
                term = "-s"
            else:
                term = f"{self.b}*s"
            if parts and not term.startswith("-"):
                parts.append(f"+ {term}")
            elif parts:
                parts.append(f"- {term[1:]}")
            else:
                parts.append(term)
        return " ".join(parts)


_new_scalar = object.__new__
_set_r, _set_a, _set_b = (QScalar.__dict__[name].__set__ for name in ("r", "a", "b"))


def _mismatch(x: QScalar, y: QScalar) -> ContextError:
    return ContextError(f"cannot combine scalars over r={x.r} and r={y.r}")


def _make(r: int, a: Fraction, b: Fraction) -> QScalar:
    """QScalar(r, a, b) without the check of r: the operands it is computed
    from were already checked."""
    out = _new_scalar(QScalar)
    _set_r(out, r)
    _set_a(out, a)
    _set_b(out, b)
    return out
