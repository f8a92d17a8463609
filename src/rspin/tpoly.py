"""Sparse polynomials in the time variables T_n with a Laurent slot for the
genus parameter.

A monomial stores an integer exponent of the genus parameter ("lam") plus a
sorted tuple of (index, exponent) pairs for the T variables.  Indices
divisible by r never occur: the reduced hierarchy carries no such times, and
constructors reject them.  The integer weight sum(n * e_n) drives the
grading; the degree-d slice of a polynomial is its weight-d*(r+1) part.

Coefficients are QScalar pairs a + b*s; the polynomial's r says that
s^2 = -r, and polynomials over different r do not combine.  Zero
coefficients are never stored, monomial tuples are always sorted, and the
canonical term order (weight, lam exponent, exponent sequence) makes the
representation of equal polynomials identical.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import ContextError, InvalidIndexError
from .scalar import QScalar

CoeffLike = QScalar | int | Fraction


def _coeff(c: CoeffLike) -> QScalar:
    if isinstance(c, QScalar):
        return c
    if isinstance(c, (int, Fraction)):
        return QScalar(Fraction(c), Fraction(0))
    raise TypeError(f"expected QScalar, int or Fraction, got {type(c).__name__}")


def check_index(r: int, n: int) -> None:
    """Reject variable indices outside the reduced hierarchy."""
    if not isinstance(n, int) or n < 1:
        raise InvalidIndexError(f"variable index must be a positive integer, got {n!r}")
    if n % r == 0:
        raise InvalidIndexError(f"variable index {n} is divisible by r={r}")


@dataclass(frozen=True)
class TMonomial:
    """Product lam^lambda_exp * prod T_n^e_n, stored canonically."""

    lambda_exp: int
    exps: tuple[tuple[int, int], ...]

    @staticmethod
    def make(lambda_exp: int = 0, exps: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> TMonomial:
        pairs = dict(exps)
        for n, e in pairs.items():
            if e < 0:
                raise ValueError(f"negative exponent {e} for T_{n}")
        items = tuple(sorted((n, e) for n, e in pairs.items() if e))
        return TMonomial(lambda_exp, items)

    @property
    def weight(self) -> int:
        return sum(n * e for n, e in self.exps)

    def sort_key(self):
        return (self.weight, self.lambda_exp, self.exps)

    def __str__(self) -> str:
        parts = [f"T{n}" if e == 1 else f"T{n}^{e}" for n, e in self.exps]
        if self.lambda_exp:
            parts.append(f"lam^{self.lambda_exp}")
        return "*".join(parts) if parts else "1"


ONE_MONOMIAL = TMonomial(0, ())
_ONE = QScalar(Fraction(1), Fraction(0))


def exponent_fields(r: int, weight: int) -> tuple[dict[int, int], list[tuple[int, int, int]]]:
    """Bit fields packing a monomial of weight at most `weight` into the int
    sum e_n << shift[n] (Monagan and Pearce, CASC 2007): T_n gets
    (weight // n).bit_length() bits, so adding two keys multiplies two
    monomials, without a carry while the product weighs at most `weight`.
    Returns shift and the (n, width, mask) fields unpack_exponents reads."""
    shift, fields, at = {}, [], 0
    for n in range(1, weight + 1):
        if n % r:
            width = (weight // n).bit_length()
            shift[n] = at
            fields.append((n, width, (1 << width) - 1))
            at += width
    return shift, fields


def unpack_exponents(key: int, fields: list[tuple[int, int, int]]) -> tuple[tuple[int, int], ...]:
    """The ascending (index, exponent) pairs of a packed key."""
    exps = []
    for n, width, mask in fields:
        if not key:
            break
        if key & mask:
            exps.append((n, key & mask))
        key >>= width
    return tuple(exps)


class TPolynomial:
    """Finite linear combination of TMonomials with QScalar coefficients,
    over a fixed r."""

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: Mapping[TMonomial, QScalar] | None = None):
        if not isinstance(r, int) or r < 2:
            raise ValueError(f"r must be an integer >= 2, got {r!r}")
        clean: dict[TMonomial, QScalar] = {}
        for mono, coeff in (terms or {}).items():
            for n, _ in mono.exps:
                check_index(r, n)
            coeff = _coeff(coeff)
            if coeff:
                clean[mono] = coeff
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TPolynomial is immutable")

    @classmethod
    def _raw(cls, r: int, terms: dict[TMonomial, QScalar]) -> TPolynomial:
        # Internal fast path: caller guarantees canonical, validated terms.
        poly = cls.__new__(cls)
        object.__setattr__(poly, "r", r)
        object.__setattr__(poly, "terms", terms)
        return poly

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls, r: int) -> TPolynomial:
        return cls._raw(r, {})

    @classmethod
    def one(cls, r: int) -> TPolynomial:
        return cls._raw(r, {ONE_MONOMIAL: _ONE})

    @classmethod
    def const(cls, r: int, c: CoeffLike) -> TPolynomial:
        return cls(r, {ONE_MONOMIAL: c})

    @classmethod
    def var(cls, r: int, n: int) -> TPolynomial:
        check_index(r, n)
        return cls._raw(r, {TMonomial(0, ((n, 1),)): _ONE})

    @classmethod
    def monomial(
        cls,
        r: int,
        coeff: CoeffLike,
        lambda_exp: int = 0,
        exps: Mapping[int, int] | Iterable[tuple[int, int]] = (),
    ) -> TPolynomial:
        return cls(r, {TMonomial.make(lambda_exp, exps): coeff})

    @classmethod
    def sum_of(cls, r: int, polys: Iterable[TPolynomial]) -> TPolynomial:
        acc: dict[TMonomial, QScalar] = {}
        for p in polys:
            if p.r != r:
                raise ContextError(f"summand over r={p.r} in sum over r={r}")
            for mono, coeff in p.terms.items():
                prev = acc.get(mono)
                new = coeff if prev is None else prev + coeff
                if new:
                    acc[mono] = new
                elif prev is not None:
                    del acc[mono]
        return cls._raw(r, acc)

    # -- predicates and views -------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __len__(self) -> int:
        return len(self.terms)

    def canonical_terms(self) -> list[tuple[TMonomial, QScalar]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def max_weight(self) -> int:
        """Largest monomial weight, 0 for the zero polynomial."""
        return max((m.weight for m in self.terms), default=0)

    def is_homogeneous(self, weight: int) -> bool:
        return all(m.weight == weight for m in self.terms)

    # -- arithmetic ------------------------------------------------------

    def _check_same(self, other: TPolynomial) -> None:
        if self.r != other.r:
            raise ContextError(f"cannot combine polynomials over r={self.r} and r={other.r}")

    def __eq__(self, other) -> bool:
        if not isinstance(other, TPolynomial):
            return NotImplemented
        return self.r == other.r and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, TPolynomial):
            return NotImplemented
        self._check_same(other)
        return TPolynomial.sum_of(self.r, (self, other))

    def __neg__(self) -> TPolynomial:
        return TPolynomial._raw(self.r, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if not isinstance(other, TPolynomial):
            return NotImplemented
        return self + (-other)

    def scaled(self, c: int | Fraction) -> TPolynomial:
        if not c:
            return TPolynomial.zero(self.r)
        return TPolynomial._raw(self.r, {m: coeff * c for m, coeff in self.terms.items()})

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        chunks = []
        for mono, coeff in self.canonical_terms():
            chunks.append(f"({coeff})*{mono}")
        return " + ".join(chunks)

    def __repr__(self) -> str:
        return f"TPolynomial(r={self.r}, {self})"
