"""Sparse polynomials in the time variables T_n with a Laurent slot for the
genus parameter.

A monomial stores an integer exponent of the genus parameter ("lam") plus a
sorted tuple of (index, exponent) pairs for the T variables.  Indices
divisible by r never occur: the reduced hierarchy carries no such times, and
constructors reject them.  The integer weight sum(n * e_n) drives the
grading; the degree-d slice of a polynomial is its weight-d*(r+1) part.

Coefficients are QScalar pairs a + b*s; the polynomial's r says that
s^2 = -r, and polynomials over different r do not combine.  Zero
coefficients are never stored, monomial tuples are always sorted (the
constructor refuses others), and the canonical term order (weight, lam
exponent, exponent sequence) makes equal polynomials identical.

The package's one grading (check_piece), one rule per term: tau_j has
weight j*(r+1), lam exponent j - N on N variables and coefficients in
Q*s^(j mod 2).  A graded tau_j is Packed, the sum of num/den * s^j *
lam^(j-N) * prod T_n^e_n over {exponent key: num}: every piece the package
reads, makes, stores or holds.  A TPolynomial is what a caller hands to
TauExpansion (graded and packed there, once, by pack_piece), the
TauExpansion.pieces view, or a residual.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from typing import Iterable, Mapping, NamedTuple

from .errors import ContextError, ContractError, InvalidIndexError
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


class TMonomial(NamedTuple):
    """Product lam^lambda_exp * prod T_n^e_n, stored canonically."""

    lambda_exp: int
    exps: tuple[tuple[int, int], ...]

    @staticmethod
    def make(lambda_exp: int = 0, exps: Mapping[int, int] | Iterable[tuple[int, int]] = ()) -> TMonomial:
        pairs = dict(exps)
        for n, e in pairs.items():
            if e < 0:
                raise ContractError(f"negative exponent {e} for T_{n}")
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


@lru_cache(maxsize=None)
def exponent_fields(r: int, weight: int) -> tuple[dict[int, int], list[tuple[int, int, int]]]:
    """Bit fields packing a monomial of weight at most `weight` into the int
    sum e_n << shift[n] (Monagan and Pearce, CASC 2007): T_n gets
    (weight // n).bit_length() bits, so adding two keys multiplies two
    monomials, without a carry while the product weighs at most `weight`.
    Returns shift and the (n, width, mask) fields unpack_exponents reads.
    Memoised, so each layout is one object per process, and the raisers
    built over it (walgebra.raise_packed) are shared: do not mutate."""
    shift, fields, at = {}, [], 0
    for n in range(1, weight + 1):
        if n % r:
            width = (weight // n).bit_length()
            shift[n] = at
            fields.append((n, width, (1 << width) - 1))
            at += width
    return shift, fields


# One tuple per distinct (index, exponent) for the whole process: a piece of
# tau holds a few hundred distinct pairs among hundreds of thousands of uses.
_PAIRS: dict[tuple[int, int], tuple[int, int]] = {}


def shared_pair(pair: tuple[int, int]) -> tuple[int, int]:
    """The process's one tuple equal to this (index, exponent) pair."""
    return _PAIRS.setdefault(pair, pair)


def unpack_exponents(key: int, fields: list[tuple[int, int, int]]) -> tuple[tuple[int, int], ...]:
    """The ascending (index, exponent) pairs of a packed key, each the shared_pair."""
    exps, pairs = [], _PAIRS
    for n, width, mask in fields:
        if not key:
            break
        if key & mask:
            pair = n, key & mask
            exps.append(pairs.setdefault(pair, pair))
        key >>= width
    return tuple(exps)


Packed = tuple[dict[int, int], int]  # ({key: num}, den), offset and power of s known to the holder


def packed_rows(exps):
    """The check_piece rows of a packed piece's unpack_exponents: lam None is j - N."""
    return ((None, pairs, 0, 0) for pairs in exps)


def check_piece(r: int, j: int, piece) -> None:
    """Refuse (ContractError) a TPolynomial over another r, or a piece with a
    term that tau_j over this r cannot carry, named with the first rule it
    breaks: ascending positive indices not divisible by r with exponents
    >= 1, weight j*(r+1), a lam exponent j - N, even and >= -2j, on N
    variables, and a coefficient a + b*s in Q*s^(j mod 2).  piece is a
    TPolynomial or rows (lam, exps, a, b): a reader's, or packed_rows.
    This is the package's one grading."""
    if isinstance(piece, TPolynomial):
        if piece.r != r:
            raise ContractError(f"piece {j} built over r={piece.r}, expected {r}")
        piece = ((m.lambda_exp, m.exps, c.a, c.b) for m, c in piece.terms.items())
    weight, odd = j * (r + 1), j % 2
    for lam, exps, a, b in piece:
        total = count = last = 0
        for n, e in exps:
            if n <= last or not n % r or e < 1:
                why = f"T{n}^{e}: indices ascend, are positive, not divisible by {r}; exponents >= 1"
                break
            total += n * e
            count += e
            last = n
        else:
            lam = j - count if lam is None else lam
            if total != weight:
                why = f"weight {total}, expected {weight}"
            elif lam != j - count or lam % 2 or lam < -2 * j:
                why = f"lam exponent {lam} on {count} variables, expected {j - count}, even and >= {-2 * j}"
            elif a if odd else b:
                why = f"coefficient {QScalar(a, b)} outside Q*s^{odd}"
            else:
                continue
        raise ContractError(f"piece {j} has monomial {TMonomial(lam, exps)} off the grading: {why}")


def pack_piece(r: int, j: int, piece: TPolynomial, shift: dict[int, int]) -> Packed:
    """pack_terms of piece once check_piece(r, j, piece) passes (ContractError)."""
    check_piece(r, j, piece)
    odd = j % 2
    return pack_terms(r, j, ((m.exps, c.b if odd else c.a) for m, c in piece.terms.items()), shift)


def pack_terms(r: int, j: int, terms, shift: dict[int, int]) -> Packed:
    """tau_j as numerators over one den of s^j, over the layout shift, from
    its graded terms (exps, x), each x * s^(j mod 2) * lam^(j-N) * prod
    T_n^e_n.  The layout holds weight j*(r+1), as every solve's and check's
    does: a graded monomial then has a field for each index and a key of its own."""
    ratios = {packed_key(exps, shift): x for exps, x in terms}
    # x * s^(j mod 2) = x / (-r)^(j // 2) * s^j
    half = j // 2
    common, sign = lcm(*(x.denominator for x in ratios.values())), (-1) ** half
    for key, x in ratios.items():  # in place: no second dict of the piece
        ratios[key] = sign * x.numerator * (common // x.denominator)
    return reduced(ratios, common * r**half)


def packed_key(exps, shift: dict[int, int]) -> int:
    """The key of a graded monomial's (index, exponent) pairs over the
    layout shift, which has a field for each index."""
    key = 0
    for n, e in exps:
        key += e << shift[n]
    return key


def reduced(nums: dict[int, int], den: int) -> Packed:
    """Drop zero numerators and cancel the common factor."""
    div = gcd(den, *nums.values())
    return {key: c // div for key, c in nums.items() if c}, den // div


def summed(parts, div: int = 1) -> Packed:
    """The sum of (numerators, den) parts, divided by div and reduced; a
    part with a negative den is subtracted."""
    common, total = lcm(*(den for _, den in parts)), {}
    for nums, den in parts:
        scale = common // den
        for key, c in nums.items():
            total[key] = total.get(key, 0) + c * scale
    return reduced(total, common * div)


class TPolynomial:
    """Finite linear combination of TMonomials with QScalar coefficients,
    over a fixed r."""

    __slots__ = ("r", "terms")

    def __init__(self, r: int, terms: Mapping[TMonomial, QScalar] | None = None):
        if not isinstance(r, int) or r < 2:
            raise ContractError(f"r must be an integer >= 2, got {r!r}")
        clean: dict[TMonomial, QScalar] = {}
        for mono, coeff in (terms or {}).items():
            last = 0
            for n, e in mono.exps:
                check_index(r, n)
                if n <= last or e < 1:
                    raise ContractError(f"monomial {mono.exps} is not canonical: indices ascend, exponents are >= 1")
                last = n
            coeff = _coeff(coeff)
            if coeff:
                clean[mono] = coeff
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TPolynomial is immutable")

    def __delattr__(self, name):
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

    def __eq__(self, other) -> bool:
        if not isinstance(other, TPolynomial):
            return NotImplemented
        return self.r == other.r and self.terms == other.terms

    __hash__ = None

    def __add__(self, other):
        if not isinstance(other, TPolynomial):
            return NotImplemented
        return TPolynomial.sum_of(self.r, (self, other))  # ContextError over another r

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
        return " + ".join(f"({coeff})*{mono}" for mono, coeff in self.canonical_terms())

    def __repr__(self) -> str:
        return f"TPolynomial(r={self.r}, {self})"


def kernel_rows(packed: Packed, fields: list[tuple[int, int, int]]) -> tuple[int, list]:
    """The den of a Packed and its rows (key, exps, num), as the kernel reads them."""
    return packed[1], [(key, unpack_exponents(key, fields), num) for key, num in packed[0].items()]


def canonical_rows(offset: int, nums: dict[int, int], fields: list[tuple[int, int, int]]) -> list:
    """The rows (lam, exps, num) of a packed piece's numerators at this offset,
    lam = offset - N on N variables, in canonical order: a packed piece has
    one weight, so (lam, exps) sorts it.  Each key is decoded as
    unpack_exponents decodes it, its variables counted in the same loop."""
    rows, pairs = [], _PAIRS
    for key, num in nums.items():
        exps, count = [], 0
        for n, width, mask in fields:
            if not key:
                break
            e = key & mask
            if e:
                pair = n, e
                exps.append(pairs.setdefault(pair, pair))
                count += e
            key >>= width
        rows.append((offset - count, tuple(exps), num))
    rows.sort()
    return rows


def unpacked(r: int, offset: int, p: int, packed: Packed, fields: list[tuple[int, int, int]]) -> TPolynomial:
    """The polynomial of a Packed at this offset and power of s: num/den *
    s^p * lam^(offset-N) * prod T_n^e_n per key.  The offset and p may be
    negative, as for a constraint residual or a raiser output, and stay exact."""
    unit, zero, terms = Fraction(-r) ** (p // 2), Fraction(0), {}  # s^p / s^(p mod 2)
    num_unit, den = unit.numerator, packed[1] * unit.denominator
    for key, num in packed[0].items():
        if num:
            exps, x = unpack_exponents(key, fields), Fraction(num * num_unit, den)
            terms[TMonomial(offset - sum(e for _, e in exps), exps)] = QScalar(zero, x) if p % 2 else QScalar(x, zero)
    return TPolynomial._raw(r, terms)
