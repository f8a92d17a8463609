"""Monomials in the time variables T_n with a Laurent slot for the genus
parameter, and the packed pieces every integer path of the package runs on.

A monomial stores an integer exponent of the genus parameter ("lam") plus a
sorted tuple of (index, exponent) pairs for the T variables.  Indices
divisible by r never occur: the reduced hierarchy carries no such times, and
constructors reject them.  The integer weight sum(n * e_n) drives the
grading; the degree-d slice of a polynomial is its weight-d*(r+1) part.

The package's one grading (check_piece), one rule per term: tau_j has
weight j*(r+1), lam exponent j - N on N variables and coefficients in
Q*s^(j mod 2).  A graded tau_j is Packed, the sum of num/den * s^j *
lam^(j-N) * prod T_n^e_n over {exponent key: num}: every piece the package
reads, makes, stores or holds, and every residual of verify (at any offset
and power of s, both equal, both maybe negative).

The TPolynomial view and its QScalar coefficients live in scalar, which
pack_piece never imports (it reads .r and .terms) and check_piece imports
only to word a refusal: a packed run loads neither scalar nor fractions.
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .errors import ContractError, InvalidIndexError


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


def check_piece(r: int, j: int, rows) -> None:
    """Refuse (ContractError) a piece with a term that tau_j over this r
    cannot carry, named with the first rule it breaks: ascending positive
    indices not divisible by r with exponents >= 1, weight j*(r+1), a lam
    exponent j - N, even and >= -2j, on N variables, and a coefficient
    a + b*s in Q*s^(j mod 2).  rows are (lam, exps, a, b): a reader's,
    pack_piece's, or packed_rows.  This is the package's one grading."""
    weight, odd = j * (r + 1), j % 2
    for lam, exps, a, b in rows:
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
                from .scalar import QScalar  # only to word the refusal

                why = f"coefficient {QScalar(a, b)} outside Q*s^{odd}"
            else:
                continue
        raise ContractError(f"piece {j} has monomial {TMonomial(lam, exps)} off the grading: {why}")


def pack_piece(r: int, j: int, piece, shift: dict[int, int]) -> Packed:
    """pack_terms of a caller's scalar.TPolynomial tau_j once it is over r and
    check_piece grades its terms (ContractError)."""
    if piece.r != r:
        raise ContractError(f"piece {j} built over r={piece.r}, expected {r}")
    check_piece(r, j, ((m.lambda_exp, m.exps, c.a, c.b) for m, c in piece.terms.items()))
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
