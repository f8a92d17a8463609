"""The package's fraction-valued forms: exact coefficients a + b*s, the
TPolynomial view, and the reader of a tau document's fraction text.

The package computes with packed integer numerators over one denominator
(tpoly.Packed), never with coefficients.  A QScalar, a pair of reduced
rationals with s^2 = -r, is only the value a TPolynomial holds, spelled
by tpoly.coefficient_text.  A TPolynomial is only a view: what a caller
hands to TauExpansion (packed there by tpoly.pack_piece) and what
TauExpansion.pieces returns (unpacked), with no zero coefficient and
sorted monomials only.
Neither has arithmetic, and equality is exact.  Only those readers and
parse_tau (_read_piece) import this module: compute loads neither it nor
the standard library's fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd
from typing import Mapping

from .errors import ContractError, ParseError
from .tpoly import (
    Packed, TMonomial, check_index, check_piece, coefficient_text, pack_terms, shared_pair, unpack_exponents,
)


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
        return coefficient_text(self.a, self.b)


class TPolynomial:
    """Finite linear combination of TMonomials with QScalar coefficients,
    over a fixed r: a view, compared and printed, never computed with."""

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
            if not isinstance(coeff, QScalar):  # an int or a Fraction is a rational coefficient
                if not isinstance(coeff, (int, Fraction)):
                    raise TypeError(f"expected QScalar, int or Fraction, got {type(coeff).__name__}")
                coeff = QScalar(Fraction(coeff), Fraction(0))
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

    def __bool__(self) -> bool:  # a reader of TauExpansion.pieces tests a piece for zero
        return bool(self.terms)

    def canonical_terms(self) -> list[tuple[TMonomial, QScalar]]:
        return sorted(self.terms.items(), key=lambda kv: kv[0].sort_key())

    def __eq__(self, other) -> bool:
        if not isinstance(other, TPolynomial):
            return NotImplemented
        return self.r == other.r and self.terms == other.terms

    __hash__ = None

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        return " + ".join(f"({coeff})*{mono}" for mono, coeff in self.canonical_terms())

    def __repr__(self) -> str:
        return f"TPolynomial(r={self.r}, {self})"


def unpacked(r: int, j: int, packed: Packed, fields: list[tuple[int, int, int]]) -> TPolynomial:
    """The polynomial of the packed tau_j: num/den * s^j * lam^(j-N) * prod
    T_n^e_n per key.  Only the TauExpansion.pieces view builds one."""
    unit, zero, terms = (-r) ** (j // 2), Fraction(0), {}  # s^j / s^(j mod 2)
    for key, num in packed[0].items():
        if num:
            exps, x = unpack_exponents(key, fields), Fraction(num * unit, packed[1])
            terms[TMonomial(j - sum(e for _, e in exps), exps)] = QScalar(zero, x) if j % 2 else QScalar(x, zero)
    return TPolynomial._raw(r, terms)


# What str(Fraction) writes of a nonzero value: digit strings without a
# leading zero, the sign on the numerator.  The value is built from the two
# ints, so no exponent or decimal form (Fraction() would expand "1e10000000"
# for seconds) is ever read.
_FRACTION = re.compile(r"(-?[1-9][0-9]*)(?:/([1-9][0-9]*))?")
_ZERO = Fraction(0)


def _frac_parse(text, where: str) -> Fraction:
    """The value of a fraction string as str(Fraction) writes it: reduced,
    the sign on the numerator, no "-0" and no "/1"; any other spelling is
    refused."""
    if text == "0":  # half the components of a graded piece
        return _ZERO
    if not isinstance(text, str):
        raise ParseError(f"expected a fraction string, got {type(text).__name__}", where)
    match = _FRACTION.fullmatch(text)
    if match and match[2] != "1":
        try:
            num, den = int(match[1]), int(match[2] or 1)
        except ValueError:  # over 4300 digits
            pass
        else:
            if gcd(num, den) == 1:
                return Fraction(num, den)
    raise ParseError(f"bad fraction {text!r}: not a reduced p or p/q", where)


def _fields(obj, names: tuple[str, str], where: str) -> tuple:
    """The two values of a JSON object with exactly these fields."""
    try:
        if len(obj) == 2:
            return obj[names[0]], obj[names[1]]
    except (TypeError, KeyError):  # not an object, or other fields
        pass
    raise ParseError(f'expected an object with fields "{names[0]}" and "{names[1]}"', where)


def _read_piece(r: int, j: int, reader, where: str, shift: dict[int, int]) -> Packed:
    """The stored tau_j that comes next in reader (a serialize._Reader),
    read one term at a time: the JSON shape, the canonical fraction
    spelling, no monomial twice and no zero coefficient; then check_piece
    grades its terms, and only then are they packed over the layout shift (a
    term with no field is off the grading).  Any fault is a ParseError."""
    if not reader.take("["):
        raise ParseError("polynomial must be a list of terms", where)
    terms = {}
    for idx in reader.items():
        loc = f"{where}[{idx}]"
        mono, coeff = _fields(reader.value(), ("monomial", "coeff"), loc)
        lam, pairs = _fields(mono, ("lambda", "t"), loc + ".monomial")
        if not (type(lam) is int and type(pairs) is list) or not all(
            [type(pair) is list and len(pair) == 2 and type(pair[0]) is type(pair[1]) is int for pair in pairs]
        ):
            raise ParseError("lambda must be an integer, t a list of [index, exponent] integers", loc + ".monomial")
        a, b = _fields(coeff, ("a", "b"), loc + ".coeff")
        a, b = _frac_parse(a, loc + ".coeff.a"), _frac_parse(b, loc + ".coeff.b")
        key = lam, tuple([shared_pair(tuple(pair)) for pair in pairs])
        if key in terms or not (a or b):
            raise ParseError("duplicate monomial" if key in terms else "stored coefficient must be nonzero", loc)
        terms[key] = a, b
    try:
        check_piece(r, j, ((lam, exps, a, b) for (lam, exps), (a, b) in terms.items()))
    except ContractError as exc:
        raise ParseError(str(exc), where) from None
    drained, odd = (terms.popitem() for _ in range(len(terms))), j % 2  # each term freed as it is packed
    return pack_terms(r, j, ((exps, b if odd else a) for (_, exps), (a, b) in drained), shift)
