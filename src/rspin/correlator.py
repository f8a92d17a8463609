"""Descendant coordinates, the log of the tau expansion, and exact
correlator extraction.

A descendant insertion is a pair (m, a) with level m >= 0 and spin label
0 <= a <= r-2; it corresponds bijectively to the time variable with index
n = r*m + a + 1 (indices divisible by r are exactly the excluded label
a = r-1).  The descendant variable t_{m,a} equals c * T_n with

    c = (-1)^m * s * prod_{i=0..m} (i + (a+1)/r),        s = sqrt(-r).

The free energy is the graded log of tau; a monomial of the free energy
with lam exponent 2g-2 and variable part prod T_n^{e_n} encodes the genus-g
correlator of the matching insertions, scaled by the conversion constants
and divided by the multiplicities e_n!.  Undoing that yields the exact
rational intersection number; a nonzero s-component, an odd lam exponent,
a negative genus, or a selection-rule violation can only come from an
upstream bug and raises ExtractionError.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial

from .errors import ContractError, ExtractionError, InvalidInsertionError
from .scalar import QScalar, s_power
from .solver import TauExpansion
from .tpoly import TPolynomial

__all__ = [
    "Insertion",
    "CorrelatorRecord",
    "conversion_constant",
    "extract_correlators",
    "insertion_for_index",
    "log_tau",
    "selection_check",
    "variable_index",
]


@dataclass(frozen=True, order=True)
class Insertion:
    """One descendant insertion: level m, spin label a."""

    m: int
    a: int


def variable_index(r: int, ins: Insertion) -> int:
    return r * ins.m + ins.a + 1


def insertion_for_index(r: int, n: int) -> Insertion:
    """Inverse of variable_index; n must not be divisible by r."""
    if n < 1 or n % r == 0:
        raise InvalidInsertionError(f"index {n} does not label an insertion for r={r}")
    return Insertion((n - 1) // r, (n - 1) % r)


def conversion_constant(r: int, m: int, a: int) -> QScalar:
    """Constant c with t_{m,a} = c * T_{r*m + a + 1}."""
    if m < 0 or not 0 <= a <= r - 2:
        raise InvalidInsertionError(f"insertion (m={m}, a={a}) out of range for r={r}")
    q = Fraction(1)
    for i in range(m + 1):
        q *= i + Fraction(a + 1, r)
    if m % 2:
        q = -q
    return QScalar.of(r, 0, q)


@dataclass(frozen=True)
class CorrelatorRecord:
    """One intersection number: genus, sorted insertion multiset, value."""

    genus: int
    insertions: tuple[Insertion, ...]
    value: Fraction


def selection_check(r: int, genus: int, insertions) -> bool:
    """Dimension constraint for a nonvanishing correlator:
    (r+1)(2g-2) + r*n == r*sum(m) + sum(a)."""
    ins = list(insertions)
    lhs = (r + 1) * (2 * genus - 2) + r * len(ins)
    rhs = r * sum(i.m for i in ins) + sum(i.a for i in ins)
    return lhs == rhs


def log_tau(tau: TauExpansion) -> TPolynomial:
    """Graded log of the expansion: the free energy pieces F_1 .. F_D.

    Requires the degree-0 piece to equal 1.  Applying the degree operator
    to tau = exp(F) gives n tau_n = sum_{k=1..n} k F_k tau_{n-k}, solved
    here for G_n = n F_n degree by degree; every product is homogeneous of
    degree n, so nothing beyond the truncation is ever formed.
    """
    r = tau.r
    if tau.piece(0) != TPolynomial.one(r):
        raise ContractError("log requires the degree-0 piece to equal 1")
    pieces = tau.pieces
    g = [TPolynomial.zero(r)]
    for n in range(1, tau.max_degree + 1):
        lower = TPolynomial.sum_of(r, (g[k].mul(pieces[n - k]) for k in range(1, n)))
        g.append(pieces[n].scaled(n) - lower)
    return TPolynomial.sum_of(r, (g[n].scaled(Fraction(1, n)) for n in range(1, tau.max_degree + 1)))


def extract_correlators(tau: TauExpansion) -> list[CorrelatorRecord]:
    """Read every correlator out of the free energy, exactly.

    Genus comes from the lam exponent alone; the selection rule is then an
    independent cross-check on each record, not an input to it.
    """
    r = tau.r
    records = []
    for mono, coeff in log_tau(tau).canonical_terms():
        where = f"free-energy monomial {mono}"
        if mono.lambda_exp % 2:
            raise ExtractionError(f"odd lam exponent {mono.lambda_exp} in {where}")
        genus = (mono.lambda_exp + 2) // 2
        if genus < 0:
            raise ExtractionError(f"negative genus {genus} in {where}")
        # coeff * prod(e!) / prod(c^e) with c = q * s: s^(-N) times a rational
        insertions: list[Insertion] = []
        factor = Fraction(1)
        for n, e in mono.exps:
            ins = insertion_for_index(r, n)
            insertions.extend([ins] * e)
            factor *= factorial(e) / conversion_constant(r, ins.m, ins.a).b ** e
        value = coeff * s_power(r, -len(insertions)) * factor
        if not value.is_rational:
            raise ExtractionError(f"non-rational value {value} in {where}")
        record = CorrelatorRecord(genus, tuple(sorted(insertions)), value.a)
        if not selection_check(r, record.genus, record.insertions):
            raise ExtractionError(f"selection rule fails for {where}")
        records.append(record)
    records.sort(key=lambda rec: (rec.genus, rec.insertions))
    return records
