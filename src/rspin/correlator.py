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
and divided by the multiplicities e_n!.

The grading makes the log rational.  A degree-j monomial of tau in N
variables carries lam^(j-N) and a coefficient in Q * s^j, so each piece is
read once as integer numerators over one denominator, with s^j and the lam
exponent implied by the degree and the monomial: the TauExpansion's packed
pieces, over the solve's layout (tpoly.exponent_fields), a bit field per
index wide enough for the top weight D*(r+1); no product in the log exceeds
that weight, so adding two keys multiplies two monomials without a carry.
Each piece was graded once by the package's one rule (tpoly.check_piece)
before the expansion held it, so no monomial outweighs the top weight.
Extraction then reads each free-energy monomial as one exact rational
correlator; an odd lam exponent, a negative genus or a selection-rule
violation can only come from an upstream bug and raises ExtractionError.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, lcm
from typing import NamedTuple

from .errors import ExtractionError, InvalidInsertionError
from .solver import TauExpansion
from .tpoly import Packed, TMonomial, canonical_rows, exponent_fields, reduced

__all__ = [
    "Insertion",
    "CorrelatorRecord",
    "conversion_constant",
    "extract_correlators",
    "insertion_for_index",
    "selection_check",
    "variable_index",
]


class Insertion(NamedTuple):
    """One descendant insertion: level m, spin label a.  A tuple, so it
    hashes, compares and sorts as the pair (m, a)."""

    m: int
    a: int


def variable_index(r: int, ins: Insertion) -> int:
    return r * ins.m + ins.a + 1


def insertion_for_index(r: int, n: int) -> Insertion:
    """Inverse of variable_index; n must not be divisible by r."""
    if n < 1 or n % r == 0:
        raise InvalidInsertionError(f"index {n} does not label an insertion for r={r}")
    return Insertion((n - 1) // r, (n - 1) % r)


def _conversion_rational(r: int, m: int, a: int) -> Fraction:
    """The rational q with conversion_constant(r, m, a) = q * s."""
    if m < 0 or not 0 <= a <= r - 2:
        raise InvalidInsertionError(f"insertion (m={m}, a={a}) out of range for r={r}")
    q = Fraction(1)
    for i in range(m + 1):
        q *= i + Fraction(a + 1, r)
    return -q if m % 2 else q


def conversion_constant(r: int, m: int, a: int):
    """The QScalar c with t_{m,a} = c * T_{r*m + a + 1}."""
    from .scalar import QScalar  # the value type, loaded only by this caller

    return QScalar(Fraction(0), _conversion_rational(r, m, a))


class CorrelatorRecord(NamedTuple):
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


def _free_energy(tau: TauExpansion) -> list[tuple[int, int, list]]:
    """The free energy F_1 .. F_D as (n, den, rows): F_n is the sum of
    num/den * s^n * lam^lam_exp * prod T_i^e_i over its rows
    (lam_exp, ((i, e_i), ...), num), in canonical order (tpoly.canonical_rows).

    Reads the pieces as TauExpansion.held holds them, graded and packed.
    Applying the degree operator to tau = exp(F) gives n tau_n =
    sum_{k=1..n} G_k tau_{n-k} with G_k = k F_k, solved here for G_n
    degree by degree: every product is homogeneous of degree n, so it
    stays within the top weight and in Q * s^n.  A product key is one int
    add and a product coefficient one int product; each degree has one
    denominator.
    """
    taus, r, top = tau.held, tau.r, tau.max_degree
    _, fields = exponent_fields(r, top * (r + 1))
    logs: list[Packed] = [({}, 1)]
    free_energy = []
    for n in range(1, top + 1):
        den = taus[n][1]
        for k in range(1, n):
            den = lcm(den, logs[k][1] * taus[n - k][1])
        scale = den // taus[n][1] * n
        acc = {key: c * scale for key, c in taus[n][0].items()}
        get = acc.get
        for k in range(1, n):
            (g, g_den), (t, t_den) = logs[k], taus[n - k]
            scale = -(den // (g_den * t_den))
            for key, c in g.items():
                c *= scale
                for key2, c2 in t.items():
                    key2 += key
                    acc[key2] = get(key2, 0) + c * c2
        nums, den = reduced(acc, den)
        logs.append((nums, den))
        free_energy.append((n, den * n, canonical_rows(n, nums, fields)))
    return free_energy


def extract_correlators(tau: TauExpansion) -> list[CorrelatorRecord]:
    """Read every correlator out of the free energy, exactly.

    Genus comes from the lam exponent alone; the selection rule is then an
    independent cross-check on each record, not an input to it.  A
    free-energy coefficient num/den * s^n on N insertions with lam
    exponent n - N = 2g-2 gives the value
    num/den * (-r)^(g-1) * prod(e!) / prod(q^e),
    q the rational part of each conversion constant.  The monomials are
    read in canonical order, so an error names the first bad one.
    """
    r = tau.r
    insertion, ratio = {}, {}
    records = []
    for n, den, rows in _free_energy(tau):
        for lam, exps, num in rows:
            if lam % 2:
                raise ExtractionError(f"odd lam exponent {lam} in free-energy monomial {TMonomial(lam, exps)}")
            genus = (lam + 2) // 2
            if genus < 0:
                raise ExtractionError(f"negative genus {genus} in free-energy monomial {TMonomial(lam, exps)}")
            top, bottom = num, den
            if genus:
                top *= (-r) ** (genus - 1)
            else:
                bottom *= -r
            insertions: list[Insertion] = []
            for i, e in exps:
                ins = insertion.get(i)
                if ins is None:
                    ins = insertion[i] = insertion_for_index(r, i)
                    ratio[i] = _conversion_rational(r, ins.m, ins.a)
                insertions.extend([ins] * e)
                q = ratio[i]
                top *= factorial(e) * q.denominator**e
                bottom *= q.numerator**e
            record = CorrelatorRecord(genus, tuple(insertions), Fraction(top, bottom))
            if not selection_check(r, record.genus, record.insertions):
                raise ExtractionError(f"selection rule fails for free-energy monomial {TMonomial(lam, exps)}")
            records.append(record)
    records.sort(key=lambda rec: (rec.genus, rec.insertions))
    return records
