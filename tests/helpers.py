"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's multiset enumeration and
recursion internals: W modes are rebuilt from ordered oscillator tuples
with per-tuple weights (from a hand-written table of the currents and
closed-form contraction constants) and applied one factor at a time;
genus-0 values for r=2 come from the string equation alone; the graded log
is checked against the plain power series of log(1 + x) and against the
graded exp; and correlators for any r come from the Gelfand-Dickey
hierarchy in rkdv.py.  The pass-by-pass references apply one oscillator or
one normal-ordered term at a time to the whole polynomial, where the
package runs every operator through one monomial-by-monomial kernel on
packed pieces.  The polynomial-level adapters on that kernel
(apply_operator_sum, apply_w_mode, apply_raising_operator) live here, as
references the package's packed paths are tested against, with the
merged NormalTerm view of the package's integer mode tables (mode_block,
mode_terms, mode_table), and so does log_tau, the polynomial view of the
free energy that extraction reads packed.  The package's TPolynomial and
QScalar are views with no arithmetic: the polynomial and scalar arithmetic
every reference runs on lives here (zero ... sum_of, add, sub, neg,
scaled, q_add ... q_scale), and so does decoded, which reads a packed
verify.Residual back as a polynomial without the package's own decoder.
Expected values frozen in the tests were computed with these oracles or
transcribed from independently published tables.
"""

from __future__ import annotations

import json
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import chain
from math import factorial, lcm, prod
from typing import NamedTuple

from rspin import ContractError, QScalar, TauExpansion, TPolynomial, compute_tau, mode_bound
from rspin.correlator import _free_energy
from rspin.tpoly import TMonomial, check_index, exponent_fields, kernel_rows, reduced, unpack_exponents
from rspin.walgebra import _add_block, _kernel_operator, _operator_loop, _twisted_currents, raise_packed

# -- reference arithmetic on the views ---------------------------------------


def q_add(x, y) -> QScalar:
    """x + y in Q(s); a sum takes scalars only (TypeError)."""
    if not (isinstance(x, QScalar) and isinstance(y, QScalar)):
        raise TypeError(f"cannot add {type(x).__name__} and {type(y).__name__}")
    return QScalar(x.a + y.a, x.b + y.b)


def q_neg(x) -> QScalar:
    if not isinstance(x, QScalar):
        raise TypeError(f"cannot negate {type(x).__name__} as a QScalar")
    return QScalar(-x.a, -x.b)


def q_sub(x, y) -> QScalar:
    return q_add(x, q_neg(y))


def q_scale(x, c) -> QScalar:
    """x times a rational c; a product of two scalars would need r (TypeError)."""
    if not isinstance(c, (int, Fraction)):
        raise TypeError(f"cannot scale a QScalar by {type(c).__name__}")
    return QScalar(x.a * c, x.b * c)


ONE_MONOMIAL = TMonomial(0, ())
_ONE = QScalar(Fraction(1), Fraction(0))


def make_monomial(lambda_exp=0, exps=()) -> TMonomial:
    """The canonical TMonomial of a {n: e} mapping or (n, e) pairs: indices
    sorted, zero exponents dropped, a negative one refused (ContractError)."""
    pairs = dict(exps)
    for n, e in pairs.items():
        if e < 0:
            raise ContractError(f"negative exponent {e} for T_{n}")
    return TMonomial(lambda_exp, tuple(sorted((n, e) for n, e in pairs.items() if e)))


def zero(r) -> TPolynomial:
    return TPolynomial(r)


def one(r) -> TPolynomial:
    return TPolynomial._raw(r, {ONE_MONOMIAL: _ONE})


def const(r, c) -> TPolynomial:
    return TPolynomial(r, {ONE_MONOMIAL: c})


def var(r, n) -> TPolynomial:
    check_index(r, n)
    return TPolynomial._raw(r, {TMonomial(0, ((n, 1),)): _ONE})


def monomial(r, coeff, lambda_exp=0, exps=()) -> TPolynomial:
    """coeff * lam^lambda_exp * prod T_n^e_n; coeff a QScalar, int or Fraction."""
    return TPolynomial(r, {make_monomial(lambda_exp, exps): coeff})


def sum_of(r, polys) -> TPolynomial:
    """The sum of polynomials over r (ContractError on another r), zero
    coefficients dropped."""
    acc = {}
    for p in polys:
        if p.r != r:
            raise ContractError(f"summand over r={p.r} in sum over r={r}")
        for mono, coeff in p.terms.items():
            new = q_add(acc[mono], coeff) if mono in acc else coeff
            if new:
                acc[mono] = new
            else:
                acc.pop(mono, None)
    return TPolynomial._raw(r, acc)


def add(p, q) -> TPolynomial:
    return sum_of(p.r, (p, q))


def neg(p) -> TPolynomial:
    return TPolynomial._raw(p.r, {m: q_neg(c) for m, c in p.terms.items()})


def sub(p, q) -> TPolynomial:
    return add(p, neg(q))


def scaled(p, c) -> TPolynomial:
    """p times a rational c (TypeError on a QScalar)."""
    terms = {m: q_scale(coeff, c) for m, coeff in p.terms.items()}
    return TPolynomial._raw(p.r, terms if c else {})


def is_zero(p) -> bool:
    return not p.terms


def max_weight(p) -> int:
    """Largest monomial weight, 0 for the zero polynomial."""
    return max((m.weight for m in p.terms), default=0)


def is_homogeneous(p, weight) -> bool:
    return all(m.weight == weight for m in p.terms)


def poly_at(r, offset, p, packed, fields) -> TPolynomial:
    """The polynomial of packed (numerators, den) at this offset lam + N and
    power p of s, either maybe negative: num/den * s^p * lam^(offset-N) *
    prod T_n^e_n per key, each key's exponents read field by field.
    Written apart from scalar.unpacked, so that a comparison through it
    never reads the decoder under test."""
    nums, den = packed
    half, odd = divmod(p, 2)  # s^p = (-r)^half * s^odd
    terms = {}
    for key, num in nums.items():
        exps = []
        for n, width, _ in fields:
            key, e = divmod(key, 1 << width)
            if e:
                exps.append((n, e))
        assert not key, "a key with bits past the layout"
        x = Fraction(num, den) * Fraction(-r) ** half
        mono = TMonomial(offset - sum(e for _, e in exps), tuple(exps))
        terms[mono] = QScalar(Fraction(0), x) if odd else QScalar(x, Fraction(0))
    return TPolynomial(r, terms)


def decoded(residual) -> TPolynomial:
    """A verify.Residual (r, degree, piece, fields) as its polynomial."""
    r, degree, piece, fields = residual
    return poly_at(r, degree, degree, piece, fields)


def decoded_residuals(report) -> list:
    """A check report's (label, polynomial) residuals."""
    return [(label, decoded(residual)) for label, residual in report.residuals]


# -- polynomial builders ----------------------------------------------------


def poly_to_obj(poly: TPolynomial) -> list:
    """The JSON value serialize writes for a polynomial, as plain objects."""
    return [
        {
            "monomial": {"lambda": mono.lambda_exp, "t": [[n, e] for n, e in mono.exps]},
            "coeff": {"a": str(c.a), "b": str(c.b)},
        }
        for mono, c in poly.canonical_terms()
    ]


def qs(a, b=0) -> QScalar:
    return QScalar(Fraction(a), Fraction(b))


def poly_of(r, *terms) -> TPolynomial:
    """Build a polynomial from (coeff, lambda_exp, {n: e}) triples; coeff is
    a rational or an (a, b) pair."""
    total = zero(r)
    for coeff, lam, exps in terms:
        if isinstance(coeff, tuple):
            c = qs(*coeff)
        else:
            c = qs(coeff)
        total = add(total, monomial(r, c, lam, exps))
    return total


def q_mul(r, x, y) -> QScalar:
    """The product in Q(s), s^2 = -r:
    (a1 + b1 s)(a2 + b2 s) = (a1 a2 - r b1 b2) + (a1 b2 + a2 b1) s."""
    return QScalar(x.a * y.a - r * x.b * y.b, x.a * y.b + x.b * y.a)


def q_scaled(poly, q) -> TPolynomial:
    """poly times the scalar q of Q(s), s^2 = -poly.r."""
    return TPolynomial(poly.r, {m: q_mul(poly.r, c, q) for m, c in poly.terms.items()})


def unit_power(r, n) -> QScalar:
    """(-r*s)^n by repeated products of -r*s, or of 1/(-r*s) = s/r^2 for
    n < 0."""
    base = qs(0, -r) if n >= 0 else qs(0, Fraction(1, r * r))
    out = qs(1)
    for _ in range(abs(n)):
        out = q_mul(r, out, base)
    return out


# -- pass-by-pass references ------------------------------------------------


class NormalTerm(NamedTuple):
    """One normal-ordered product: annihilators differentiate first, then
    creators multiply, then the rational coefficient applies.  creators and
    annihilators hold positive variable indices (sorted); an annihilator
    brings lam and a creator lam^-1."""

    creators: tuple[int, ...]
    annihilators: tuple[int, ...]
    coeff: Fraction


def mode_block(r, k, j, m, wa) -> dict:
    """The package's block of W(k, j, m) at annihilator weight wa, as
    _add_block merges it: {(creators, annihilators): numerator} over the
    currents' denominator, index tuples non-increasing, each creator key
    decoded by unpack_exponents and its numerator freed of the creators'
    product, zeros dropped."""
    shift, fields = exponent_fields(r, max(wa - r * m - j * (r + 1), 0))
    acc = defaultdict(dict)
    _add_block(r, k, j, m, wa, acc, shift, 0, 1)
    out = {}
    for ann, row in acc.items():
        for key, x in row.items():
            cre = tuple(n for n, e in reversed(unpack_exponents(key, fields)) for _ in range(e))
            if x:
                out[cre, ann] = x // prod(cre)
    return out


def mode_terms(r, k, j, m, top) -> tuple[NormalTerm, ...]:
    """The package's blocks of W(k, j, m) up to annihilator weight top, each
    merged, its integer rows over the currents' denominator and its
    non-increasing index tuples sorted, read as NormalTerms."""
    den = _twisted_currents(r)[0]
    return tuple(
        NormalTerm(cre[::-1], ann[::-1], Fraction(x, den))
        for wa in range(max(r * m + j * (r + 1), 0), top + 1)
        for (cre, ann), x in mode_block(r, k, j, m, wa).items()
    )


def poly_mul(p, q, weight_cap=None) -> TPolynomial:
    """Plain product of two polynomials over the same r: every pair of
    terms, monomials multiplied by merging their exponents; pairs of total
    weight above weight_cap, if one is given, are left out."""
    if p.r != q.r:
        raise ValueError(f"cannot multiply polynomials over r={p.r} and r={q.r}")
    acc = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            if weight_cap is not None and m1.weight + m2.weight > weight_cap:
                continue
            exps = dict(m1.exps)
            for n, e in m2.exps:
                exps[n] = exps.get(n, 0) + e
            mono = TMonomial(m1.lambda_exp + m2.lambda_exp, tuple(sorted(exps.items())))
            c = q_mul(p.r, c1, c2)
            acc[mono] = q_add(acc[mono], c) if mono in acc else c
    return TPolynomial(p.r, acc)


def mul_var(poly, n, k=1) -> TPolynomial:
    """Multiply by T_n^k."""
    check_index(poly.r, n)
    if k < 1:
        raise ValueError(f"exponent must be positive, got {k}")
    terms = {}
    for mono, coeff in poly.terms.items():
        exps = dict(mono.exps)
        exps[n] = exps.get(n, 0) + k
        terms[TMonomial(mono.lambda_exp, tuple(sorted(exps.items())))] = coeff
    return TPolynomial._raw(poly.r, terms)


def derive(poly, n) -> TPolynomial:
    """Formal partial derivative with respect to T_n."""
    check_index(poly.r, n)
    terms = {}
    for mono, coeff in poly.terms.items():
        exps = dict(mono.exps)
        e = exps.pop(n, 0)
        if not e:
            continue
        if e > 1:
            exps[n] = e - 1
        # distinct monomials keep distinct derivatives, so nothing collects
        terms[TMonomial(mono.lambda_exp, tuple(sorted(exps.items())))] = q_scale(coeff, e)
    return TPolynomial._raw(poly.r, terms)


def shift_lambda(poly, k) -> TPolynomial:
    """Multiply by lam^k."""
    if not k:
        return poly
    return TPolynomial._raw(poly.r, {TMonomial(m.lambda_exp + k, m.exps): c for m, c in poly.terms.items()})


def graded_part(poly, d) -> TPolynomial:
    """Terms of weight d*(r+1); everything else dropped."""
    if d < 0:
        raise ValueError(f"degree must be nonnegative, got {d}")
    target = d * (poly.r + 1)
    return TPolynomial._raw(poly.r, {m: c for m, c in poly.terms.items() if m.weight == target})


def apply_beta(u, poly) -> TPolynomial:
    """Apply a single oscillator: u > 0 gives lam * d/dT_u, u < 0 gives
    lam^{-1} * |u| * T_{|u|}.  u must not be zero or divisible by r."""
    if not isinstance(u, int) or u == 0 or u % poly.r == 0:
        raise ValueError(f"mode index {u}/{poly.r} is integral or zero")
    if u > 0:
        return shift_lambda(derive(poly, u), 1)
    return shift_lambda(scaled(mul_var(poly, -u), -u), -1)


def apply_term(term, poly) -> TPolynomial:
    """Apply one NormalTerm to poly: every annihilator differentiates the
    whole polynomial and brings lam, then every creator multiplies it and
    brings lam^-1 (the power of -r*s/lam that the kernel takes is left to
    the caller: see unit_scaled)."""
    out = poly
    for u in term.annihilators:
        out = derive(out, u)
    if is_zero(out):
        return out
    factor = term.coeff
    for u in term.creators:
        out = mul_var(out, u)
        factor = factor * u
    return shift_lambda(scaled(out, factor), len(term.annihilators) - len(term.creators))


def unit_scaled(poly, n) -> TPolynomial:
    """poly times (-r*s/lam)^n, the power that apply_operator_sum applies
    to its sum of rational terms."""
    return shift_lambda(q_scaled(poly, unit_power(poly.r, n)), -n)


# -- the package's kernel on TPolynomials -----------------------------------


def _pack(offset, p, poly, shift):
    """poly as numerators over one den of s^p, over the layout shift: the
    packed form at any offset lam + N and power of s, where the package's
    pack_piece reads only tau_j.  Raises ContractError on a monomial the
    form cannot hold: one whose lam + N is not offset, whose coefficient
    has a nonzero part outside Q*s^(p mod 2), with an index that has no
    field, or whose key another monomial already holds."""
    r, (half, odd) = poly.r, divmod(p, 2)
    ratios = {}
    for mono, c in poly.terms.items():
        key, lam_n = 0, mono.lambda_exp
        for n, e in mono.exps:
            if n not in shift:
                raise ContractError(f"monomial {mono}: T{n} has no field in the layout")
            key += e << shift[n]
            lam_n += e
        if lam_n != offset or (c.a if odd else c.b):
            raise ContractError(f"monomial {mono}: lam + N = {lam_n}, coefficient {c}; expected {offset}, Q*s^{odd}")
        if key in ratios:
            raise ContractError(f"monomial {mono}: its packed key is held by another monomial")
        ratios[key] = c.b if odd else c.a
    common, sign = lcm(*(x.denominator for x in ratios.values())), (-1) ** half
    return reduced({key: sign * x.numerator * (common // x.denominator) for key, x in ratios.items()}, common * r**half)


def _on_kernel(poly, n, weight, kernel) -> TPolynomial:
    """(-r*s/lam)^n times an operator on a graded poly, packed as its first
    monomial is graded over a layout of top weight `weight` (_pack refuses
    the rest: ContractError); kernel maps (rows, shift) to
    (numerators, den).  s^p at offset lam + N goes to s^(p + 3n) at an
    offset n lower, as -r*s = s^3."""
    if is_zero(poly):
        return poly
    mono, c = next(iter(poly.terms.items()))
    offset, parity = mono.lambda_exp + sum(e for _, e in mono.exps), int(bool(c.b))
    shift, fields = exponent_fields(poly.r, weight)
    den, rows = kernel_rows(_pack(offset, parity, poly, shift), fields)
    nums, den_t = kernel(rows, shift)
    return poly_at(poly.r, offset - n, parity + 3 * n, (nums, den * den_t), fields)


def apply_operator_sum(terms, poly, n) -> TPolynomial:
    """(-r*s/lam)^n times a sum of NormalTerms on a graded poly, one kernel
    call.  The layout holds the input's top weight plus the heaviest
    creator set; a term with an annihilator that has no field there
    divides no input."""
    terms = list(terms)

    def kernel(rows, shift):
        fit = [t for t in terms if all(u in shift for u in t.annihilators)]
        den = lcm(*(t.coeff.denominator for t in fit))
        acc = defaultdict(dict)
        for t in fit:  # the kernel reads annihilators non-increasing
            row, key = acc[t.annihilators[::-1]], sum(1 << shift[u] for u in t.creators)
            row[key] = row.get(key, 0) + t.coeff.numerator * (den // t.coeff.denominator) * prod(t.creators)
        return _operator_loop(_kernel_operator(acc, shift), rows), den

    return _on_kernel(poly, n, max_weight(poly) + max((sum(t.creators) for t in terms), default=0), kernel)


def apply_w_mode(r, k, j, m, poly) -> TPolynomial:
    """W(k, j, m) on a graded poly over this r: its blocks up to the
    input's top weight, under (-r*s/lam)^j."""
    return apply_operator_sum(mode_terms(r, k, j, m, max_weight(poly)), poly, j)


def apply_raising_operator(r, l, poly, target_degree) -> TPolynomial:
    """The raiser A_l on a graded poly of degree target_degree - l: one
    raise_packed call, under (-r*s/lam)^(-l)."""
    weight = target_degree * (r + 1)
    return _on_kernel(poly, -l, weight, lambda rows, shift: raise_packed(r, l, rows, target_degree, shift))


def log_tau(tau) -> TPolynomial:
    """The package's graded log, the free energy F_1 .. F_D that extraction
    reads, as one polynomial."""
    terms, zero = {}, Fraction(0)
    for n, den, rows in _free_energy(tau):
        unit = Fraction(-tau.r) ** (n // 2)  # s^n / s^(n mod 2)
        for lam, exps, num in rows:
            x = Fraction(num, den) * unit
            terms[TMonomial(lam, exps)] = QScalar(zero, x) if n % 2 else QScalar(x, zero)
    return TPolynomial._raw(tau.r, terms)


def exp_graded(poly, max_degree) -> TauExpansion:
    """Graded exp of a polynomial with no degree-0 part, truncated at
    max_degree, by n tau_n = sum_{k=1..n} k F_k tau_{n-k}: the inverse of
    log_tau."""
    r = poly.r
    if not is_zero(graded_part(poly, 0)):
        raise ContractError("exp requires a vanishing degree-0 part")
    g = [scaled(graded_part(poly, k), k) for k in range(max_degree + 1)]
    pieces = [one(r)]
    for n in range(1, max_degree + 1):
        total = sum_of(r, (poly_mul(g[k], pieces[n - k]) for k in range(1, n + 1)))
        pieces.append(scaled(total, Fraction(1, n)))
    return TauExpansion(r, max_degree, pieces)


def with_piece(tau, j, piece) -> TauExpansion:
    """tau with piece j replaced: a new expansion, in which only the new
    piece is graded (a TPolynomial is packed, ContractError off the
    grading) and the others are tau's packed pieces as they are."""
    return TauExpansion(tau.r, tau.max_degree, [*tau.held[:j], piece, *tau.held[j + 1 :]])


# -- frozen fixtures (degree <= 2 displays are internally consistent) -------


def tau1_r3() -> TPolynomial:
    return poly_of(
        3,
        ((0, Fraction(-1, 9)), -2, {1: 2, 2: 1}),
        ((0, Fraction(-1, 27)), 0, {4: 1}),
    )


def tau2_r3() -> TPolynomial:
    return poly_of(
        3,
        (Fraction(-1, 54), -4, {1: 4, 2: 2}),
        (Fraction(-13, 81), -2, {1: 2, 2: 1, 4: 1}),
        (Fraction(2, 81), -2, {2: 4}),
        (Fraction(-5, 81), -2, {1: 3, 5: 1}),
        (Fraction(-13, 486), 0, {4: 2}),
        (Fraction(-7, 81), 0, {1: 1, 7: 1}),
    )


def free_energy2_r3() -> TPolynomial:
    return poly_of(
        3,
        (Fraction(2, 81), -2, {2: 4}),
        (Fraction(-5, 81), -2, {1: 3, 5: 1}),
        (Fraction(-4, 27), -2, {1: 2, 2: 1, 4: 1}),
        (Fraction(-7, 81), 0, {1: 1, 7: 1}),
        (Fraction(-2, 81), 0, {4: 2}),
    )


def raiser2_on_one_r3() -> TPolynomial:
    return poly_of(
        3,
        (Fraction(4, 81), -2, {2: 4}),
        (Fraction(2, 27), -2, {1: 2, 2: 1, 4: 1}),
        (Fraction(5, 324), -2, {1: 3, 5: 1}),
    )


def raiser1_squared_on_one_r3() -> TPolynomial:
    return poly_of(
        3,
        (Fraction(-13, 243), 0, {4: 2}),
        (Fraction(-14, 81), 0, {1: 1, 7: 1}),
        (Fraction(-5, 36), -2, {1: 3, 5: 1}),
        (Fraction(-32, 81), -2, {1: 2, 2: 1, 4: 1}),
        (Fraction(-1, 27), -4, {1: 4, 2: 2}),
    )


def tau1_r2() -> TPolynomial:
    return poly_of(
        2,
        ((0, Fraction(-1, 24)), -2, {1: 3}),
        ((0, Fraction(-1, 32)), 0, {3: 1}),
    )


# -- ordered-tuple oracle for W modes ---------------------------------------

# The spin-k current of one sheet, psi* d^(k-1) psi / (k-1)! bosonized
# ([eps^k] exp(sum_i eps^i X^(i) / i!)), written out by hand and kept to
# its monomials whose factor count has the parity of k (the current's
# charge-conjugation eigenpart); keys are the derivative orders of the
# factors X^(i) = d^(i-1) X'.
SHEET_CURRENTS = {
    2: {(1, 1): Fraction(1, 2)},
    3: {(3,): Fraction(1, 6), (1, 1, 1): Fraction(1, 6)},
    4: {(3, 1): Fraction(1, 6), (2, 2): Fraction(1, 8), (1, 1, 1, 1): Fraction(1, 24)},
    5: {(5,): Fraction(1, 120), (3, 1, 1): Fraction(1, 12), (2, 2, 1): Fraction(1, 8), (1, 1, 1, 1, 1): Fraction(1, 120)},
}


def sheet_contraction(r, i, j):
    """Regular part of the twisted minus the untwisted propagator of one
    sheet at coincident points, d_z^(i-1) d_w^(j-1) G(z, w) = g z^(-i-j),
    in closed form.  The r=2 values follow by hand from
    G = 1/(4 sqrt(zw) (sqrt(z) + sqrt(w))^2): at z = 1, w = 1 + x,
    sqrt(w) = 1 + x/2 - x^2/8, 1/sqrt(w) = 1 - x/2 + 3x^2/8 and
    (1 + sqrt(w))^-2 = (1 - x/2 + 5x^2/16)/4, so G = (1 - x + 15x^2/16)/16
    up to x^3, and d_w^2 G = 2 * 15/256 = 15/128, the (1, 3) value."""
    g11 = Fraction(r * r - 1, 12 * r * r)
    g13 = Fraction((r * r - 1) * (19 * r * r - 1), 120 * r**4)
    return {
        (1, 1): g11,
        (1, 2): -g11,
        (2, 1): -g11,
        (2, 2): Fraction((r * r - 1) * (11 * r * r + 1), 120 * r**4),
        (1, 3): g13,
        (3, 1): g13,
    }[(i, j)]


def _contracted(r, orders):
    """Every partial pairing of the factors, each pair replaced by its
    contraction: yields (coefficient, orders left)."""
    if not orders:
        yield Fraction(1), ()
        return
    head, tail = orders[0], list(orders[1:])
    for coeff, left in _contracted(r, tuple(tail)):
        yield coeff, (head,) + left
    for idx in range(len(tail)):
        rest = tuple(tail[:idx] + tail[idx + 1:])
        for coeff, left in _contracted(r, rest):
            yield coeff * sheet_contraction(r, head, tail[idx]), left


def _falling(a, n):
    out = Fraction(1)
    for t in range(n):
        out *= a - t
    return out


def _fills(r, slots, consts, total, creator_cap, annihilator_cap):
    """Ordered fills of `slots` slots, each an oscillator label u (u < 0 a
    creator, u % r != 0) or None for a dilaton constant, with exactly
    `consts` constants, labels summing to `total`, and creator and
    annihilator weights within their caps."""
    if slots == 0:
        if consts == 0 and total == 0:
            yield ()
        return
    if consts:
        for rest in _fills(r, slots - 1, consts - 1, total, creator_cap, annihilator_cap):
            yield (None,) + rest
    for u in range(-creator_cap, annihilator_cap + 1):
        if u % r == 0:
            continue
        caps = (creator_cap + min(u, 0), annihilator_cap - max(u, 0))
        for rest in _fills(r, slots - 1, consts, total - u, *caps):
            yield (u,) + rest


def _ordered_tuples(r, k, j, m, creator_cap, annihilator_cap):
    """Every ordered tuple of W(k, j, m): yields (oscillator labels,
    rational coefficient).  A slot holds an oscillator label u (u < 0 a
    creator) or the dilaton-shift constant standing for u = -(r+1); the
    tuple is weighted by the falling factorial (-u/r - 1)_(i-1) of each
    slot of derivative order i, and the sheet sum contributes r^(1-p)."""
    for orders, current in SHEET_CURRENTS[k].items():
        for contraction, left in _contracted(r, orders):
            scale = current * contraction * Fraction(r) ** (k - len(left))
            for tup in _fills(r, len(left), j, r * m + j * (r + 1), creator_cap, annihilator_cap):
                osc = tuple(u for u in tup if u is not None)
                weight = scale
                for u, order in zip(tup, left):
                    label = -(r + 1) if u is None else u
                    weight *= _falling(Fraction(-label, r) - 1, order - 1)
                yield osc, weight


def ordered_w_terms(r, k, j, m, creator_cap, annihilator_cap):
    """Build W(k, j, m) from ordered oscillator tuples with per-tuple
    weights, then collect by normal-ordered shape.  Independent of the
    package's multiset enumeration and of its generator and contraction
    code.  The terms are rational: W(k, j, m) is (-r*s)^j times them."""
    acc = {}
    for osc, weight in _ordered_tuples(r, k, j, m, creator_cap, annihilator_cap):
        key = (
            tuple(sorted(-u for u in osc if u < 0)),
            tuple(sorted(u for u in osc if u > 0)),
        )
        acc[key] = acc.get(key, 0) + weight
    terms = [NormalTerm(cre, ann, coeff) for (cre, ann), coeff in acc.items() if coeff]
    terms.sort(key=lambda t: (t.creators, t.annihilators))
    return tuple(terms)


def mode_table(r, k, j, m, cap):
    """The package's terms of W(k, j, m) whose creators and annihilators
    each weigh at most cap, sorted like ordered_w_terms: its blocks up to
    annihilator weight cap, and no further than creator weight cap."""
    top = min(cap, cap + r * m + j * (r + 1))
    return tuple(sorted(mode_terms(r, k, j, m, top), key=lambda t: (t.creators, t.annihilators)))


def ordered_apply_w(r, k, j, m, poly, creator_cap):
    """Apply W(k, j, m) by walking ordered tuples one oscillator at a time."""
    unit = unit_power(r, j)
    total = zero(r)
    for osc, weight in _ordered_tuples(r, k, j, m, creator_cap, max_weight(poly)):
        out = poly
        for u in sorted(osc, reverse=True):  # normal order: annihilators first
            out = apply_beta(u, out)
            if is_zero(out):
                break
        total = add(total, shift_lambda(q_scaled(out, q_scale(unit, weight)), -j))
    return total


def ordered_apply_raiser(r, l, poly, target_degree):
    """Degree raiser rebuilt on the ordered-tuple oracle."""
    w_in = (target_degree - l) * (r + 1)
    assert is_homogeneous(poly, w_in)
    total = zero(r)
    for k in range(l + 1, r + 1):
        for m in range(0, mode_bound(r, k, target_degree) + 1):
            j = k - 1 - l
            w_mid = w_in - (r * (m - k + 1) + j * (r + 1))
            if w_mid < 0:
                continue
            inner = ordered_apply_w(r, k, j, m - k + 1, poly, w_mid)
            if is_zero(inner):
                continue
            n_out = r * m + k - 1
            pref = q_scale(unit_power(r, -(k - 1)), Fraction(-factorial(k - 1) * n_out, r + 1))
            total = add(total, shift_lambda(q_scaled(mul_var(inner, n_out), pref), k - 2))
    return total


def reference_tau(r, max_degree) -> list[TPolynomial]:
    """The pieces tau_0 .. tau_D by j tau_j = sum_l A_l tau_{j-l} on
    TPolynomials: the sum of apply_raising_operator over the raisers,
    scaled by 1/j, the reference the packed recursion is tested against."""
    pieces = [one(r)]
    for j in range(1, max_degree + 1):
        total = sum_of(r, (apply_raising_operator(r, l, pieces[j - l], j) for l in range(1, min(r - 1, j) + 1)))
        pieces.append(scaled(total, Fraction(1, j)))
    return pieces


def reference_commutator(r, degree, tau=None) -> list[tuple[str, TPolynomial]]:
    """The residuals of check_commutators on TPolynomials: every instance
    (i < j, d) with d + i + j <= degree, else [A_1, A_2] on tau_0 for
    r > 2, measured as A_i A_j tau_d - A_j A_i tau_d by nested
    apply_raising_operator calls, the formulation the packed diagnostic
    replaces."""
    instances = [(i, j, d) for i in range(1, r) for j in range(i + 1, r) for d in range(0, max(degree - i - j, -1) + 1)]
    if not instances and r >= 3:
        instances = [(1, 2, 0)]
    max_base = max((d for _, _, d in instances), default=0)
    if tau is None or tau.max_degree < max_base:
        tau = compute_tau(r, max_base)
    residuals, pieces = [], tau.pieces
    for i, j, d in instances:
        base = pieces[d]
        if is_zero(base):
            continue
        ij = apply_raising_operator(r, i, apply_raising_operator(r, j, base, d + j), d + i + j)
        ji = apply_raising_operator(r, j, apply_raising_operator(r, i, base, d + i), d + i + j)
        residual = sub(ij, ji)
        if not is_zero(residual):
            residuals.append((f"[A_{i}, A_{j}] on degree {d}", residual))
    return residuals


def reference_exponential(r, max_degree) -> list[TPolynomial]:
    """The pieces of exp(sum_l A_l / l) . 1 through max_degree on
    TPolynomials: B^n/n! . 1 by degree, B = sum_l A_l / l, each raiser one
    apply_raising_operator call, summed and scaled as TPolynomials, the
    formulation the packed compute_tau_exponential replaces."""
    nothing = zero(r)
    acc = {0: one(r)}
    power = {0: one(r)}
    for n in range(1, max_degree + 1):
        nxt = {}
        for d, poly in power.items():
            for l in range(1, min(r, max_degree - d + 1)):
                contrib = scaled(apply_raising_operator(r, l, poly, d + l), Fraction(1, l))
                nxt[d + l] = add(nxt.get(d + l, nothing), contrib)
        power = {d: scaled(p, Fraction(1, n)) for d, p in nxt.items() if not is_zero(p)}
        for d, p in power.items():
            acc[d] = add(acc.get(d, nothing), p)
    return [acc.get(j, nothing) for j in range(max_degree + 1)]


def reference_w_residual(pieces, k, m, degree) -> tuple[TPolynomial, bool]:
    """(residual, engaged) of the constraint equation (k, m, degree) on the
    polynomials tau.pieces, one apply_w_mode per piece it reads, summed as
    TPolynomials: the per-equation path that verify.w_constraint_residuals
    replaces."""
    r = pieces[0].r
    read = [
        (l, pieces[idx])
        for l, idx in enumerate(range(degree - k + 1, degree + 1))
        if 0 <= idx < len(pieces) and not is_zero(pieces[idx])
    ]
    total = sum_of(r, (apply_w_mode(r, k, l, m, piece) for l, piece in read))
    return total, bool(read)


# -- power-series oracle for the graded log ---------------------------------


def power_series_log(tau) -> TPolynomial:
    """log(1 + x) = sum_k (-1)^(k+1) x^k / k with x = tau_1 + .. + tau_D,
    every power truncated above weight D*(r+1) by a plain product that
    leaves out the pairs above it."""
    r, D = tau.r, tau.max_degree
    cap = D * (r + 1)
    x = sum_of(r, tau.pieces[1:])
    result = zero(r)
    power = one(r)
    for k in range(1, D + 1):
        power = poly_mul(power, x, cap)
        result = add(result, scaled(power, Fraction((-1) ** (k + 1), k)))
    return result


# -- genus-0 string oracle for r=2 -------------------------------------------


@lru_cache(maxsize=None)
def genus0_value_r2(levels: tuple[int, ...]) -> Fraction:
    """Genus-0 value for r=2 insertions (m_i, 0), from the string equation
    and the three-point normalization alone."""
    n = len(levels)
    if n < 3 or sum(levels) != n - 3:
        return Fraction(0)
    if n == 3:
        return Fraction(1) if levels == (0, 0, 0) else Fraction(0)
    if 0 not in levels:
        return Fraction(0)
    rest = list(levels)
    rest.remove(0)
    total = Fraction(0)
    for level, count in Counter(rest).items():
        if level == 0:
            continue
        lowered = list(rest)
        lowered.remove(level)
        lowered.append(level - 1)
        total += count * genus0_value_r2(tuple(sorted(lowered)))
    return total


def genus0_closed_form_r2(levels: tuple[int, ...]) -> Fraction:
    """(n-3)! / prod(m_i!) when the dimension constraint holds, else 0."""
    n = len(levels)
    if n < 3 or sum(levels) != n - 3:
        return Fraction(0)
    denom = 1
    for m in levels:
        denom *= factorial(m)
    return Fraction(factorial(n - 3), denom)


# -- reference writers --------------------------------------------------------


def _dump(obj) -> bytes:
    """The canonical JSON bytes every writer in rspin.serialize reproduces:
    json.dumps(indent=1) plus a final newline."""
    return (json.dumps(obj, indent=1) + "\n").encode("utf-8")


def entry_obj(poly: TPolynomial, degree: int) -> dict:
    """The "den" and "piece" a cache entry holds for poly, a graded tau_degree:
    den the least common denominator of its values over s^degree, and one
    [num, n1, e1, ...] per term, in canonical order."""
    unit = Fraction(-poly.r) ** (degree // 2)  # x * s^(degree mod 2) = x / unit * s^degree
    values = [(mono, (c.b if degree % 2 else c.a) / unit) for mono, c in poly.canonical_terms()]
    den = lcm(*(x.denominator for _, x in values))
    return {"den": den, "piece": [[int(x * den), *chain.from_iterable(mono.exps)] for mono, x in values]}


def _entry_dump(doc: dict) -> bytes:
    """json.dumps(indent=1) of a cache entry plus a final newline, but each
    term of its piece on one line, as json.dumps writes a list."""
    head = json.dumps({key: value for key, value in doc.items() if key != "piece"}, indent=1)
    terms = ",\n  ".join(json.dumps(term) for term in doc["piece"])
    return (head[:-2] + ',\n "piece": ' + (f"[\n  {terms}\n ]" if terms else "[]") + "\n}\n").encode("utf-8")


def report_to_obj(report) -> dict:
    """The JSON object of one check report, as serialize.reports_to_json
    writes it."""
    return {
        "check_name": report.check_name,
        "status": report.status,
        "residuals": [{"label": label, "poly": poly_to_obj(poly)} for label, poly in decoded_residuals(report)],
        "details": report.details,
    }
