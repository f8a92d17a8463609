"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the package's multiset enumeration and
recursion internals: W modes are rebuilt from ordered oscillator tuples
applied one factor at a time, and genus-0 values for r=2 come from the
string equation alone; the graded log is checked against the plain power
series of log(1 + x).  Expected values frozen in the tests were computed
with these oracles or transcribed from independently published tables.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import factorial

from rspin import (
    NormalTerm,
    QScalar,
    TPolynomial,
    apply_beta,
    mode_bound,
)

# -- polynomial builders ----------------------------------------------------


def qs(r, a, b=0) -> QScalar:
    return QScalar.of(r, Fraction(a), Fraction(b))


def poly_of(r, *terms) -> TPolynomial:
    """Build a polynomial from (coeff, lambda_exp, {n: e}) triples; coeff is
    a rational or an (a, b) pair."""
    total = TPolynomial.zero(r)
    for coeff, lam, exps in terms:
        if isinstance(coeff, tuple):
            c = qs(r, *coeff)
        else:
            c = qs(r, coeff)
        total = total + TPolynomial.monomial(r, c, lam, exps)
    return total


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


def ordered_w_terms(r, k, j, m, creator_cap, annihilator_cap):
    """Build W(k, j, m) from ordered oscillator tuples with coefficient
    1/(k-j)! each, then collect by normal-ordered shape.  Independent of
    the package's multiset enumeration."""
    size = k - j
    net = r * m + j * (r + 1)
    unit = (QScalar.of(r, 0, -r) ** j) * Fraction(1, factorial(j) * factorial(size))
    values = [u for u in range(-creator_cap, annihilator_cap + 1) if u and u % r]
    acc = {}
    for tup in product(values, repeat=size):
        if sum(tup) != net:
            continue
        if sum(u for u in tup if u > 0) > annihilator_cap:
            continue
        if -sum(u for u in tup if u < 0) > creator_cap:
            continue
        key = (
            tuple(sorted(-u for u in tup if u < 0)),
            tuple(sorted(u for u in tup if u > 0)),
        )
        acc[key] = acc.get(key, QScalar.of(r, 0)) + unit
    terms = [
        NormalTerm(cre, ann, coeff, -j) for (cre, ann), coeff in acc.items() if coeff
    ]
    if k == 2 and j == 0 and m == 0:
        terms.append(NormalTerm((), (), QScalar.of(r, Fraction(r * r - 1, 24)), 0))
    terms.sort(key=lambda t: (t.creators, t.annihilators))
    return tuple(terms)


def ordered_apply_w(r, k, j, m, poly, creator_cap):
    """Apply W(k, j, m) by walking ordered tuples one oscillator at a time."""
    size = k - j
    net = r * m + j * (r + 1)
    ann_cap = poly.max_weight()
    unit = (QScalar.of(r, 0, -r) ** j) * Fraction(1, factorial(j) * factorial(size))
    values = [u for u in range(-creator_cap, ann_cap + 1) if u and u % r]
    total = TPolynomial.zero(r)
    for tup in product(values, repeat=size):
        if sum(tup) != net:
            continue
        if sum(u for u in tup if u > 0) > ann_cap:
            continue
        if -sum(u for u in tup if u < 0) > creator_cap:
            continue
        out = poly
        for u in sorted(tup, reverse=True):  # normal order: annihilators first
            out = apply_beta(u, out)
            if out.is_zero:
                break
        total = total + out.scaled(unit).shift_lambda(-j)
    if k == 2 and j == 0 and m == 0:
        total = total + poly.scaled(QScalar.of(r, Fraction(r * r - 1, 24)))
    return total


def ordered_apply_raiser(r, l, poly, target_degree):
    """Degree raiser rebuilt on the ordered-tuple oracle."""
    w_in = (target_degree - l) * (r + 1)
    assert poly.is_homogeneous(w_in)
    total = TPolynomial.zero(r)
    for k in range(l + 1, r + 1):
        for m in range(0, mode_bound(r, k, target_degree) + 1):
            j = k - 1 - l
            w_mid = w_in - (r * (m - k + 1) + j * (r + 1))
            if w_mid < 0:
                continue
            inner = ordered_apply_w(r, k, j, m - k + 1, poly, w_mid)
            if inner.is_zero:
                continue
            n_out = r * m + k - 1
            pref = (QScalar.of(r, 0, -r) ** (k - 1)).inv() * Fraction(
                -factorial(k - 1) * n_out, r + 1
            )
            total = total + inner.mul_var(n_out, 1).scaled(pref).shift_lambda(k - 2)
    return total


# -- power-series oracle for the graded log ---------------------------------


def _drop_above(poly, cap):
    return TPolynomial._raw(poly.r, {m: c for m, c in poly.terms.items() if m.weight <= cap})


def power_series_log(tau) -> TPolynomial:
    """log(1 + x) = sum_k (-1)^(k+1) x^k / k with x = tau_1 + .. + tau_D,
    every power truncated above weight D*(r+1) after a plain product."""
    r, D = tau.r, tau.max_degree
    cap = D * (r + 1)
    x = TPolynomial.sum_of(r, tau.pieces[1:])
    result = TPolynomial.zero(r)
    power = TPolynomial.one(r)
    for k in range(1, D + 1):
        power = _drop_above(power.mul(x), cap)
        result = result + power.scaled(Fraction((-1) ** (k + 1), k))
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
