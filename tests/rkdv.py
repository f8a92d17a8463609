"""Independent r-spin oracle: Witten's conjecture through the Gelfand-Dickey
(r-KdV) hierarchy, in exact arithmetic over formal pseudo-differential
operators.  Shares no code with the package.

Setting.  L = d^r + u_{r-2} d^(r-2) + .. + u_0 with d = d/dx, x = t_1, and
the KP flows d L / d t_p = [(L^(p/r))_+, L] for p not divisible by r; the
tau function satisfies d_x d_p log tau = res L^(p/r) (the coefficient of
d^-1).  The string equation fixes L on the line where every time but x
vanishes: L_0 = d^r + x (only <t_{0,0}^2 t_{0,r-2}>_0 survives there).
Derivatives along the other times follow from the flows alone (compare
Liu-Vakil-Xu, arXiv:1112.4601): with Phi_q = L^(q/r),

    d_p Phi_q = [(Phi_p)_+, Phi_q],

so d_S res Phi_q at t = 0 is a sum of nested commutators of the powers of
L_0, whose coefficients are polynomials in x.  Taking each commutator only
as deep as its residue needs keeps every operator finite.

Normalization.  Insertion tau_{m,a} is the time with p = r*m + a + 1, and

    <tau_{m_1,a_1} .. tau_{m_n,a_n}>_g
        = (-r)^(g-1) (-1/r)^d prod_i c_{m_i,a_i} * d^n log tau / dt_{p_1}..dt_{p_n}

with d = 2g - 2 + n and c_{m,a} = (-1)^m / prod_{i=0..m} (i + (a+1)/r), the
Gelfand-Dickey flow constants of Witten's conjecture; the two scalings are
those that rescale x and the genus parameter, and they reproduce the
published r = 2 and r = 3 tables.  A correlator with no tau_{0,0} is
lifted by the string equation: raising its highest insertion and adding
tau_{0,0} gives it back plus correlators with a more uneven level
distribution, so the recursion ends.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb, factorial, gcd

# An operator is a pair (terms, den): terms maps each order of d to its
# coefficient, a polynomial in x given by its integer numerators (a tuple,
# index = power), and den > 0 is one denominator shared by every numerator.
# Products and sums come out reduced (den and all numerators coprime), so
# the arithmetic below runs on small integers and forms no Fraction at all.


def _padd(a, b):
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, v in enumerate(b):
        out[i] += v
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def _pscale(a, c):
    return tuple(v * c for v in a) if c else ()


def _pmul(a, b):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return tuple(out)


def _pder(a):
    return tuple(i * a[i] for i in range(1, len(a)))


def _binom(n, k):
    """n choose k for any integer n; negative n are the orders of d^-1 and
    below, where it is (-1)^k (k - n - 1 choose k)."""
    if n >= 0:
        return comb(n, k)
    return (-1) ** k * comb(k - n - 1, k)


def _reduced(terms, den):
    """The operator terms/den with zero coefficients dropped, in lowest terms."""
    terms = {i: v for i, v in terms.items() if v}
    g = den
    for v in terms.values():
        for c in v:
            g = gcd(g, c)
    if g == 1:
        return terms, den
    return {i: tuple(c // g for c in v) for i, v in terms.items()}, den // g


def _mul(A, B, lo):
    """Product of operators, kept at orders >= lo."""
    (ta, da), (tb, db) = A, B
    out = {}
    for i, a in ta.items():
        for j, b in tb.items():
            k, bk = 0, b
            while bk and i + j - k >= lo:
                c = _binom(i, k)
                if c:
                    out[i + j - k] = _padd(out.get(i + j - k, ()), _pscale(_pmul(a, bk), c))
                k += 1
                bk = _pder(bk)
    return _reduced(out, da * db)


def _add(A, B, c=1):
    """A + c * B for an integer c."""
    (ta, da), (tb, db) = A, B
    den = da * db // gcd(da, db)
    out = {i: _pscale(v, den // da) for i, v in ta.items()}
    for i, v in tb.items():
        out[i] = _padd(out.get(i, ()), _pscale(v, den // db * c))
    return _reduced(out, den)


def _positive(A):
    terms, den = A
    return {i: v for i, v in terms.items() if i >= 0}, den


class GelfandDickeyOracle:
    """Correlators of Witten's r-spin class from the r-KdV hierarchy."""

    def __init__(self, r: int):
        self.r = r
        self._root = (({1: (1,)}, 1), 1)  # (operator, exact down to this order)
        self._derivs = {}  # (q, S) -> (operator, exact down to this order)
        self._values = {}

    def _root_to(self, lo):
        """L_0^(1/r) = d + q_{-1} d^-1 + .., exact at orders >= lo."""
        root, known = self._root
        r = self.r
        L = {r: (1,), 0: (0, 1)}
        while known > lo:
            order = known - 1
            # the d^order coefficient first enters Q^r at order r - 1 + order
            target = r - 1 + order
            power = ({0: (1,)}, 1)
            for _ in range(r):
                power = _mul(power, root, target - r)
            terms, den = power
            diff = _padd(_pscale(L.get(target, ()), den), _pscale(terms.get(target, ()), -1))
            if diff:
                root = _add(root, ({order: diff}, den * r))
            known = order
        self._root = (root, known)
        return root

    def _deriv(self, q, S, lo):
        """d_S Phi_q at t = 0 (a function of x), exact at orders >= lo."""
        got = self._derivs.get((q, S))
        if got is not None and got[1] <= lo:
            return got[0]
        if not S:
            root = self._root_to(lo - q)
            out = ({0: (1,)}, 1)
            for _ in range(q):
                out = _mul(out, root, lo - q)
            out = ({i: v for i, v in out[0].items() if i >= lo}, out[1])
        else:
            p, rest = S[-1], S[:-1]
            counts = Counter(rest)
            values = sorted(counts)
            out = ({}, 1)

            def splits(idx):
                if idx == len(values):
                    yield (), 1
                    return
                v = values[idx]
                for used in range(counts[v] + 1):
                    for tail, mult in splits(idx + 1):
                        yield (v,) * used + tail, mult * comb(counts[v], used)

            for part, mult in splits(0):
                B = _positive(self._deriv(p, part, 0))
                if not B[0]:
                    continue
                top = max(B[0])
                other = tuple(sorted((counts - Counter(part)).elements()))
                Phi = self._deriv(q, other, lo - top)
                out = _add(out, _mul(B, Phi, lo), mult)
                out = _add(out, _mul(Phi, B, lo), -mult)
        self._derivs[(q, S)] = (out, lo)
        return out

    def kp_derivative(self, ps) -> Fraction:
        """d^n log tau / dt_{p_1} .. dt_{p_n} at t = 0; ps must contain 1."""
        ps = sorted(ps)
        ones = ps.count(1)
        others = [p for p in ps if p != 1]
        if not others:
            others, ones = [1], ones - 1
        terms, den = self._deriv(others[-1], tuple(others[:-1]), -1)
        res = terms.get(-1, ())
        e = ones - 1
        return Fraction(res[e] * factorial(e), den) if e < len(res) else Fraction(0)

    def genus(self, insertions) -> int | None:
        """Genus from the selection rule, or None when it has no solution."""
        r = self.r
        excess = r * sum(m for m, _ in insertions) + sum(a for _, a in insertions) - r * len(insertions)
        if excess % (2 * (r + 1)):
            return None
        return excess // (2 * (r + 1)) + 1

    def correlator(self, insertions) -> Fraction:
        """<prod tau_{m,a}> for an iterable of (m, a) pairs."""
        ins = tuple(sorted(insertions))
        if ins in self._values:
            return self._values[ins]
        r, n = self.r, len(ins)
        g = self.genus(ins)
        if g is None or g < 0 or 2 * g - 2 + n <= 0:
            value = Fraction(0)
        elif (0, 0) in ins:
            d = 2 * g - 2 + n
            value = Fraction(-r) ** (g - 1) * Fraction(-1, r) ** d
            value *= self.kp_derivative([r * m + a + 1 for m, a in ins])
            for m, a in ins:
                c = Fraction(1)
                for i in range(m + 1):
                    c *= i + Fraction(a + 1, r)
                value *= (-1) ** m / c
        else:
            top = max(range(n), key=lambda i: ins[i])
            raised = list(ins)
            raised[top] = (ins[top][0] + 1, ins[top][1])
            value = self.correlator(raised + [(0, 0)])
            for i in range(n):
                if i != top and ins[i][0]:
                    lowered = list(raised)
                    lowered[i] = (ins[i][0] - 1, ins[i][1])
                    value -= self.correlator(lowered)
        self._values[ins] = value
        return value
