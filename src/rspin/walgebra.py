"""Free-boson oscillator algebra, W-operator modes, and the degree-raising
operators that drive the graded recursion.

Conventions.  For a positive variable index u (u % r != 0) the oscillator
alpha_u with mode index u/r acts as lam * d/dT_u, and alpha_{-u} acts as
lam^{-1} * u * T_u.  Products are kept normal ordered: annihilators
(derivatives) act before creators (multiplications), so a finite list of
(creators, annihilators, coefficient) terms represents an operator
exactly.

The modes.  W(k, m), 2 <= k <= r, is the mode m of the spin-k current of
the free-fermion W-algebra W(gl_r) (W_{1+inf} at c = r; Frenkel, Kac,
Radul, Wang), taken in the Z_r-twisted module in which the r free bosons
X_a of the sheets a in Z_r become one boson with modes in (1/r)Z outside Z.
This is the twisted free-boson form of the Adler-van Moerbeke W_r
constraints (CMP 147 (1992) 25-56); by the twisted-module theorem of
Bakalov and Milanov (arXiv:1203.3414) the modes W(k, m), m >= 1 - k, of
every such current annihilate the r-spin partition function.  Three steps
build W(k, m):

1. Generator.  Bosonizing psi*_a d^(k-1) psi_a / (k-1)! on one sheet gives
   J_k = [eps^k] exp(sum_i eps^i X^(i) / i!), a polynomial in the
   derivatives X^(i) = d^(i-1) X'.  Charge conjugation C (psi <-> psi*,
   X -> -X) signs a monomial of p factors by (-1)^p, and C J_k is
   (-1)^k J_k plus derivatives of lower currents.  The generator keeps
   the monomials with p = k (mod 2), that is (J_k + (-1)^k C J_k) / 2:
   X'^2/2, (X'^3 + X''')/6, X'''X'/6 + X''^2/8 + X'^4/24, ...  This is
   still a W_{1+inf} current.  The part it drops is a sum of d^n J_l with
   l + n = k, and those modes m >= 1 - k annihilate on their own:
   (d^n J_l)_m = (-1)^n (m+l) .. (m+k-1) (J_l)_m is zero for
   1 - k <= m <= -l, and (J_l)_m annihilates for m >= 1 - l.  One parity
   keeps every A_l graded (below): each factor is one oscillator, and a
   pairing removes two.  A one-factor term such as X'''/6 gives no mode,
   since its sheet sum needs u = r*m, which is excluded.
2. Twisted normal ordering.  An untwisted normally ordered product equals
   the twisted normally ordered one plus every partial pairing of its
   factors, a pair of factors X^(i), X^(j) of one sheet replaced by the
   regular part of (twisted - untwisted) propagator at coincident points,
   _contraction(r, i, j) * z^(-i-j).  For X' X' this is (r^2-1)/(12 r^2),
   the familiar (r^2-1)/24 in W(2, 0); in the cubic current it leaves one
   factor, which gives no mode.  From spin 4 on, these terms and the
   derivative factors are what plain oscillator powers miss.
3. Modes.  X^(i) on sheet a is (1/r) sum_u alpha_u w^(-a u)
   (-u/r-1)_(i-1) z^(-u/r-i) (falling factorial, w = e^(2 pi i/r)); the
   sum over sheets keeps the ordered tuples with u_1 + .. + u_p = r*m and
   contributes r^(1-p).  Each ordered tuple is weighted by the product of
   its falling factorials, and W is scaled by r^(k-1), so its top part is
   the plain power sum (1/k!) sum alpha_{u_1} .. alpha_{u_k}.  Dilaton
   constants (below) fill slots too, with the label 0; the sum over the
   orderings recurses over the derivative slots only.

The dilaton shift replaces alpha_{-(r+1)} by alpha_{-(r+1)} - r*s/lam, with
s = sqrt(-r).  W(k, j, m) is the part with j such constants (weight
(1/r)_(i-1) each), so it is (-r*s/lam)^j times rational normal-ordered
terms, and its oscillators have mode indices summing to m + j(r+1)/r.
The j-power alternates in sign; the r=3 degree-one tau fixture pins this
convention (with the non-alternating variant the k=2 and k=3
contributions of the first raising operator cancel to zero).  For k <= 3 all of this reduces to
the plain normal-ordered powers plus the one constant in W(2, 0, 0).

Applying W(k, j, m) changes the weight by exactly -r*m - j*(r+1): a term
whose annihilators weigh wa has creators weighing wa + r*m + j*(r+1).  An
annihilator block heavier than a monomial kills it, so the terms up to the
input's own maximal weight apply W(k, j, m) exactly, and no caller needs to
say how far to truncate.

The grading carries s and lam: a block of W(k, j, m) is its (creators,
annihilators, numerator) rows of one annihilator weight, over the one
denominator of all the currents of r (_twisted_currents), its index
tuples non-increasing, the very tuples _partitions caches, and the caller
of the kernel applies the one power of -r*s/lam of the whole operator.  A
graded polynomial, as every tau piece is, has one offset lam + N over its
monomials (N the variable count) and coefficients all in Q or all in Q*s.
An oscillator moves lam and N together, so a normal-ordered term keeps the
offset, and W(k, j, m) maps a graded input to a graded output whose offset
is j lower and whose s-parity flips j times (s^p goes to s^(p + 3j), as
-r*s = s^3).

The kernel (_operator_loop) is packed in and packed out: an input
monomial is one int key (tpoly.exponent_fields), its exponents and an
integer numerator.  An operator is (groups, prefixes): its terms over
one denominator, grouped by annihilator multiset as {annihilators: (key,
creator keys, numerators)}, and every prefix of those multisets.  A group
that divides a monomial is one int to subtract, each creator key one int
to add, with an int product into one accumulator.  Packing is tpoly's one
rule, and the kernel is the package's one operator path.  Every operator
is a grown mode sum (_ModeSum): modes W(k, j, m), each under a creator
tag and an int scale, whose blocks _add_block adds into {annihilators:
{creator key: numerator}} and _kernel_operator turns into (groups,
prefixes).  A block lighter than r*m + j*(r+1) has no creators and one
heavier than an input acts on it as zero, so a sum grown to an input's
weight adds just the blocks it newly reaches.  The raisers are mode sums
(below), and verify reads the equations of degree d as sum_c C_c
tau_{d-c}, C_c the sum of W(k, k-1-c, m) over the equations' (k, m).

A degree raiser A_l = sum_{k,m} c_k T_{r*m+k-1} W(k, k-1-l, m-k+1), with
c_k = -(k-1)!/(r+1) * (-r*s/lam)^(1-k), is one kernel call: T_{r*m+k-1}
is a creator, so adding it to each inner term keeps the term normal
ordered.  The powers of -r*s/lam of c_k and of the inner mode combine to
(-r*s/lam)^(-l) for every k, so a term carries the int -(k-1)! and the
operator's denominator the r+1, and A_l moves the offset up by l.  A
term whose annihilators weigh wa has creators weighing wa + l*(r+1).
Each A_l is one mode sum per layout (_raiser), a mode for each T_n,
n = r*m+k-1, of the layout, tagged with T_n and scaled by -(k-1)! n, so
that rows of any k and m with equal annihilators and creators add into
one integer over (r+1) times the currents' denominator.  A process holds
one layout's raisers: a raise over another drops them.  A tuple of slots
weighs an integer over r^(sum(orders) - len(orders)), or a multinomial
count, from the run counts _partitions carries, if all are order 1.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm, prod

from .errors import InvalidSpecError


def _divisors(
    exps: tuple[tuple[int, int], ...], prefixes: set[tuple[int, ...]]
) -> list[tuple[tuple[int, ...], int]]:
    """Sub-multisets of the monomial with these (ascending) exponents whose
    non-increasing index tuples lie in prefixes, each with its derivative
    multiplicity prod e!/(e-c)! over the variables taken c times.  A tuple
    outside prefixes starts no annihilator multiset, so nothing is built
    on it."""
    out = [((), 1)]
    for n, e in reversed(exps):
        for i in range(len(out)):
            taken, mult = out[i]
            for c in range(1, e + 1):
                taken += (n,)
                if taken not in prefixes:
                    break
                mult *= e - c + 1
                out.append((taken, mult))
    return out


def _operator_loop(op: tuple[dict, set], rows) -> dict[int, int]:
    """The kernel: for each input row (key, exps, x) and each group of the
    operator (groups, prefixes) that _divisors shows divides it, subtract
    the group's key (no field borrows) and add x * mult * numerator at each
    of its creator keys."""
    groups, prefixes = op
    acc: dict[int, int] = {}
    get = acc.get
    for key, exps, x in rows:
        for taken, mult in _divisors(exps, prefixes):
            hit = groups.get(taken)
            if hit is None:
                continue
            ann, cres, nums = hit
            left, n = key - ann, x * mult
            for cre, numerator in zip(cres, nums):
                out_key = left + cre
                acc[out_key] = get(out_key, 0) + n * numerator
    return acc


def _kernel_operator(acc: dict, shift: dict[int, int]) -> tuple[dict, set]:
    """The kernel's operator (groups, prefixes) of _add_block's {annihilators:
    {creator key: numerator}}, the annihilators non-increasing as _divisors
    takes them: zeros dropped, each group with its annihilators' key."""
    groups = {}
    for anns, row in acc.items():
        kept = {key: x for key, x in row.items() if x}
        if kept:
            groups[anns] = (sum(1 << shift[u] for u in anns), tuple(kept), tuple(kept.values()))
    return groups, {anns[:i] for anns in groups for i in range(len(anns) + 1)}


@lru_cache(maxsize=None)
def _partitions(
    total: int, count: int, r: int, max_part: int | None = None
) -> tuple[tuple[tuple[int, ...], int, int], ...]:
    """Multisets of `count` positive integers, none divisible by r nor above
    max_part, summing to `total`, in descending order, each as (parts, runs,
    product): its non-increasing tuple, the product of the factorials of the
    counts of equal parts, and the product of the parts.  The largest part
    is at least the mean, so the search stops there."""
    if count == 0 or total < count:
        return (((), 1, 1),) if total == count == 0 else ()
    hi = min(total - count + 1, total if max_part is None else max_part)
    return tuple(
        ((first,) + rest, runs * (rest.count(first) + 1), first * size)
        for first in range(hi, -(-total // count) - 1, -1)
        if first % r
        for rest, runs, size in _partitions(total - first, count - 1, r, first)
    )


def _falling(a: Fraction, n: int) -> Fraction:
    out = Fraction(1)
    for t in range(n):
        out *= a - t
    return out


def _generator(k: int) -> dict[tuple[int, ...], Fraction]:
    """Spin-k current of one sheet, as {derivative orders (non-increasing):
    coefficient}: the monomials of [eps^k] exp(sum_i eps^i X^(i) / i!)
    whose factor count has the parity of k, its charge-conjugation
    eigenpart, with no integration by parts.  A change to the modes bumps
    serialize.MODE_CONSTRUCTION and re-measures cli.ORACLE_CHECKED_DEPTH."""
    current: dict[tuple[int, ...], Fraction] = {}
    for count in range(2 - k % 2, k + 1, 2):  # the factor counts of k's parity
        for orders, _, _ in _partitions(k, count, k + 1):  # no part is a multiple of k+1
            coeff = Fraction(1)
            for i, e in Counter(orders).items():
                coeff /= factorial(i) ** e * factorial(e)
            current[orders] = coeff
    return current


@lru_cache(maxsize=None)
def _contraction(r: int, i: int, j: int) -> Fraction:
    """g with d_z^(i-1) d_w^(j-1) G(z, w) = g z^(-i-j) at w = z, where
    G = <X'_a(z) X'_a(w)>_twisted - (1 - 1/r)/(z - w)^2 = z^-2 h(w/z) and

        h(q) = q^(1/r - 1) / (r^2 (1 - q^(1/r))^2) - 1/(1 - q)^2,

    which is regular at q = 1."""
    size = i + j + 1
    a = Fraction(1, r)
    # with q = 1 + x: q^(1/r) - 1 = x * d(x) and h = x^-2 (q^(1/r-1) / (r^2 d^2) - 1)
    d = [_falling(a, n + 1) / factorial(n + 1) for n in range(size + 2)]
    d2 = [sum(d[t] * d[n - t] for t in range(n + 1)) for n in range(size + 2)]
    inv = [1 / d2[0]]
    for n in range(1, size + 2):
        inv.append(-sum(d2[t] * inv[n - t] for t in range(1, n + 1)) / d2[0])
    power = [_falling(a - 1, n) / factorial(n) for n in range(size + 2)]
    h = [sum(power[t] * inv[n + 2 - t] for t in range(n + 3)) / (r * r) for n in range(size)]
    total = Fraction(0)
    for e in range(i):
        n = e + j - 1
        total += h[n] * factorial(n) * comb(i - 1, e) * (-1) ** e * _falling(Fraction(-1 - e - j), i - 1 - e)
    return total


@lru_cache(maxsize=None)
def _contracted(r: int, orders: tuple[int, ...]) -> dict[tuple[int, ...], Fraction]:
    """The partial pairings of factors of these (non-increasing) orders,
    summed as {unpaired orders: sum of the products of their contractions}.
    The first factor stays unpaired or pairs with one factor of each distinct
    later order, weighted by that order's count.  Cached: do not mutate."""
    if not orders:
        return {(): Fraction(1)}
    first, rest = orders[0], orders[1:]
    out = {(first,) + unpaired: w for unpaired, w in _contracted(r, rest).items()}
    for other, count in Counter(rest).items():
        idx = rest.index(other)
        factor = count * _contraction(r, first, other)
        for unpaired, w in _contracted(r, rest[:idx] + rest[idx + 1:]).items():
            out[unpaired] = out.get(unpaired, 0) + factor * w
    return out


@lru_cache(maxsize=None)
def _twisted_currents(r: int) -> tuple[int, dict[int, tuple[tuple[tuple[int, ...], int], ...]]]:
    """The spin-k currents of r, k = 2..r, on the twisted module over one
    denominator: it and, by k, the twisted normally ordered sheet monomials
    (derivative orders, integer numerator), constants included, each scaled
    by the r^(k - len(orders)) of W and its sheet sum and by the
    1/r^(sum(orders) - len(orders)) of _tuple_weight."""
    currents = {}
    for k in range(2, r + 1):
        acc: dict[tuple[int, ...], Fraction] = {}
        for orders, coeff in _generator(k).items():
            for unpaired, w in _contracted(r, orders).items():
                acc[unpaired] = acc.get(unpaired, 0) + coeff * w
        currents[k] = sorted(((o, c * Fraction(r**k, r ** sum(o))) for o, c in acc.items() if c), reverse=True)
    den = lcm(*(c.denominator for terms in currents.values() for _, c in terms))
    return den, {k: tuple((o, c.numerator * (den // c.denominator)) for o, c in terms) for k, terms in currents.items()}


@lru_cache(maxsize=None)
def _slot_weight(r: int, u: int, order: int) -> int:
    """Weight (-u/r - 1)_(order-1) of alpha_u in a slot of this derivative
    order, times r^(order-1); u = 0 labels a dilaton constant, (1/r)_(order-1)."""
    return prod((1 - r * t) if u == 0 else (-u - r - r * t) for t in range(order - 1))


def _tuple_weight(r: int, labels: tuple[int, ...], orders: tuple[int, ...]) -> int:
    """Sum over the distinct orderings of these labels (alpha_u, u < 0 a
    creator, 0 a constant), in any order, of the product of their slot
    weights, times r^(sum(orders) - len(orders)).  The orders are
    non-increasing: sorted, equal labels are runs, each derivative slot
    takes each distinct label in turn, and the order-1 slots left weigh 1
    per ordering, a multinomial count of the runs."""
    if not orders or orders[0] == 1:
        return factorial(len(labels)) // prod(factorial(labels.count(u)) for u in set(labels))
    labels = tuple(sorted(labels))
    total = 0
    for i, u in enumerate(labels):
        if not i or u != labels[i - 1]:
            total += _slot_weight(r, u, orders[0]) * _tuple_weight(r, labels[:i] + labels[i + 1:], orders[1:])
    return total


def _add_block(r: int, k: int, j: int, m: int, wa: int, acc: dict, shift: dict[int, int], tag: int, scale: int) -> int:
    """Add scale times the block of W(k, j, m), without its (-r*s/lam)^j, whose
    annihilators weigh wa into acc, a defaultdict(dict) of {annihilators:
    {creator key: numerator}} over the den of _twisted_currents(r), and
    return the rows read, one per annihilator and creator tuple of each
    current term.  The creators weigh wa - r*m - j*(r+1), so a lighter
    block has none; their key plus tag is the creator key, and their
    product a factor, as alpha_{-u} multiplies by u.  Order-1 slots only
    weigh len(orders)! / (j! R(annihilators) R(creators)), R the run
    counts of _partitions; other orders weigh _tuple_weight."""
    wc, read = wa - r * m - j * (r + 1), 0
    for orders, coeff in _twisted_currents(r)[1][k]:
        plain, count = not orders or orders[0] == 1, factorial(len(orders)) // factorial(j)
        for p in range(len(orders) - j + 1):  # number of annihilators
            anns = _partitions(wa, p, r)
            for cre, runs, size in _partitions(wc, len(orders) - j - p, r) if anns else ():
                key, x = tag + sum(1 << shift[u] for u in cre), scale * coeff * size
                read += len(anns)
                labels = (0,) * j + tuple(-u for u in cre)
                for ann, n, _ in anns:
                    weight = count // runs // n if plain else _tuple_weight(r, ann + labels, orders)
                    row = acc[ann]
                    row[key] = row.get(key, 0) + x * weight
    return read


def mode_bound(r: int, k: int, target_degree: int) -> int:
    """Largest outer mode index m that can contribute when raising into the
    given target degree: the created variable T_{r*m + k - 1} must still fit
    in a monomial of weight target_degree * (r + 1)."""
    if not 2 <= k <= r:
        raise InvalidSpecError(f"k must lie in [2, r={r}], got {k}")
    return (target_degree * (r + 1) - (k - 1)) // r


class _ModeSum:
    """The sum of scale * W(k, j, m), creator keys offset by tag, over the
    (k, j, m, tag, scale) of modes, without the modes' powers of -r*s/lam:
    the kernel operator of its terms whose annihilators weigh at most top,
    over den; blocks counts the mode blocks it added, each once, read their
    rows, and seconds the time its growth took."""

    def __init__(self, r: int, shift: dict[int, int], modes: list[tuple[int, int, int, int, int]], den: int):
        self.r, self.shift, self.modes, self.den = r, shift, modes, den
        self.top, self.read, self.blocks, self.seconds, self.op = -1, 0, 0, 0.0, ({}, set())

    def grow(self, top: int) -> None:
        """Add the blocks whose annihilators weigh more than self.top and at
        most top; the layout must hold each block's creators."""
        if top <= self.top:
            return
        start = time.perf_counter()
        r, shift = self.r, self.shift
        acc: dict = defaultdict(dict)
        for k, j, m, tag, scale in self.modes:
            for wa in range(max(r * m + j * (r + 1), self.top + 1), top + 1):
                self.read += _add_block(r, k, j, m, wa, acc, shift, tag, scale)
                self.blocks += 1
        groups, prefixes = _kernel_operator(acc, shift)
        self.op[0].update(groups)  # of new annihilator weights, so no group is held yet
        self.op[1].update(prefixes)
        self.top = top
        self.seconds += time.perf_counter() - start


def _raiser(r: int, l: int, shift: dict[int, int]) -> _ModeSum:
    """A_l over one layout, without its (-r*s/lam)^(-l): a mode
    W(k, k-1-l, m-k+1) for each T_n of the layout, n = r*m+k-1 and k > l,
    tagged with T_n and scaled by -(k-1)! n, by k and m.  A mode with
    n > target*(r+1) adds no block to a raise into degree target."""
    modes = [(n % r + 1, n % r - l, n // r - n % r, 1 << shift[n], -factorial(n % r) * n) for n in shift if n % r >= l]
    return _ModeSum(r, shift, sorted(modes), (r + 1) * _twisted_currents(r)[0])


_RAISERS: dict[tuple[int, int, int], _ModeSum] = {}  # (r, l, id(shift)) -> A_l of one layout, which keeps shift alive


def raisers_over(r: int, shift: dict[int, int]) -> dict[int, _ModeSum]:
    """The raisers built over this layout, {l: A_l} by l."""
    return {l: op for l in range(1, r) if (op := _RAISERS.get((r, l, id(shift)))) is not None}


def raise_packed(r: int, l: int, rows, target_degree: int, shift: dict[int, int]) -> tuple[dict[int, int], int]:
    """A_l without its (-r*s/lam)^(-l) on the kernel rows of a degree
    target_degree - l piece, its layout holding weight target_degree*(r+1):
    one kernel call on the layout's A_l, grown first to the input's weight,
    returning the numerators and their denominator.  A lighter call reuses
    it as it is: a term whose annihilators outweigh the input divides none
    of it.  A call over another layout first drops the raisers held."""
    key = (r, l, id(shift))
    op = _RAISERS.get(key)
    if op is None:
        if any(held[::2] != key[::2] for held in _RAISERS):
            _RAISERS.clear()
        op = _RAISERS[key] = _raiser(r, l, shift)
    op.grow((target_degree - l) * (r + 1))
    return _operator_loop(op.op, rows), op.den
