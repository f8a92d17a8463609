"""Oscillator algebra, W-mode construction, and the degree raisers."""

import hashlib
import itertools
import random
from collections import Counter
from fractions import Fraction
from math import factorial, prod

import pytest

from rspin import ContractError, InvalidSpecError, compute_tau, mode_bound
from rspin import check_commutators, compute_tau_exponential, verify, walgebra
from rspin.cli import ORACLE_CHECKED_DEPTH
from rspin.solver import _layout
from rspin.tpoly import exponent_fields, kernel_rows, pack_piece, reduced
from rspin.verify import constraint_equations, w_constraint_residuals
from rspin.walgebra import (
    _contraction,
    _falling,
    _generator,
    _partitions,
    _slot_weight,
    _tuple_weight,
    _twisted_currents,
    raise_packed,
)

from helpers import (
    SHEET_CURRENTS,
    NormalTerm,
    add,
    apply_beta,
    apply_operator_sum,
    apply_raising_operator,
    apply_term,
    apply_w_mode,
    const,
    is_homogeneous,
    is_zero,
    max_weight,
    mode_block,
    mode_table,
    mode_terms,
    monomial,
    one,
    ordered_apply_raiser,
    ordered_apply_w,
    ordered_w_terms,
    poly_of,
    q_scale,
    q_scaled,
    qs,
    raiser1_squared_on_one_r3,
    raiser2_on_one_r3,
    reference_tau,
    sheet_contraction,
    sum_of,
    tau1_r2,
    tau1_r3,
    unit_power,
    unit_scaled,
    var,
    zero,
)


def graded_monomial(r, coeff, offset, exps):
    """coeff * lam^(offset - N) * prod T_n^e_n, N the variable count: a
    monomial with lam + N = offset."""
    return monomial(r, coeff, offset - sum(exps.values()), exps)


def gradings(poly):
    """The (lam + N, s-parity) pairs over the monomials of poly, a mixed
    coefficient counting as parity None."""
    return {
        (m.lambda_exp + sum(e for _, e in m.exps), None if c.a and c.b else int(bool(c.b)))
        for m, c in poly.terms.items()
    }


def test_apply_beta_creator():
    out = apply_beta(-2, one(3))
    assert out == monomial(3, 2, -1, {2: 1})


def test_apply_beta_annihilator():
    p = monomial(3, 1, 0, {1: 2})
    assert apply_beta(1, p) == monomial(3, 2, 1, {1: 1})


def test_apply_beta_absent_variable():
    p = monomial(3, 1, 0, {2: 1, 1: 1})
    assert is_zero(apply_beta(4, p))


def test_apply_beta_rejects_integral_modes():
    with pytest.raises(ValueError):
        apply_beta(3, one(3))
    with pytest.raises(ValueError):
        apply_beta(0, one(3))
    with pytest.raises(ValueError):
        apply_beta(-6, one(2))


def test_normal_term_mixed():
    term = NormalTerm(creators=(2,), annihilators=(1,), coeff=Fraction(1))
    p = monomial(3, 1, 0, {1: 1, 4: 1})
    assert apply_term(term, p) == monomial(3, 2, 0, {2: 1, 4: 1})


def test_normal_term_annihilates():
    term = NormalTerm(creators=(), annihilators=(5,), coeff=Fraction(1))
    assert is_zero(apply_term(term, monomial(3, 1, 0, {2: 4})))


def test_normal_term_pure_creators():
    term = NormalTerm(creators=(1, 1), annihilators=(), coeff=Fraction(1))
    assert apply_term(term, one(3)) == monomial(3, 1, -2, {1: 2})


def test_operator_sum_shares_derivatives_exactly():
    # apply_operator_sum differentiates each monomial once per annihilator
    # multiset and shares that among the terms with those annihilators; the
    # result must equal the plain sum of single-term applications, times
    # the mode's (-r*s/lam)^j
    p = add(_homogeneous_poly(4, 15, offset=-2), graded_monomial(4, 3, -2, {1: 2, 6: 1, 7: 1}))
    for k, j, m in ((4, 0, -1), (4, 1, 0), (3, 0, 1)):
        terms = mode_terms(4, k, j, m, max_weight(p))
        plain = unit_scaled(sum_of(4, (apply_term(t, p) for t in terms)), j)
        assert apply_operator_sum(terms, p, j) == plain
        assert not is_zero(plain)


def test_operator_sum_over_coprime_denominators():
    # rational and s-only inputs over denominators 7, 11, 13 against
    # rational terms over 17, 19: the common denominators are the full
    # products, and under an odd power of -r*s the -r of s*s lands on the
    # output of an s-only input
    r = 5
    exps = ({1: 2, 2: 1}, {1: 1, 3: 1}, {2: 2})
    coeffs = (Fraction(3, 7), Fraction(-5, 13), Fraction(6, 11))
    terms = (
        NormalTerm((2,), (1,), Fraction(5, 17)),
        NormalTerm((1, 3), (1, 1), Fraction(7, 19)),
        NormalTerm((), (2,), Fraction(-1, 17 * 19)),
        NormalTerm((4,), (), Fraction(3, 19)),
        NormalTerm((2, 2), (1,), Fraction(-4, 17)),
    )
    for parity in (0, 1):
        p = sum_of(
            r, (graded_monomial(r, qs(0, c) if parity else qs(c), 1, e) for c, e in zip(coeffs, exps))
        )
        plain = sum_of(r, (apply_term(t, p) for t in terms))
        for n in (0, 1, -1):
            out = apply_operator_sum(terms, p, n)
            assert out == unit_scaled(plain, n)
            assert gradings(out) == {(1 - n, (parity + n) % 2)}
            assert max((c.b if (parity + n) % 2 else c.a).denominator for c in out.terms.values()) > 7 * 17


def test_operator_sum_stores_no_cancelled_coefficient():
    # the first four terms cancel exactly, on a rational and on an s-only
    # input; the last two meet on T4 from T1 and from T2, where their
    # contributions cancel, so T4 is not stored, before or after an odd
    # power of -r*s/lam
    r = 3
    for unit in (qs(1), qs(0, 1)):
        p = sum_of(
            r,
            (
                graded_monomial(r, q_scale(unit, Fraction(2, 5)), 1, {1: 2, 2: 1}),
                graded_monomial(r, q_scale(unit, Fraction(1, 7)), 1, {1: 1, 4: 1}),
                graded_monomial(r, unit, 1, {1: 1}),
                graded_monomial(r, q_scale(unit, -2), 1, {2: 1}),
            ),
        )
        cancelling = (
            NormalTerm((2,), (1,), Fraction(1, 3)),
            NormalTerm((2,), (1,), Fraction(-1, 3)),
            NormalTerm((5,), (4,), Fraction(3, 7)),
            NormalTerm((5,), (4,), Fraction(-3, 7)),
        )
        for n in (0, 1):
            assert apply_operator_sum(cancelling, p, n).terms == {}
        half = (
            NormalTerm((4,), (1,), Fraction(1, 2)),
            NormalTerm((4,), (2,), Fraction(1, 4)),
        )
        for n in (0, 1):
            out = apply_operator_sum(cancelling + half, p, n)
            assert out == unit_scaled(sum_of(r, (apply_term(t, p) for t in half)), n)
            assert ((4, 1),) not in {m.exps for m in out.terms}
            assert len(out.terms) == 3 and all(out.terms.values())


def test_kernel_fields_hold_the_top_weight():
    # the packed exponent fields are sized per call from the input's top
    # weight plus the heaviest creator set.  T_1, whose field is the widest,
    # carries the whole top weight W: alone, under terms without creators,
    # and raised by up to three creators to the bound W + 3 on weights at
    # and around the powers of two, where a field gains a bit.  T_100 is
    # heavier than any call's bound, so it has no field and its annihilator
    # divides nothing
    r = 3
    plain_terms = (
        NormalTerm((), (), Fraction(1)),
        NormalTerm((), (1,), Fraction(1, 2)),
        NormalTerm((), (1, 1, 2), Fraction(-3)),
        NormalTerm((1,), (1, 100), Fraction(5)),
    )
    raising_terms = plain_terms + (
        NormalTerm((1,), (), Fraction(1)),
        NormalTerm((1, 1, 1), (), Fraction(2, 5)),
        NormalTerm((1, 1), (2,), Fraction(-1, 3)),
        NormalTerm((2,), (1,), Fraction(7)),
    )
    for weight in (1, 3, 4, 7, 8, 15, 16, 31, 32, 63):
        for unit in (qs(1), qs(0, 1)):
            p = graded_monomial(r, unit, 2, {1: weight})
            if weight >= 4:
                p = add(p, graded_monomial(r, q_scale(unit, 3), 2, {1: weight - 4, 2: 2}))
            for terms in (plain_terms, raising_terms):
                for n in (0, 1):
                    out = apply_operator_sum(terms, p, n)
                    assert out == unit_scaled(sum_of(r, (apply_term(t, p) for t in terms)), n)
            top = {m.exps for m in apply_operator_sum(raising_terms, p, 0).terms}
            assert ((1, weight),) in top and ((1, weight + 3),) in top
    # the solver packs every piece in one layout of top weight D*(r+1); at
    # r = 2, tau_D holds T_1^(3D), and at these D the T_1 field of weight
    # 3D has one bit more than that of 3(D-1)
    for depth in (2, 3, 6, 11):
        pieces = compute_tau(2, depth).pieces
        assert ((1, 3 * depth),) in {m.exps for m in pieces[depth].terms}
        assert pieces == tuple(reference_tau(2, depth))


def test_kernel_matches_single_terms_near_field_bounds():
    # random graded inputs whose heaviest monomial is a pure power
    # T_n^(2^k - 1), so T_n's field is full at the input's own weight, under
    # random terms whose creators repeat the small indices: many outputs
    # need the field room that the heaviest creator set adds
    rng = random.Random(53)
    for r in (2, 3, 4, 5):
        variables = [n for n in (1, 2, 3, 5) if n % r][:3]
        for _ in range(8):
            terms = tuple(
                NormalTerm(
                    tuple(sorted(rng.choice(variables) for _ in range(rng.randint(0, 4)))),
                    tuple(sorted(rng.choice(variables) for _ in range(rng.randint(0, 2)))),
                    Fraction(rng.choice((-3, -1, 1, 2)), rng.randint(1, 4)),
                )
                for _ in range(6)
            )
            offset, parity = rng.choice((-2, 0, 3)), rng.randrange(2)
            heavy, e = rng.choice(variables), rng.choice((3, 7, 15))
            shapes = [{heavy: e}] + [{n: rng.randint(0, 3) for n in variables} for _ in range(3)]
            p = sum_of(
                r,
                (
                    graded_monomial(r, _random_scalar(rng, parity), offset, exps)
                    for exps in shapes
                    if sum(n * c for n, c in exps.items()) <= heavy * e
                ),
            )
            n = rng.randint(-2, 2)
            plain = unit_scaled(sum_of(r, (apply_term(t, p) for t in terms)), n)
            assert apply_operator_sum(terms, p, n) == plain


def test_integer_weights_match_falling_products():
    # a slot weight is an integer over r^(order-1), a tuple weight one over
    # r^(sum(orders) - len(orders)); both against Fraction products of the
    # falling factorials, the tuple weight summed over distinct orderings.
    # Labels: creators (negative), the dilaton constant 0, annihilators
    rng = random.Random(61)
    for r in range(2, 8):
        labels = [u for u in range(-2 * r - 1, 2 * r + 2) if u % r or u == 0]
        for u in labels:
            for order in range(1, 6):
                base = Fraction(-u, r) - 1 if u else Fraction(1, r)
                assert Fraction(_slot_weight(r, u, order), r ** (order - 1)) == _falling(base, order - 1)
        for _ in range(40):
            size = rng.randint(1, 4)
            tup = tuple(rng.choice(labels[:3] + [0, 0] + labels[-3:]) for _ in range(size))
            orders = tuple(sorted((rng.randint(1, 5) for _ in range(size)), reverse=True))
            oracle = Fraction(0)
            for ordering in set(itertools.permutations(tup)):
                term = Fraction(1)
                for u, order in zip(ordering, orders):
                    term *= _falling(Fraction(-u, r) - 1 if u else Fraction(1, r), order - 1)
                oracle += term
            scale = r ** (sum(orders) - len(orders))
            assert Fraction(_tuple_weight(r, tup, orders), scale) == oracle, (r, tup, orders)


def test_partitions_match_brute_force():
    # the pruned, memoised enumeration against every multiset drawn by
    # combinations_with_replacement from a descending range, which come
    # non-increasing and in the same descending order; called twice, so
    # the second answer comes from the cache
    descending = range(20, 0, -1)
    for count in range(7):
        by_total = {}
        for parts in itertools.combinations_with_replacement(descending, count):
            if sum(parts) <= 20:
                by_total.setdefault(sum(parts), []).append(parts)
        for r in (2, 3, 4, 5):
            for total in range(21):
                expected = [parts for parts in by_total.get(total, []) if all(x % r for x in parts)]
                for max_part in (None, 1, 2, 5, 9):
                    capped = tuple(p for p in expected if max_part is None or not p or p[0] <= max_part)
                    assert tuple(p for p, _, _ in _partitions(total, count, r, max_part)) == capped
                    assert tuple(p for p, _, _ in _partitions(total, count, r, max_part)) == capped
                    # each entry carries its run-count product and its part product
                    for parts, runs, size in _partitions(total, count, r, max_part):
                        assert runs == prod(factorial(n) for n in Counter(parts).values())
                        assert size == prod(parts)


# Polynomials the kernel refuses: each is off the grading in one way
UNGRADED = {
    "mixed coefficient": graded_monomial(3, qs(1, 1), 1, {1: 1}),
    "both parities": add(graded_monomial(3, qs(1), 1, {1: 1}), graded_monomial(3, qs(0, 1), 1, {2: 1})),
    "two offsets": add(graded_monomial(3, qs(1), 1, {1: 1}), graded_monomial(3, qs(1), -1, {2: 1})),
}


@pytest.mark.parametrize("case", list(UNGRADED))
def test_kernel_refuses_ungraded_input(case):
    p = UNGRADED[case]
    with pytest.raises(ContractError, match="expected 1, Q"):
        apply_operator_sum((NormalTerm((1,), (1,), Fraction(1)),), p, 1)
    with pytest.raises(ContractError):
        apply_w_mode(3, 2, 0, -1, p)


def test_kernel_returns_zero_on_empty_input_or_terms():
    term = NormalTerm((1,), (1,), Fraction(1))
    assert apply_operator_sum((term,), zero(3), 1) == zero(3)
    assert apply_operator_sum((), var(3, 1), 1) == zero(3)
    assert apply_w_mode(3, 2, 0, -1, zero(3)) == zero(3)


def test_modes_move_the_grading():
    # graded in, graded out: W(k, j, m) moves the offset lam + N by -j and
    # the s-parity by j, the raiser A_l moves them by +l and l
    rng = random.Random(31)
    moved = raised = 0
    for r in (2, 3, 4, 5):
        for parity in (0, 1):
            offset = rng.randint(-3, 3)
            p = sum_of(r, (_random_monomial(rng, r, w, offset, parity) for w in (2, 3, 4)))
            for k in range(2, r + 1):
                for j in range(k):
                    for m in range(-(k - 1), 1):
                        out = apply_w_mode(r, k, j, m, p)
                        if out:
                            assert gradings(out) == {(offset - j, (parity + j) % 2)}, (r, k, j, m)
                            moved += 1
            piece = _random_homogeneous(rng, r, 1)
            (grade,) = gradings(piece)
            for l in range(1, r):
                out = apply_raising_operator(r, l, piece, 1 + l)
                assert gradings(out) == {(grade[0] + l, (grade[1] + l) % 2)}, (r, l)
                raised += 1
    assert moved >= 40 and raised == 2 * (1 + 2 + 3 + 4)


def test_currents_and_contractions_match_closed_forms():
    # the package derives both by series; the oracle's hand-written table
    # and closed forms must agree with them
    for k, current in SHEET_CURRENTS.items():
        assert _generator(k) == current
    for r in range(2, max(ORACLE_CHECKED_DEPTH) + 2):
        for i, j in ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)):
            assert _contraction(r, i, j) == sheet_contraction(r, i, j)


def test_w_terms_central_only():
    terms = mode_terms(3, 2, 0, 0, 0)
    assert terms == (NormalTerm((), (), Fraction(1, 3)),)


def test_w_terms_creator_pair():
    terms = mode_terms(3, 2, 0, -1, 0)
    pair = [t for t in terms if t.creators == (1, 2)]
    assert len(pair) == 1
    assert pair[0].coeff == 1


def test_w_terms_single_term_with_sign():
    # W(3, 1, -2) is -3*s/lam times the rational terms
    assert mode_terms(3, 3, 1, -2, 0) == (NormalTerm((1, 1), (), Fraction(1, 2)),)


def test_w_terms_rejects_bad_specs():
    # the package's entries that take a mode label: a constraint equation
    # (k, m) and the outer bound of a raiser (k); j is derived inside, so
    # no outside entry takes it
    tau = compute_tau(3, 1)
    for k, m in ((4, 0), (1, 0), (2, -2), (3, -3)):
        with pytest.raises(InvalidSpecError):
            w_constraint_residuals(tau, [(k, m, 1)])
    for k in (1, 4):
        with pytest.raises(InvalidSpecError):
            mode_bound(3, k, 1)


def test_apply_w_mode_central():
    out = apply_w_mode(3, 2, 0, 0, one(3))
    assert out == const(3, Fraction(1, 3))


def test_apply_w_mode_cubic_on_one():
    out = apply_w_mode(3, 3, 0, -2, one(3))
    expected = poly_of(
        3,
        (Fraction(4, 3), -3, {2: 3}),
        (2, -3, {1: 2, 4: 1}),
    )
    assert out == expected


def test_apply_w_mode_top_derivative():
    out = apply_w_mode(3, 2, 1, -1, var(3, 1))
    assert out == const(3, qs(0, -3))


def test_weight_shift_of_modes():
    rng = random.Random(11)
    for _ in range(40):
        r = rng.choice((2, 3, 4))
        k = rng.randint(2, r)
        j = rng.randint(0, k - 1)
        m = rng.randint(-(k - 1), 2)
        exps = {}
        budget = rng.randint(0, 6)
        while budget:
            n = rng.randint(1, budget)
            if n % r == 0:
                budget -= 1
                continue
            exps[n] = exps.get(n, 0) + 1
            budget -= n
        p = monomial(r, 1, 0, exps)
        w_in = max_weight(p)
        w_out = w_in - r * m - j * (r + 1)
        out = apply_w_mode(r, k, j, m, p)
        assert is_homogeneous(out, w_out) or is_zero(out)
        if w_out < 0:
            assert is_zero(out)


def _random_monomial(rng, r, weight, offset, parity):
    """Random monomial of exactly this weight with lam + N = offset, its
    coefficient in Q (parity 0) or in Q*s (parity 1)."""
    exps = {}
    while weight:
        n = rng.randint(1, weight)
        if n % r:
            exps[n] = exps.get(n, 0) + 1
            weight -= n
    return graded_monomial(r, _random_scalar(rng, parity), offset, exps)


def _random_scalar(rng, parity):
    """Nonzero, in Q (parity 0) or in Q*s (parity 1)."""
    x = rng.choice((-5, -3, -1, 2, 4))
    return qs(0, x) if parity else qs(x)


def test_cap_free_application_matches_ordered_oracle():
    # the oracle needs an explicit creator cap; the output weight bound
    # max_weight - r*m - j*(r+1) is the one that drops nothing.  The modes
    # and the inputs come from two streams, so the modes drawn do not hang
    # on how many draws an input takes (the oracle's cost grows steeply
    # with -m at r = 5)
    rng, inputs = random.Random(23), random.Random(24)
    nonzero = mixed = 0
    for case in range(30):
        r = rng.choice((2, 3, 4, 5))
        k = rng.randint(2, r)
        j, m = rng.randint(0, k - 1), rng.randint(-(k - 1), 1)
        weights = [rng.randint(0, 5)] * 3 if case % 2 == 0 else [rng.randint(0, 5) for _ in range(3)]
        offset, parity = inputs.randint(-2, 3), inputs.randrange(2)
        p = sum_of(r, (_random_monomial(inputs, r, w, offset, parity) for w in weights))
        mixed += not is_zero(p) and not is_homogeneous(p, max_weight(p))
        oracle = ordered_apply_w(r, k, j, m, p, max_weight(p) - r * m - j * (r + 1))
        out = apply_w_mode(r, k, j, m, p)
        assert out == oracle, (r, k, j, m, p)
        nonzero += not is_zero(out)
    assert nonzero >= 15 and mixed >= 5


def test_operator_sum_matches_single_terms_on_random_inputs():
    # repeated annihilators such as (1, 1, 2) exercise the falling
    # multiplicity e!/(e-c)!; exponents 0..3 leave monomials that some
    # annihilators do not divide; the graded inputs are rational or s-only
    # over several offsets, and each case runs under a power of -r*s/lam
    # from -3 to 3
    rng = random.Random(41)
    several_lams = undivided = 0
    powers, parities = set(), set()
    for r in (3, 4, 5):
        variables = [n for n in (1, 2, 3, 5, 7) if n % r][:4]
        for _ in range(12):
            shapes = [(1, 1, 2), (1, 1), (1,), (), (2, 2), (1, 2)] + [
                tuple(sorted(rng.choice(variables) for _ in range(rng.randint(1, 3)))) for _ in range(3)
            ]
            terms = tuple(
                NormalTerm(
                    tuple(sorted(rng.choice(variables) for _ in range(rng.randint(0, 3)))),
                    anns,
                    Fraction(rng.choice((-5, -3, -1, 2, 4)), rng.randint(1, 6)),
                )
                for anns in shapes
                for _ in range(rng.randint(1, 3))
            )
            offset, parity = rng.choice((-4, -2, 0, 1, 3)), rng.randrange(2)
            p = sum_of(
                r,
                (
                    graded_monomial(r, _random_scalar(rng, parity), offset, {n: rng.randint(0, 3) for n in variables})
                    for _ in range(rng.randint(3, 8))
                ),
            )
            several_lams += len({m.lambda_exp for m in p.terms}) > 1
            undivided += sum(dict(m.exps).get(1, 0) < 2 or 2 not in dict(m.exps) for m in p.terms)
            n = rng.randint(-3, 3)
            powers.add(n)
            parities.add(parity)
            plain = unit_scaled(sum_of(r, (apply_term(t, p) for t in terms)), n)
            assert apply_operator_sum(terms, p, n) == plain
            assert not is_zero(plain)
    assert several_lams >= 30 and undivided >= 30 and powers == set(range(-3, 4)) and parities == {0, 1}


def _recording_blocks(monkeypatch):
    """Patch walgebra._add_block, and verify's name for it, to record each
    (r, k, j, m, wa) block added, and return the list of them."""
    seen, add_block = [], walgebra._add_block

    def recording(*args):
        seen.append(args[:5])
        return add_block(*args)

    monkeypatch.setattr(walgebra, "_add_block", recording)
    monkeypatch.setattr(verify, "_add_block", recording)
    return seen


def test_mode_tables_are_reused_across_degrees(monkeypatch):
    # each raiser grows by the blocks a heavier degree newly reaches, so a
    # recursion run enumerates no block twice, and a second solve over the
    # same layout reuses its raisers as they are and enumerates nothing
    monkeypatch.setattr(walgebra, "_RAISERS", {})
    seen = _recording_blocks(monkeypatch)
    compute_tau(4, 5)
    assert seen and len(set(seen)) == len(seen)
    count = len(seen)
    compute_tau(4, 5)
    assert len(seen) == count


def test_diagnostics_reuse_the_solve_raisers(monkeypatch):
    # the exponential and the commutators raise over the solve's layout
    # (one memoised object), so they enumerate no block of their own
    monkeypatch.setattr(walgebra, "_RAISERS", {})
    seen = _recording_blocks(monkeypatch)
    tau = compute_tau(4, 6)
    count = len(seen)
    compute_tau_exponential(4, 6)
    check_commutators(tau)
    assert count and len(seen) == count


def test_raisers_of_one_layout_only(monkeypatch):
    # a raise over another layout drops the raisers held, so a process keeps
    # one layout's raisers whatever it solved before
    monkeypatch.setattr(walgebra, "_RAISERS", {})
    compute_tau(4, 5)
    shift = _layout(4, 5)[0]
    assert [op.l for op in walgebra.raisers_over(4, shift)] == [1, 2, 3]
    compute_tau(3, 6)
    assert walgebra.raisers_over(4, shift) == []
    assert [op.l for op in walgebra.raisers_over(3, _layout(3, 6)[0])] == [1, 2]


def _tuple_weight_block(r, k, j, m, wa):
    """The merged rows of W(k, j, m) at annihilator weight wa with every
    orders weighed by _tuple_weight, order-1 slots included."""
    acc = {}
    for orders, scale in _twisted_currents(r)[1][k]:
        for p in range(len(orders) - j + 1):
            for cre, _, _ in _partitions(wa - r * m - j * (r + 1), len(orders) - j - p, r):
                labels = (0,) * j + tuple(-n for n in cre)
                for ann, _, _ in _partitions(wa, p, r):
                    acc[cre, ann] = acc.get((cre, ann), 0) + scale * _tuple_weight(r, ann + labels, orders)
    return {key: x for key, x in acc.items() if x}


@pytest.mark.parametrize("r, degree", [(2, 6), (3, 5), (4, 5), (5, 4), (6, 3), (7, 3), (8, 3)])
def test_multinomial_blocks_equal_tuple_weight_sums(monkeypatch, r, degree):
    # every block a solve and a full constraint pass enumerate: order-1
    # slots weighed by the multinomial count, merged, equal the sums of
    # _tuple_weight over the distinct orderings
    monkeypatch.setattr(walgebra, "_RAISERS", {})
    seen = _recording_blocks(monkeypatch)
    tau = compute_tau(r, degree)
    w_constraint_residuals(tau, constraint_equations(r, degree))
    assert len(set(seen)) > 20
    for block in set(seen):
        mine = mode_block(*block)
        assert mine == _tuple_weight_block(*block), block


def test_raiser_grows_and_shrinks_exactly(monkeypatch):
    # one raiser per (r, l, layout), called at rising and then falling
    # target degrees: a heavier call adds blocks, a lighter one reuses the
    # operator with its heavier terms, and each output equals that of a
    # raiser built fresh to the call's own degree
    r, top = 4, 6
    monkeypatch.setattr(walgebra, "_RAISERS", {})
    pieces = compute_tau(r, top).pieces
    shift, fields = exponent_fields(r, top * (r + 1))
    for l in range(1, r):
        rows = {d: kernel_rows(pack_piece(r, d - l, pieces[d - l], shift), fields)[1] for d in range(l, top + 1)}
        walgebra._RAISERS.clear()
        for d in [*range(l, top + 1), *range(top, l - 1, -1)]:
            fresh = walgebra._Raiser(r, l, shift)
            fresh.grow((d - l) * (r + 1))
            expected = reduced(walgebra._operator_loop(fresh.op, rows[d]), fresh.den)
            assert reduced(*raise_packed(r, l, rows[d], d, shift)) == expected, (l, d)
        (op,) = walgebra.raisers_over(r, shift)
        assert (op.l, op.top) == (l, (top - l) * (r + 1))


def test_raiser_matches_degree_one_fixture():
    assert apply_raising_operator(3, 1, one(3), 1) == tau1_r3()


def test_raiser_matches_degree_two_fixtures():
    unit = one(3)
    assert apply_raising_operator(3, 2, unit, 2) == raiser2_on_one_r3()
    first = apply_raising_operator(3, 1, unit, 1)
    assert apply_raising_operator(3, 1, first, 2) == raiser1_squared_on_one_r3()


def test_raiser_r2_fixture():
    assert apply_raising_operator(2, 1, one(2), 1) == tau1_r2()


def _homogeneous_poly(r, weight, offset=0):
    """All-ones polynomial over every weight-`weight` monomial in T_1, T_2,
    graded with lam + N = offset."""
    if weight == 0:
        return one(r)
    parts = []
    two_max = weight // 2 if r != 2 else 0
    for twos in range(two_max + 1):
        ones = weight - 2 * twos
        exps = {}
        if ones:
            exps[1] = ones
        if twos:
            exps[2] = twos
        parts.append(graded_monomial(r, 1, offset, exps))
    return sum_of(r, parts)


def test_raiser_raises_degree_by_l():
    for r, l, d in ((3, 1, 1), (3, 2, 1), (2, 1, 2), (4, 3, 0), (5, 2, 1)):
        p = _homogeneous_poly(r, d * (r + 1), offset=d)
        out = apply_raising_operator(r, l, p, d + l)
        assert not is_zero(out)
        assert is_homogeneous(out, (d + l) * (r + 1))


def test_operator_linearity():
    # over Q(s), on graded inputs: a rational p scaled by a of either
    # parity, and q of a's parity and p's offset
    rng = random.Random(17)
    for _ in range(10):
        offset, x, y = rng.randint(-2, 2), rng.choice((-4, -1, 3)), rng.choice((-2, 1, 4))
        a, b = (qs(x), qs(y)) if rng.randrange(2) else (qs(0, x), qs(0, y))
        p = graded_monomial(3, 1, offset, {1: rng.randint(1, 3)})
        q = graded_monomial(3, b, offset, {2: rng.randint(1, 2)})
        lhs = apply_w_mode(3, 2, 0, -1, add(q_scaled(p, a), q))
        rhs = add(q_scaled(apply_w_mode(3, 2, 0, -1, p), a), apply_w_mode(3, 2, 0, -1, q))
        assert lhs == rhs


def test_multiset_enumeration_equals_ordered_tuples_small():
    # from r = 4 on, derivative slots and dilaton constants share a tuple
    for r, cap in ((2, 6), (3, 6), (4, 8), (5, 5)):
        for k in range(2, r + 1):
            for j in range(k):
                for m in range(-(k - 1), 3):
                    mine = mode_table(r, k, j, m, cap)
                    oracle = ordered_w_terms(r, k, j, m, cap, cap)
                    assert mine == oracle, (r, k, j, m)


# sha256 over every term of W(k, j, m), all k and j, m = -(k-1)..2, under
# caps (cap, cap), recorded once the r-KdV oracle matched the correlators
# of the charge-conjugation-projected currents at (6, 4) and (7, 4).  A
# row's last slot is the lam shift -j that the mode's (-r*s/lam)^j carries.
MODE_TABLE_DIGESTS = {
    (6, 10): "3adc1e08e8da9918cf3f16611f83d55e1a8a3af54512f3e7549bb5b1644957b1",
    (7, 10): "9e06b2faa4296d27147a3976529641aef0fafd0e496cac8a7be9a2297f2f6ad1",
    (12, 4): "c6b6eb44d123b1bc76d534f211b425d0f50a0b189a6f597f01944f9c04457f64",
}


@pytest.mark.parametrize("r, cap", sorted(MODE_TABLE_DIGESTS))
def test_mode_tables_are_pinned(r, cap):
    digest = hashlib.sha256()
    for k in range(2, r + 1):
        for j in range(k):
            for m in range(-(k - 1), 3):
                unit = unit_power(r, j)
                for t in mode_table(r, k, j, m, cap):
                    c = q_scale(unit, t.coeff)
                    row = (k, j, m, t.creators, t.annihilators, str(c.a), str(c.b), -j)
                    digest.update(repr(row).encode() + b"\n")
    assert digest.hexdigest() == MODE_TABLE_DIGESTS[(r, cap)]


def _random_homogeneous(rng, r, degree):
    """A graded polynomial of weight W = degree*(r+1) on up to three
    monomials: T_1^W, one built from the largest indices, and a random one.
    One random offset lam + N and coefficients all in Q or all in Q*s, so
    from degree 1 on the first two carry different lam exponents."""
    weight = degree * (r + 1)
    offset, parity = degree + rng.choice((-2, 0, 2)), rng.randrange(2)
    shapes = {((1, weight),) if weight else ()}
    for greedy in (True, False):
        exps, left = {}, weight
        while left:
            choices = [u for u in range(1, left + 1) if u % r]
            n = choices[-1] if greedy else rng.choice(choices)
            exps[n] = exps.get(n, 0) + 1
            left -= n
        shapes.add(tuple(sorted(exps.items())))
    return sum_of(
        r, (graded_monomial(r, _random_scalar(rng, parity), offset, dict(e)) for e in sorted(shapes))
    )


def test_raiser_matches_ordered_oracle():
    # every raiser for r = 2..5; the oracle walks every ordered tuple, so
    # input degrees run to 2 at r <= 3, to 1 at r = 4 and 0 at r = 5
    rng = random.Random(5)
    for r in (2, 3, 4, 5):
        for l in range(1, r):
            for degree in range(min(2, 5 - r) + 1):
                p = _random_homogeneous(rng, r, degree)
                assert len({m.lambda_exp for m in p.terms}) > 1 or not degree
                mine = apply_raising_operator(r, l, p, degree + l)
                assert mine == ordered_apply_raiser(r, l, p, degree + l), (r, l, degree)
                assert not is_zero(mine)


def test_mode_bound_examples():
    assert mode_bound(3, 2, 1) == 1
    assert mode_bound(3, 3, 1) == 0
    assert mode_bound(2, 2, 3) == 4


def test_modes_beyond_bound_annihilate():
    # the first mode beyond the bound annihilates any admissible input, so
    # truncating the outer sum there is exact rather than approximate
    for r, l, target in ((3, 1, 1), (3, 2, 2), (2, 1, 3)):
        w_in = (target - l) * (r + 1)
        p = _homogeneous_poly(r, w_in)
        for k in range(l + 1, r + 1):
            for extra in (1, 2):
                m = mode_bound(r, k, target) + extra
                j = k - 1 - l
                out = apply_w_mode(r, k, j, m - k + 1, p)
                assert is_zero(out)
