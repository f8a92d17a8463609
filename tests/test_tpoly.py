"""Sparse graded polynomials in the time variables: the package's view
(construction, canonical order, immutability, the grading of pack_piece)
and the reference arithmetic of tests/helpers.py that the other tests build
on."""

import random
from fractions import Fraction

import pytest

from rspin import ContractError, InvalidIndexError, TMonomial, TPolynomial
from rspin.tpoly import exponent_fields, pack_piece

from helpers import (
    add, const, derive, graded_part, is_homogeneous, is_zero, make_monomial, max_weight, monomial, mul_var, one,
    poly_mul, poly_of, qs, scaled, shift_lambda, sub, tau1_r3, var, zero,
)


def test_weight_examples():
    assert make_monomial(0, {1: 2, 2: 1}).weight == 4
    assert make_monomial(0, {}).weight == 0
    assert make_monomial(-2, {1: 3, 3: 1}).weight == 6


def test_graded_part_picks_by_weight():
    p = add(var(3, 4), var(3, 1))
    assert graded_part(p, 1) == var(3, 4)
    assert is_zero(graded_part(p, 0))

    c = const(3, 5)
    assert graded_part(c, 0) == c

    tau1 = tau1_r3()
    tau2ish = monomial(3, 1, 0, {4: 2})
    both = add(tau1, tau2ish)
    assert graded_part(both, 1) == tau1
    assert graded_part(both, 2) == tau2ish


def test_graded_parts_sum_back():
    rng = random.Random(3)
    p = _random_poly(rng, 3)
    total = zero(3)
    for d in range(0, max_weight(p) + 1):
        part = graded_part(p, d) if d * 4 <= max_weight(p) else zero(3)
        assert is_homogeneous(part, d * 4)
        total = add(total, part)
    # graded parts only exist at weights divisible by r+1; collect the rest
    rest = TPolynomial._raw(3, {m: c for m, c in p.terms.items() if m.weight % 4})
    assert add(total, rest) == p


def test_mul_var_examples():
    assert mul_var(one(3), 2, 1) == var(3, 2)
    t2 = var(3, 2)
    assert mul_var(t2, 2, 2) == monomial(3, 1, 0, {2: 3})
    p = add(var(3, 1), var(3, 4))
    assert mul_var(p, 1, 1) == add(monomial(3, 1, 0, {1: 2}), monomial(3, 1, 0, {1: 1, 4: 1}))


def test_derive_examples():
    p = monomial(3, 1, 0, {2: 2, 1: 1})
    assert derive(p, 2) == monomial(3, 2, 0, {2: 1, 1: 1})
    q = monomial(3, 1, 0, {2: 4})
    assert is_zero(derive(q, 5))
    # derivative of the degree-1 tau piece in its first variable
    expected = monomial(
        3, qs(0, Fraction(-2, 9)), -2, {2: 1, 1: 1}
    )
    assert derive(tau1_r3(), 1) == expected


def test_invalid_indices_rejected():
    with pytest.raises(InvalidIndexError):
        var(3, 3)
    with pytest.raises(InvalidIndexError):
        var(3, 0)
    with pytest.raises(InvalidIndexError):
        mul_var(one(3), 6, 1)
    with pytest.raises(InvalidIndexError):
        derive(one(3), 9)
    with pytest.raises(InvalidIndexError):
        monomial(2, 1, 0, {4: 1})
    with pytest.raises(InvalidIndexError):
        TPolynomial(3, {TMonomial(0, ((1, 1), (6, 1))): 1})  # the view's own constructor


def _random_poly(rng, r, max_terms=5):
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = {}
        for _ in range(rng.randint(0, 3)):
            n = rng.randint(1, 8)
            if n % r == 0:
                continue
            exps[n] = rng.randint(1, 3)
        mono = make_monomial(2 * rng.randint(-2, 1), exps)
        terms[mono] = qs(Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
                         Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
    return TPolynomial(r, terms)


def test_ring_axioms_on_random_polynomials():
    rng = random.Random(99)
    for _ in range(40):
        r = rng.choice((2, 3, 5))
        p, q, w = (_random_poly(rng, r) for _ in range(3))
        assert add(add(p, q), w) == add(p, add(q, w))
        assert add(p, q) == add(q, p)
        assert poly_mul(p, q) == poly_mul(q, p)
        assert poly_mul(p, poly_mul(q, w)) == poly_mul(poly_mul(p, q), w)
        assert poly_mul(p, add(q, w)) == add(poly_mul(p, q), poly_mul(p, w))
        assert is_zero(sub(p, p))
        assert poly_mul(p, one(r)) == p


def test_derivative_is_a_derivation():
    rng = random.Random(4242)
    for _ in range(30):
        r = rng.choice((2, 3))
        p, q = _random_poly(rng, r), _random_poly(rng, r)
        n = rng.choice([k for k in range(1, 6) if k % r])
        lhs = derive(poly_mul(p, q), n)
        rhs = add(poly_mul(derive(p, n), q), poly_mul(p, derive(q, n)))
        assert lhs == rhs


def test_lambda_exponent_additive_under_multiplication():
    a = monomial(3, 1, -2, {1: 1})
    b = monomial(3, 1, 4, {2: 1})
    prod = poly_mul(a, b)
    ((mono, _),) = prod.canonical_terms()
    assert mono.lambda_exp == 2


def test_canonical_order_and_unique_representation():
    p = poly_of(
        3,
        (1, 0, {4: 1}),
        (2, -2, {1: 2, 2: 1}),
        (3, 0, {1: 1}),
    )
    keys = [m.sort_key() for m, _ in p.canonical_terms()]
    assert keys == sorted(keys)
    q = poly_of(
        3,
        (3, 0, {1: 1}),
        (2, -2, {2: 1, 1: 2}),
        (1, 0, {4: 1}),
    )
    assert p == q
    assert [t for t in p.canonical_terms()] == [t for t in q.canonical_terms()]


def test_zero_coefficients_never_stored():
    p = TPolynomial(3, {make_monomial(0, {1: 1}): qs(0)})
    assert p.terms == {} and not p and str(p) == "0"
    q = sub(var(3, 1), var(3, 1))
    assert q.terms == {} and not q and var(3, 1)


def test_a_polynomial_is_immutable():
    # neither set nor deleted: a polynomial emptied of its terms would
    # break every later sum with an AttributeError
    p = one(3)
    for name in ("r", "terms", "other"):
        with pytest.raises(AttributeError):
            setattr(p, name, {})
        with pytest.raises(AttributeError):
            delattr(p, name)
    assert add(p, p) == const(3, 2)


def test_shift_lambda():
    p = tau1_r3()
    assert shift_lambda(shift_lambda(p, 2), -2) == p
    assert shift_lambda(p, 0) is p


def test_scaling_takes_rationals_only():
    # a product of two coefficients would need s^2 = -r
    p = tau1_r3()
    assert scaled(scaled(p, Fraction(-3, 2)), Fraction(-2, 3)) == p
    with pytest.raises(TypeError):
        scaled(p, qs(0, 1))
    with pytest.raises(TypeError):
        TPolynomial(3, {make_monomial(0, {1: 1}): 0.5})


@pytest.mark.parametrize(
    "exps",
    [((2, 1), (1, 1)), ((1, 1), (1, 1)), ((1, 0), (2, 1)), ((1, -1),), ((1, 1), (2, 0))],
    ids=["unsorted", "repeated", "zero-first", "negative", "zero-last"],
)
def test_constructor_refuses_non_canonical_monomials(exps):
    # a TMonomial built directly skips make(); an unsorted or repeated index
    # or an exponent below 1 would make equal values compare unequal
    with pytest.raises(ValueError, match="not canonical"):
        TPolynomial(3, {TMonomial(0, exps): 1})
    assert TPolynomial._raw(3, {TMonomial(0, exps): qs(1)}).terms  # the unchecked fast path stays unchecked


@pytest.mark.parametrize(
    "terms, why",
    [
        ({TMonomial(0, ((4, 1),)): qs(0, 1), TMonomial(0, ((1, 2), (2, 1))): qs(0, 1)}, "lam exponent 0 on 3 variables"),
        ({TMonomial(0, ((4, 1),)): qs(1, 1)}, r"coefficient 1 \+ s outside"),
        ({TMonomial(0, ((4, 1),)): qs(1)}, "coefficient 1 outside"),
        ({TMonomial(-1, ((1, 1), (3, 1))): qs(0, 1)}, r"T3\^1: indices ascend"),
        ({TMonomial(-2, ((1, 2), (2, 1))): qs(0, 1), TMonomial(-2, ((2, 1), (1, 2))): qs(0, 2)}, r"T1\^2: indices ascend"),
        ({TMonomial(0, ((4, 1),)): qs(0, 1), TMonomial(-31, ((1, 32),)): qs(0, 1)}, "weight 32, expected 4"),
    ],
    ids=["two-offsets", "mixed", "wrong-parity", "index-divisible-by-r", "unsorted-twin", "field-overflow"],
)
def test_pack_piece_refuses_what_the_packed_form_cannot_hold(terms, why):
    # tau_1 at r = 3 over a layout of weight 4, each next to the graded s*T4:
    # the form keeps neither lam + N nor the rational part, has no field
    # for T3 and 3 bits for T1, and holds one numerator per key, so an
    # unsorted twin would share a key and T1^32 would land on T4; the
    # grading refuses each before packing
    shift, _ = exponent_fields(3, 4)
    assert pack_piece(3, 1, TPolynomial._raw(3, {TMonomial(0, ((4, 1),)): qs(0, 1)}), shift) == ({1 << shift[4]: 1}, 1)
    with pytest.raises(ContractError, match=f"piece 1 has monomial .* off the grading: {why}"):
        pack_piece(3, 1, TPolynomial._raw(3, terms), shift)
