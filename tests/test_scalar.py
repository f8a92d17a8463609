"""Exact coefficients a + b*s: the package's QScalar (a reduced pair,
immutable, hashed and printed, with no arithmetic) and the reference sums,
negation and rational scaling of tests/helpers.py."""

import random
from fractions import Fraction

import pytest

from rspin import QScalar

from helpers import q_add, q_neg, q_scale, q_sub, qs


def test_addition_cancels_conjugates():
    one_plus = qs(1, 1)
    one_minus = qs(1, -1)
    assert q_add(one_plus, one_minus) == qs(2)


def test_addition_of_plain_fractions():
    assert q_add(qs(Fraction(1, 2)), qs(Fraction(1, 3))) == qs(Fraction(5, 6))


def test_zero_is_additive_identity():
    rng = random.Random(7)
    for _ in range(50):
        x = qs(Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert q_add(qs(0), x) == x
        assert q_add(x, qs(0)) == x


def _random_scalar(rng):
    return qs(
        Fraction(rng.randint(-12, 12), rng.randint(1, 8)),
        Fraction(rng.randint(-12, 12), rng.randint(1, 8)),
    )


def test_field_axioms_on_random_triples():
    # the axioms of addition, and of scaling by rationals
    rng = random.Random(20240817)
    for _ in range(240):
        x, y, z = (_random_scalar(rng) for _ in range(3))
        c, d = (Fraction(rng.randint(-12, 12), rng.randint(1, 8)) for _ in range(2))
        assert q_add(q_add(x, y), z) == q_add(x, q_add(y, z))
        assert q_add(x, y) == q_add(y, x)
        assert q_add(x, q_neg(x)) == qs(0)
        assert q_scale(q_add(x, y), c) == q_add(q_scale(x, c), q_scale(y, c))
        assert q_scale(x, c + d) == q_add(q_scale(x, c), q_scale(x, d))
        assert q_scale(q_scale(x, c), d) == q_scale(x, c * d)
        assert q_scale(x, 1) == x and not q_scale(x, 0)


def test_canonical_form_is_unique():
    a = qs(Fraction(2, 4), Fraction(-6, 9))
    b = qs(Fraction(1, 2), Fraction(-2, 3))
    assert a == b
    assert (a.a, a.b) == (b.a, b.b)


def test_subtraction_and_division():
    # nothing divides by a scalar; the W-mode kernel applies the powers of s
    x = qs(3, 1)
    y = qs(1, 1)
    assert q_sub(x, y) == qs(2)


def test_string_rendering():
    assert str(qs(Fraction(1, 2), Fraction(-3, 4))) == "1/2 - 3/4*s"
    assert str(qs(0, 1)) == "s"
    assert str(qs(0)) == "0"


def _random_fraction(rng):
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _random_operand(rng, kind):
    """(operand, its (a, b) components) of one kind."""
    if kind == "int":
        n = rng.randint(-9, 9)
        return n, (Fraction(n), Fraction(0))
    if kind == "fraction":
        f = _random_fraction(rng)
        return f, (f, Fraction(0))
    a = _random_fraction(rng) if kind in ("rational", "mixed") else Fraction(0)
    b = _random_fraction(rng) if kind in ("s-only", "mixed") else Fraction(0)
    return QScalar(a, b), (a, b)


def _check_components(value, a, b):
    """value must be the canonical QScalar with these components."""
    expected = QScalar(a, b)
    assert isinstance(value, QScalar)
    assert (value.a, value.b) == (a, b)
    assert type(value.a) is Fraction and type(value.b) is Fraction
    assert value == expected and hash(value) == hash(expected)


def test_arithmetic_matches_component_formulas_on_graded_and_mixed_operands():
    # the reference sums, negation and rational scaling give exactly the
    # component formulas, and there is no product
    scalar_kinds = ("rational", "s-only", "mixed", "zero")
    rng = random.Random(5)
    for _ in range(160):
        for left_kind in scalar_kinds:
            x, (a1, b1) = _random_operand(rng, left_kind)
            for right_kind in scalar_kinds:
                y, (a2, b2) = _random_operand(rng, right_kind)
                _check_components(q_add(x, y), a1 + a2, b1 + b2)
                _check_components(q_add(y, x), a1 + a2, b1 + b2)
                _check_components(q_sub(x, y), a1 - a2, b1 - b2)
                with pytest.raises(TypeError):  # s^2 = -r, and a scalar does not know r
                    q_scale(x, y)
            for rational_kind in ("int", "fraction"):
                c, (q, _) = _random_operand(rng, rational_kind)
                _check_components(q_scale(x, c), a1 * q, b1 * q)
            _check_components(q_neg(x), -a1, -b1)


def test_sums_take_scalars_only():
    x = qs(1, 2)
    for bad in (lambda: q_add(x, 1), lambda: q_add(1, x), lambda: q_sub(x, Fraction(1, 2))):
        with pytest.raises(TypeError):
            bad()


def test_a_scalar_has_no_arithmetic():
    # the package never computes with coefficients: no sum, negation or
    # product of the view, and its truth is whether either part is nonzero
    x = qs(1, 2)
    for bad in (lambda: x + x, lambda: x - x, lambda: -x, lambda: x * 2, lambda: 2 * x, lambda: x * x):
        with pytest.raises(TypeError):
            bad()
    assert [bool(qs(a, b)) for a, b in ((0, 0), (1, 0), (0, 1), (1, 1))] == [False, True, True, True]


def test_a_scalar_is_the_pair_a_b():
    q = QScalar(Fraction(1, 2), Fraction(-3))
    assert (q.a, q.b) == (Fraction(1, 2), Fraction(-3))
    assert repr(q) == "QScalar(a=Fraction(1, 2), b=Fraction(-3, 1))"
    assert QScalar(Fraction(1, 2), Fraction(0)) == qs(Fraction(1, 2))


def test_a_scalar_is_immutable():
    q = qs(1, 2)
    for name in ("a", "b", "c"):
        with pytest.raises(AttributeError):
            setattr(q, name, Fraction(5))
        with pytest.raises(AttributeError):
            delattr(q, name)
    assert q == qs(1, 2)


def test_equal_scalars_hash_equally():
    x, y = QScalar(Fraction(2, 4), Fraction(0)), qs(Fraction(1, 2))
    assert x == y and hash(x) == hash(y)
    assert len({x, y, qs(Fraction(1, 2), 1)}) == 2


def test_a_scalar_is_not_a_tuple():
    # no tuple concatenation, ordering or equality with the bare pair
    q = qs(1, 2)
    assert not isinstance(q, tuple)
    with pytest.raises(TypeError):
        q + (1, 0)
    with pytest.raises(TypeError):
        q < qs(2)
    assert q != (q.a, q.b)
