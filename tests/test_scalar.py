"""Exact scalar arithmetic over Q(s), s^2 = -r."""

import random
from fractions import Fraction

import pytest

from rspin import ContextError, QScalar

from helpers import qs


def test_addition_cancels_conjugates():
    one_plus = qs(3, 1, 1)
    one_minus = qs(3, 1, -1)
    assert one_plus + one_minus == qs(3, 2)


def test_addition_of_plain_fractions():
    assert qs(5, Fraction(1, 2)) + qs(5, Fraction(1, 3)) == qs(5, Fraction(5, 6))


def test_zero_is_additive_identity():
    rng = random.Random(7)
    for _ in range(50):
        x = qs(3, Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
               Fraction(rng.randint(-9, 9), rng.randint(1, 9)))
        assert qs(3, 0) + x == x
        assert x + 0 == x


def test_square_of_generator():
    assert QScalar.root(3) * QScalar.root(3) == qs(3, -3)
    assert QScalar.root(2) * QScalar.root(2) == qs(2, -2)


def test_norm_product():
    for r in (2, 3, 5):
        assert qs(r, 1, 1) * qs(r, 1, -1) == qs(r, 1 + r)


def test_inverse_relation_of_generator():
    # 1/s = -s/r
    s = QScalar.root(3)
    assert s * qs(3, 0, Fraction(-1, 3)) == qs(3, 1)


def test_mixing_contexts_raises():
    with pytest.raises(ContextError):
        qs(2, 1) + qs(3, 1)
    with pytest.raises(ContextError):
        qs(2, 1, 1) * qs(5, 1, 1)


def _random_scalar(rng, r):
    return qs(
        r,
        Fraction(rng.randint(-12, 12), rng.randint(1, 8)),
        Fraction(rng.randint(-12, 12), rng.randint(1, 8)),
    )


def test_field_axioms_on_random_triples():
    rng = random.Random(20240817)
    for r in (2, 3, 4, 5):
        for _ in range(60):
            x, y, z = (_random_scalar(rng, r) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            assert x + y == y + x
            assert x * y == y * x


def test_canonical_form_is_unique():
    a = qs(3, Fraction(2, 4), Fraction(-6, 9))
    b = qs(3, Fraction(1, 2), Fraction(-2, 3))
    assert a == b
    assert (a.a, a.b) == (b.a, b.b)


def test_rationality_predicate():
    assert qs(3, Fraction(7, 3)).is_rational
    assert not qs(3, 0, 1).is_rational
    assert qs(3, 0).is_zero


def test_subtraction_and_division():
    # nothing divides by a scalar; the W-mode kernel applies the powers of s
    x = qs(2, 3, 1)
    y = qs(2, 1, 1)
    assert x - y == qs(2, 2)


def test_string_rendering():
    assert str(qs(3, Fraction(1, 2), Fraction(-3, 4))) == "1/2 - 3/4*s"
    assert str(qs(3, 0, 1)) == "s"
    assert str(qs(3, 0)) == "0"


def _random_fraction(rng):
    return Fraction(rng.randint(-30, 30), rng.randint(1, 12))


def _random_operand(rng, r, kind):
    """(operand, its (a, b) components) of one kind."""
    if kind == "int":
        n = rng.randint(-9, 9)
        return n, (Fraction(n), Fraction(0))
    if kind == "fraction":
        f = _random_fraction(rng)
        return f, (f, Fraction(0))
    a = _random_fraction(rng) if kind in ("rational", "mixed") else Fraction(0)
    b = _random_fraction(rng) if kind in ("s-only", "mixed") else Fraction(0)
    return QScalar.of(r, a, b), (a, b)


def _check_components(r, value, a, b):
    """value must be the canonical QScalar with these components."""
    expected = QScalar.of(r, a, b)
    assert isinstance(value, QScalar)
    assert (value.r, value.a, value.b) == (r, a, b)
    assert type(value.a) is Fraction and type(value.b) is Fraction
    assert value == expected and hash(value) == hash(expected)


def test_arithmetic_matches_component_formulas_on_graded_and_mixed_operands():
    # the graded-pure fast paths must give exactly the four-product formula
    kinds = ("rational", "s-only", "mixed", "zero", "int", "fraction")
    rng = random.Random(5)
    for r in (2, 3, 4, 5):
        for _ in range(40):
            for left_kind in kinds[:4]:
                x, (a1, b1) = _random_operand(rng, r, left_kind)
                for right_kind in kinds:
                    y, (a2, b2) = _random_operand(rng, r, right_kind)
                    product = (a1 * a2 - r * b1 * b2, a1 * b2 + a2 * b1)
                    _check_components(r, x * y, *product)
                    _check_components(r, y * x, *product)
                    _check_components(r, x + y, a1 + a2, b1 + b2)
                    _check_components(r, y + x, a1 + a2, b1 + b2)
                    _check_components(r, x - y, a1 - a2, b1 - b2)
                    _check_components(r, y - x, a2 - a1, b2 - b1)
                _check_components(r, -x, -a1, -b1)


def test_graded_results_still_refuse_other_contexts():
    # results of the fast paths keep their r and are still checked
    for x, y in ((qs(3, 2), qs(3, 0, 5)), (qs(3, 0, 1), qs(3, 0, 1)), (qs(3, 1, 1), 4)):
        for value in (x * y, x + y, x - y, -x):
            assert value.r == 3
            with pytest.raises(ContextError):
                value * qs(4, 1)
            with pytest.raises(ContextError):
                qs(4, 0, 1) + value
            with pytest.raises(ContextError):
                value - qs(4, 1, 1)
