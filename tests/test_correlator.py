"""Coordinate conversion, the graded log, and exact correlator extraction."""

from fractions import Fraction

import pytest

from rspin import (
    ContractError,
    Insertion,
    InvalidInsertionError,
    QScalar,
    TauExpansion,
    TPolynomial,
    compute_tau,
    conversion_constant,
    extract_correlators,
    insertion_for_index,
    log_tau,
    selection_check,
    variable_index,
)

from helpers import exp_graded, free_energy2_r3, graded_part, power_series_log, tau1_r3


def test_conversion_constants():
    assert conversion_constant(3, 0, 0) == QScalar.of(3, 0, Fraction(1, 3))
    assert conversion_constant(3, 0, 1) == QScalar.of(3, 0, Fraction(2, 3))
    assert conversion_constant(2, 1, 0) == QScalar.of(2, 0, Fraction(-3, 4))


def test_conversion_rejects_bad_labels():
    with pytest.raises(InvalidInsertionError):
        conversion_constant(3, 0, 2)
    with pytest.raises(InvalidInsertionError):
        conversion_constant(3, -1, 0)


def test_insertion_index_bijection():
    for r in (2, 3, 5):
        for n in range(1, 40):
            if n % r == 0:
                with pytest.raises(InvalidInsertionError):
                    insertion_for_index(r, n)
                continue
            ins = insertion_for_index(r, n)
            assert 0 <= ins.a <= r - 2
            assert variable_index(r, ins) == n


def test_log_at_degree_one_is_identity():
    tau = TauExpansion(3, 1, [TPolynomial.one(3), tau1_r3()])
    assert log_tau(tau) == tau1_r3()


def test_log_at_degree_two_matches_fixture():
    tau = compute_tau(3, 2)
    free_energy = log_tau(tau)
    assert graded_part(free_energy, 1) == tau1_r3()
    assert graded_part(free_energy, 2) == free_energy2_r3()


def test_log_requires_unit_constant_term():
    bad = TauExpansion(3, 1, [TPolynomial.const(3, 2), tau1_r3()])
    with pytest.raises(ContractError):
        log_tau(bad)


@pytest.mark.parametrize("r, D", ((2, 6), (3, 5), (4, 4)))
def test_log_matches_power_series_oracle(r, D):
    tau = compute_tau(r, D)
    free_energy = log_tau(tau)
    assert free_energy == power_series_log(tau)
    assert exp_graded(free_energy, D).pieces == tau.pieces


def test_exp_log_round_trip():
    for r, D in ((3, 3), (2, 4)):
        tau = compute_tau(r, D)
        rebuilt = exp_graded(log_tau(tau), D)
        assert rebuilt.pieces == tau.pieces


def test_exp_rejects_constant_part():
    with pytest.raises(ContractError):
        exp_graded(TPolynomial.one(3), 2)


def _table(tau):
    return {
        (rec.genus, tuple((i.m, i.a) for i in rec.insertions)): rec.value
        for rec in extract_correlators(tau)
    }


def test_extraction_from_degree_one():
    table = _table(compute_tau(3, 1))
    assert table == {
        (0, ((0, 0), (0, 0), (0, 1))): Fraction(1),
        (1, ((1, 0),)): Fraction(1, 12),
    }


def test_extraction_from_degree_two():
    table = _table(compute_tau(3, 2))
    assert table[(0, ((0, 1), (0, 1), (0, 1), (0, 1)))] == Fraction(1, 3)
    assert table[(1, ((0, 0), (2, 0)))] == Fraction(1, 12)
    assert table[(1, ((1, 0), (1, 0)))] == Fraction(1, 12)
    assert table[(0, ((0, 0), (0, 0), (0, 0), (1, 1)))] == Fraction(1)
    assert table[(0, ((0, 0), (0, 0), (0, 1), (1, 0)))] == Fraction(1)


def test_records_are_sorted_and_deterministic():
    records = extract_correlators(compute_tau(3, 2))
    keys = [(rec.genus, rec.insertions) for rec in records]
    assert keys == sorted(keys)
    again = extract_correlators(compute_tau(3, 2))
    assert records == again


def test_selection_rule_examples():
    assert selection_check(3, 0, (Insertion(0, 0), Insertion(0, 0), Insertion(0, 1)))
    assert not selection_check(3, 0, (Insertion(0, 0), Insertion(0, 0), Insertion(0, 0)))
    assert selection_check(2, 1, (Insertion(1, 0),))


def test_every_extracted_record_passes_selection():
    for r, D in ((2, 4), (3, 3)):
        for rec in extract_correlators(compute_tau(r, D)):
            assert selection_check(r, rec.genus, rec.insertions)
            assert rec.genus >= 0
            assert isinstance(rec.value, Fraction)


def test_log_truncation_consistency():
    # log of a depth-3 run restricted to degree <= 2 equals the depth-2 log
    shallow = log_tau(compute_tau(3, 2))
    deep = log_tau(compute_tau(3, 3))
    for d in (1, 2):
        assert graded_part(shallow, d) == graded_part(deep, d)
