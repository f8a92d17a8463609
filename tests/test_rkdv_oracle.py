"""Correlators against the independent Gelfand-Dickey (r-KdV) oracle.

The oracle first reproduces the published r = 2 and r = 3 values, which
pins its normalization; then every correlator (genus 0 to 3 in range)
that the W-constraint recursion produces for
r = 4 .. 14 must equal the oracle's value exactly, to the depths
cli.ORACLE_CHECKED_DEPTH names.
"""

from fractions import Fraction

import pytest

from rspin import compute_tau, extract_correlators

from rkdv import GelfandDickeyOracle
from test_acceptance import R3_TABLE


def _mismatches(r, depth):
    oracle = GelfandDickeyOracle(r)
    records = extract_correlators(compute_tau(r, depth))
    bad = []
    for rec in records:
        key = tuple((i.m, i.a) for i in rec.insertions)
        expected = oracle.correlator(key)
        if expected != rec.value:
            bad.append((rec.genus, key, rec.value, expected))
    return records, bad


def test_oracle_reproduces_published_values():
    r2 = GelfandDickeyOracle(2)
    assert r2.correlator([(0, 0)] * 3) == 1
    assert r2.correlator([(1, 0)]) == Fraction(1, 24)
    assert r2.correlator([(4, 0)]) == Fraction(1, 1152)
    r3 = GelfandDickeyOracle(3)
    assert {key: r3.correlator(key[1]) for key in R3_TABLE} == R3_TABLE
    assert r3.correlator([(2, 1), (2, 1)]) == Fraction(17, 4320)


@pytest.mark.parametrize("r, depth", [(2, 4), (3, 4)])
def test_oracle_agrees_with_verified_tables(r, depth):
    records, bad = _mismatches(r, depth)
    assert records and bad == []


@pytest.mark.parametrize(
    "r, depth",
    [(4, 4), (4, 5), (5, 3), (5, 4), (5, 5), (6, 3), (6, 4), (7, 2), (7, 4), (8, 2), (8, 3), (9, 2), (10, 2), (11, 2), (12, 2), (13, 2), (14, 2)],
)
def test_spin_four_and_up_correlators_match_oracle(r, depth):
    records, bad = _mismatches(r, depth)
    genera = {rec.genus for rec in records}
    assert {0, 1} <= genera
    assert bad == []


def test_genus_one_anchors():
    for r in range(4, 15):
        oracle = GelfandDickeyOracle(r)
        assert oracle.correlator([(1, 0)]) == Fraction(r - 1, 24)
    r4 = GelfandDickeyOracle(4)
    assert r4.correlator([(0, 2)] * 5) == Fraction(1, 8)
    assert r4.correlator([(0, 1), (0, 1), (0, 2), (0, 2)]) == Fraction(1, 4)
