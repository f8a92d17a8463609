"""What the benchmark reads of the package, pinned here so that a change of
the in-memory pieces cannot break the benchmark's gate unseen.

bench/check_tau.py parses a `compute --r 4 --degree 6` document, rebuilds
its pieces 0..3 as a TauExpansion and extracts three anchors from them;
bench/tracing.py counts the terms of a computed expansion, reads each
coefficient's two Fractions, and patches names on rspin.cli and
TPolynomial."""

from fractions import Fraction

import pytest

import rspin.cli
from rspin import TauExpansion, TPolynomial, compute_tau, extract_correlators, parse_tau
from rspin.cli import main

# (genus, insertions as (m, a) pairs) -> value, as bench/check_tau.py pins them
R4_ANCHORS = {
    (0, ((0, 2),) * 5): Fraction(1, 8),
    (0, ((0, 1), (0, 1), (0, 2), (0, 2))): Fraction(1, 4),
    (1, ((1, 0),)): Fraction(1, 8),
}


def test_check_tau_reads_anchors_from_a_parsed_document(tmp_path):
    out = tmp_path / "tau.json"
    assert main(["-q", "compute", "--r", "4", "--degree", "6", "--out", str(out)]) == 0
    tau = parse_tau(out.read_bytes())
    low = TauExpansion(4, 3, tau.pieces[:4])
    table = {(rec.genus, tuple((i.m, i.a) for i in rec.insertions)): rec.value for rec in extract_correlators(low)}
    assert {key: table.get(key) for key in R4_ANCHORS} == R4_ANCHORS
    assert [len(p.terms) for p in tau.pieces] == [1, 3, 11, 41, 129, 355, 904]
    # check_tau.tau_properties reads both Fraction parts of every coefficient
    for piece in tau.pieces:
        for coeff in piece.terms.values():
            assert type(coeff.a) is Fraction and type(coeff.b) is Fraction


def test_tracer_reads_terms_and_fraction_parts_of_computed_pieces():
    tau = compute_tau(3, 5)
    assert [len(p.terms) for p in tau.pieces] == [1, 2, 6, 15, 39, 88]
    for piece in tau.pieces:
        for coeff in piece.terms.values():
            assert type(coeff.a) is Fraction and type(coeff.b) is Fraction


def test_traced_names_stay_bound():
    assert rspin.cli.compute_tau is rspin.solver.compute_tau
    assert rspin.cli.extract_correlators is rspin.correlator.extract_correlators


@pytest.mark.parametrize(
    "name",
    ["sum_of", "scaled", "canonical_terms", "is_homogeneous", "max_weight", "__add__", "__sub__", "__neg__"],
)
def test_traced_polynomial_methods_exist(name):
    assert name in vars(TPolynomial)
