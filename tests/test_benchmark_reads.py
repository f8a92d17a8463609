"""What the benchmark reads of the package, pinned here so that a change of
the in-memory pieces cannot break the benchmark's gate unseen.

bench/check_tau.py parses a `compute --r 4 --degree 6` document, rebuilds
its pieces 0..3 as a TauExpansion from the TPolynomial view and extracts
three anchors from them, and one test here runs the script itself;
bench/tracing.py counts the terms of a computed expansion, reads each
coefficient's two Fractions, and patches names on rspin.cli and the
package's modules, among them the TPolynomial it looks for on rspin.tpoly.
The view now lives in rspin.scalar and keeps canonical_terms, so the tracer
finds no TPolynomial there; it records a name it cannot find under
"missing" instead of failing, as it does for the polynomial arithmetic
(sum_of, scaled, +, - and the rest) that left the package.  rspin.cli binds
extract_correlators on first use, so the tracer's lookup of it loads the
correlator and the wrapper it sets is the one the correlators command calls."""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import rspin.cli
from rspin import TauCache, TauExpansion, TPolynomial, compute_tau, extract_correlators, parse_tau, serialize_tau
from rspin.cli import main

ROOT = Path(__file__).resolve().parents[1]

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


def test_check_tau_script_passes_on_a_computed_document(tmp_path):
    # the benchmark's output gate, run as the benchmark runs it: its own
    # process, the package from src
    out = tmp_path / "tau.json"
    assert main(["-q", "compute", "--r", "4", "--degree", "6", "--out", str(out)]) == 0
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "check_tau.py"), str(out)],
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        check=False,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["terms_per_degree"] == [1, 3, 11, 41, 129, 355, 904]


def test_reading_the_pieces_changes_nothing_a_traced_run_writes(tmp_path, monkeypatch):
    # the tracer reads tau.pieces after each traced solve: that read leaves
    # the held Packed pieces as they were, so the document renders each held
    # piece once, packed, as an untraced run does
    from rspin import serialize

    cache = TauCache(tmp_path)
    tau = compute_tau(4, 6, cache=cache)
    held = list(tau.held)
    assert [len(p.terms) for p in tau.pieces] == [1, 3, 11, 41, 129, 355, 904]
    assert len(tau.held) == len(held) and all(a is b for a, b in zip(tau.held, held))
    rendered, render = [], serialize._packed_json

    def packed_json(r, j, piece, fields, pad):
        rendered.append((j, piece is held[j]))
        return render(r, j, piece, fields, pad)

    monkeypatch.setattr(serialize, "_packed_json", packed_json)
    data = serialize_tau(tau)
    assert rendered == [(j, True) for j in range(7)]
    monkeypatch.undo()
    assert data == serialize_tau(compute_tau(4, 6))


def test_traced_names_stay_bound():
    assert rspin.cli.compute_tau is rspin.solver.compute_tau
    assert rspin.cli.extract_correlators is rspin.correlator.extract_correlators


@pytest.mark.parametrize("name", ["canonical_terms"])
def test_traced_polynomial_methods_exist(name):
    assert name in vars(TPolynomial)
