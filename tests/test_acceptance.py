"""Acceptance criteria, one test per criterion, each printing a pass/fail
line (run with -s to see them live).

Every comparison is exact; runtime budgets are asserted where stated.
Criterion 5 is split into the quadratic/cubic-mode families (r=2, r=3) and
the quartic/quintic ones (r=4, r=5); both halves pass at every stated
depth.  The spin >= 4 modes are the twisted-module modes of the
free-fermion W(gl_r) currents (see the walgebra docstring); plain
normal-ordered oscillator powers leave exact nonzero residuals from depth
two on.  The correlators these modes give for r = 4 .. 7 are compared with
an independent Gelfand-Dickey oracle in test_rkdv_oracle.py.
"""

import time
from fractions import Fraction

import pytest

from rspin import (
    Insertion,
    check_commutators,
    check_exponential_agreement,
    compute_tau,
    compute_tau_exponential,
    extract_correlators,
    run_checks,
    selection_check,
    serialize_tau,
)

from helpers import (
    decoded_residuals,
    genus0_closed_form_r2,
    genus0_value_r2,
    is_homogeneous,
    mode_table,
    ordered_w_terms,
    tau1_r3,
    tau2_r3,
)


def _report(number: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number}: {status}{suffix}", flush=True)


def _table(tau):
    return {
        (rec.genus, tuple((i.m, i.a) for i in rec.insertions)): rec.value
        for rec in extract_correlators(tau)
    }


@pytest.fixture(scope="module")
def constraint_runs():
    """The four solver runs named by criterion 5, with timed constraint checks."""
    runs = {}
    for r, depth in ((2, 5), (3, 3), (4, 2), (5, 2)):
        start = time.perf_counter()
        tau = compute_tau(r, depth)
        (report,) = run_checks(tau, ["wconstraints"])
        runs[(r, depth)] = (tau, report, time.perf_counter() - start)
    return runs


def test_criterion_1_r3_fixtures():
    start = time.perf_counter()
    tau = compute_tau(3, 2)
    elapsed = time.perf_counter() - start
    ok = tau.pieces[1] == tau1_r3() and tau.pieces[2] == tau2_r3() and elapsed < 5.0
    _report("1", ok, f"degree-1 and degree-2 pieces verbatim, {elapsed:.2f}s")
    assert tau.pieces[1] == tau1_r3()
    assert tau.pieces[2] == tau2_r3()
    assert elapsed < 5.0


R3_TABLE = {
    # genus 0
    (0, ((0, 0), (0, 0), (0, 1))): Fraction(1),
    (0, ((0, 1), (0, 1), (0, 1), (0, 1))): Fraction(1, 3),
    (0, ((0, 0), (0, 0), (0, 0), (1, 1))): Fraction(1),
    (0, ((0, 0), (0, 0), (0, 1), (1, 0))): Fraction(1),
    (0, ((0, 0), (0, 0), (0, 0), (0, 0), (2, 1))): Fraction(1),
    (0, ((0, 0), (0, 0), (0, 0), (0, 1), (2, 0))): Fraction(1),
    (0, ((0, 0), (0, 0), (0, 0), (1, 0), (1, 1))): Fraction(2),
    (0, ((0, 0), (0, 0), (0, 1), (1, 0), (1, 0))): Fraction(2),
    # genus 1
    (1, ((1, 0),)): Fraction(1, 12),
    (1, ((0, 0), (2, 0))): Fraction(1, 12),
    (1, ((1, 0), (1, 0))): Fraction(1, 12),
    (1, ((0, 0), (0, 0), (3, 0))): Fraction(1, 12),
    (1, ((0, 0), (1, 0), (2, 0))): Fraction(1, 6),
    (1, ((1, 0), (1, 0), (1, 0))): Fraction(1, 6),
    (1, ((0, 1), (0, 1), (2, 1))): Fraction(1, 36),
    (1, ((0, 1), (1, 1), (1, 1))): Fraction(1, 36),
}


def test_criterion_2_r3_correlator_tables():
    start = time.perf_counter()
    table = _table(compute_tau(3, 3))
    elapsed = time.perf_counter() - start
    mismatches = {
        key: (table.get(key), expected)
        for key, expected in R3_TABLE.items()
        if table.get(key) != expected
    }
    ok = not mismatches and elapsed < 60.0
    _report("2", ok, f"{len(R3_TABLE)} table values at degree <= 3, {elapsed:.2f}s")
    assert mismatches == {}
    assert elapsed < 60.0


def test_criterion_3_r3_genus_two_values():
    start = time.perf_counter()
    table = _table(compute_tau(3, 4))
    elapsed = time.perf_counter() - start
    expected = {
        (2, ((0, 1), (4, 1))): Fraction(1, 864),
        (2, ((1, 1), (3, 1))): Fraction(11, 4320),
        (2, ((2, 1), (2, 1))): Fraction(17, 4320),
    }
    mismatches = {
        key: (table.get(key), value)
        for key, value in expected.items()
        if table.get(key) != value
    }
    ok = not mismatches and elapsed < 600.0
    _report("3", ok, f"genus-2 degree-4 values, {elapsed:.2f}s")
    assert mismatches == {}
    assert elapsed < 600.0


def _genus0_insertion_multisets_r2(max_degree):
    """All genus-0 insertion multisets within the graded range: n insertions
    of levels m_i with sum(m) = n - 3 and degree n - 2 <= max_degree."""
    def partitions(total, largest):
        if total == 0:
            yield ()
            return
        for first in range(min(total, largest), 0, -1):
            for rest in partitions(total - first, first):
                yield (first,) + rest

    for n in range(3, max_degree + 3):
        total = n - 3
        for positive in partitions(total, total) if total else [()]:
            if len(positive) > n:
                continue
            yield tuple(sorted(positive + (0,) * (n - len(positive))))


def test_criterion_4_r2_string_equation_oracle(constraint_runs):
    tau, _, _ = constraint_runs[(2, 5)]
    table = _table(tau)
    anchor_three_point = table.get((0, ((0, 0), (0, 0), (0, 0))))
    anchor_genus_one = table.get((1, ((1, 0),)))

    extracted_match = all(
        value == genus0_value_r2(tuple(ins[0] for ins in key))
        for (genus, key), value in table.items()
        if genus == 0
    )
    oracle_match = True
    checked = 0
    for levels in _genus0_insertion_multisets_r2(5):
        expected = genus0_value_r2(levels)
        assert expected == genus0_closed_form_r2(levels)  # oracle self-check
        got = table.get((0, tuple((m, 0) for m in levels)), Fraction(0))
        checked += 1
        if got != expected:
            oracle_match = False
    ok = (
        anchor_three_point == Fraction(1)
        and anchor_genus_one == Fraction(1, 24)
        and extracted_match
        and oracle_match
    )
    _report("4", ok, f"{checked} genus-0 multisets against the string oracle")
    assert anchor_three_point == Fraction(1)
    assert anchor_genus_one == Fraction(1, 24)
    assert extracted_match
    assert oracle_match


def test_criterion_5_w_constraints_r2_r3(constraint_runs):
    total = sum(elapsed for _, _, elapsed in constraint_runs.values())
    tau2, report2, _ = constraint_runs[(2, 5)]
    tau3, report3, _ = constraint_runs[(3, 3)]
    ok = report2.status == "pass" and report3.status == "pass" and total < 600.0
    _report("5a", ok, f"r=2 depth 5 and r=3 depth 3 exact, combined {total:.2f}s for all four runs")
    assert report2.status == "pass"
    assert report3.status == "pass"
    assert total < 600.0


def test_criterion_5_w_constraints_r4_r5(constraint_runs):
    """Faithful statement of the r=4 and r=5 halves of criterion 5.

    Every constraint residual must vanish exactly.  That holds only for the
    full twisted-module W(gl_r) modes: with plain oscillator powers for the
    spin >= 4 modes the linear system imposed on the degree-2 piece has no
    solution.  Any nonzero residual is printed below as an exact
    measurement.
    """
    _, report4, _ = constraint_runs[(4, 2)]
    _, report5, _ = constraint_runs[(5, 2)]
    ok = report4.status == "pass" and report5.status == "pass"
    detail = (
        f"r=4: {len(report4.residuals)} nonzero residuals, "
        f"r=5: {len(report5.residuals)} nonzero residuals; "
        "inconsistency of the bare spin>=4 modes, see README known limitations"
    )
    _report("5b", ok, detail)
    for label, poly in decoded_residuals(report4) + decoded_residuals(report5):
        print(f"  measured residual {label}: {poly}", flush=True)
    assert report4.status == "pass", detail
    assert report5.status == "pass", detail


def test_criterion_6_property_suites(constraint_runs):
    failures = []
    for (r, depth), (tau, _, _) in constraint_runs.items():
        for report in run_checks(tau, ["string_dilaton", "grading", "selection"]):
            if report.status != "pass":
                failures.append((r, depth, report.check_name))
        for rec in extract_correlators(tau):
            if not selection_check(r, rec.genus, rec.insertions):
                failures.append((r, depth, "selection", rec))
            if not isinstance(rec.value, Fraction):
                failures.append((r, depth, "rationality", rec))
    ok = not failures
    _report("6", ok, "grading, selection, rationality, string and dilaton on all four runs")
    assert failures == []


def test_criterion_7_determinism():
    blobs = [serialize_tau(compute_tau(3, 3)) for _ in range(4)]
    ok = all(blob == blobs[0] for blob in blobs)
    _report("7", ok, "byte-identical output across repeated runs")
    assert all(blob == blobs[0] for blob in blobs)


def test_criterion_8_enumeration_oracle():
    checked = 0
    mismatches = []
    for r in (2, 3, 4):
        for k in range(2, r + 1):
            for j in range(k):
                for m in range(max(-(k - 1), -3), 4):
                    mine = mode_table(r, k, j, m, 8)
                    oracle = ordered_w_terms(r, k, j, m, 8, 8)
                    checked += 1
                    if mine != oracle:
                        mismatches.append((r, k, j, m))
    ok = not mismatches
    _report("8", ok, f"{checked} modes, multiset enumeration vs ordered tuples at caps 8/8")
    assert mismatches == []


def test_criterion_9_commutator_and_exponential_diagnostics():
    r3 = check_commutators(compute_tau(3, 3))
    r4 = check_commutators(compute_tau(4, 2))
    exp3 = check_exponential_agreement(compute_tau(3, 3))
    exp4 = check_exponential_agreement(compute_tau(4, 2))
    reports = [r3, r4, exp3, exp4]
    computed = all(rep.status == "diagnostic" for rep in reports)
    measured_nonzero = [
        (name, label)
        for name, rep in (("r=3", r3), ("r=4", r4))
        for label, _ in rep.residuals
    ]
    _report(
        "9",
        computed,
        "diagnostics computed and reported; non-gating by design",
    )
    print(
        "  commutator residuals expected zero by conjecture; measured "
        + ("ALL ZERO" if not measured_nonzero else f"NONZERO at {measured_nonzero}"),
        flush=True,
    )
    print(
        f"  exponential formula vs recursion: r=3 depth 3 agrees={exp3.details['agrees']}, "
        f"r=4 depth 2 agrees={exp4.details['agrees']}",
        flush=True,
    )
    assert computed
    assert r3.details["instances"] >= 1
    assert r4.details["instances"] == 1  # the fallback, [A_1, A_2] on tau_0
    # residuals must be computed and carried in the reports, zero or not
    assert all(is_homogeneous(poly, 12) for _, poly in decoded_residuals(r3))
    assert exp3.details["max_degree"] == 3
