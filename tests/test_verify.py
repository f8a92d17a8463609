"""Exact verification checks: constraints, string/dilaton, grading,
commutator and exponential diagnostics."""

import re
from fractions import Fraction

import pytest

from rspin import (
    ExtractionError,
    Insertion,
    TauExpansion,
    TMonomial,
    TPolynomial,
    check_commutators,
    check_exponential_agreement,
    compute_tau,
    extract_correlators,
)
from rspin import ContractError, InvalidSpecError, compute_tau_exponential, correlator, run_checks, solver, tpoly, verify, walgebra
from rspin.serialize import reports_to_json
from rspin.verify import CHECKS, check_names, constraint_equations, w_constraint_residuals
from rspin.walgebra import _operator_loop

from helpers import (
    _dump, add, decoded, decoded_residuals, is_homogeneous, is_zero, monomial, qs, reference_commutator,
    reference_exponential, reference_w_residual, report_to_obj, scaled, sub, var, with_piece, zero,
)


def test_w_constraints_pass_r3():
    tau = compute_tau(3, 2)
    (report,) = run_checks(tau, ["wconstraints"])
    assert report.status == "pass"
    assert report.residuals == []


def test_w_constraints_pass_r2():
    (report,) = run_checks(compute_tau(2, 3), ["wconstraints"])
    assert report.status == "pass"


def _s_times_var(r, n):
    """s*T_n, graded like a degree-1 piece: lam^0 on one variable, in Q*s."""
    return monomial(r, qs(0, 1), 0, {n: 1})


def _plus_s_t1_t3(piece):
    """piece plus s*T1*T3*lam^-1, built unchecked: graded like a degree-1
    piece at r = 3 (offset 1, in Q*s, weight 4), but T3 is divisible by r,
    so no packed layout has a field for it."""
    return TPolynomial._raw(3, {**piece.terms, TMonomial(-1, ((1, 1), (3, 1))): qs(0, 1)})


def test_w_constraints_detect_seeded_error():
    tau = compute_tau(3, 2)
    tau = with_piece(tau, 1, add(tau.pieces[1], _s_times_var(3, 4)))
    (report,) = run_checks(tau, ["wconstraints"])
    assert report.status == "fail"
    labels = [label for label, _ in report.residuals]
    assert "k=2 m=0 degree=1" in labels


def test_w_constraints_skip_modes_that_empty_a_piece(monkeypatch):
    # a mode that sends every monomial of a piece below weight 0 has no
    # terms to apply; the check counts such equations as engaged but reads
    # no block of them, and makes one kernel call per nonzero piece.  Each
    # block a piece reads has creators of weight at least 0 and
    # annihilators no heavier than the piece, and none is read twice
    tau = compute_tau(3, 6)
    calls, blocks, add_block = [], [], walgebra._add_block

    def counting(groups, kernel_rows):
        calls.append(len(blocks))  # the operator is built before its call
        return _operator_loop(groups, kernel_rows)

    def recording(*args):
        blocks.append(args[:5])
        return add_block(*args)

    monkeypatch.setattr(verify, "_operator_loop", counting)
    monkeypatch.setattr(verify, "_add_block", recording)
    (report,) = run_checks(tau, ["wconstraints"])
    assert report.status == "pass"
    assert report.details == {"equations": 147, "vacuous": 0, "m_max": 8}
    assert len(calls) == sum(not is_zero(piece) for piece in tau.pieces) == 7
    for j, (start, end) in enumerate(zip([0, *calls], calls)):
        read = blocks[start:end]
        assert read and len(set(read)) == len(read), j
        for r, k, l, m, wa in read:
            assert wa - r * m - l * (r + 1) >= 0 and wa <= j * (r + 1), (j, k, l, m, wa)


# the tamperings of _tampered off the grading -> the piece they change
OFF_THE_GRADING = {"s*T_1": 1, "tau_0 + 2/5*lam^-2*T_1^2": 0}


def _tampered(r, D):
    """Builders of tau and tampered copies: graded pieces added to degree 1
    (s*T_{r+1}) and degree 2 (5/7*T_1*T_{2r+1}), piece 2 zeroed, and the
    inhomogeneous s*T_1 on degree 1 and 2/5*lam^-2*T_1^2 on degree 0
    (OFF_THE_GRADING), which construction refuses."""
    extra = {
        "tau": None,
        "s*T_{r+1}": (1, _s_times_var(r, r + 1)),
        "s*T_1": (1, _s_times_var(r, 1)),
        "5/7*T_1*T_{2r+1}": (2, monomial(r, qs(Fraction(5, 7)), 0, {1: 1, 2 * r + 1: 1})),
        "piece 2 zeroed": (2, None),
        "tau_0 + 2/5*lam^-2*T_1^2": (0, monomial(r, qs(Fraction(2, 5)), -2, {1: 2})),
    }
    tau = compute_tau(r, D)
    for name, change in extra.items():
        if change is None:
            yield name, lambda: tau
        else:
            j, poly = change
            piece = zero(r) if poly is None else add(tau.pieces[j], poly)
            yield name, lambda j=j, piece=piece: with_piece(tau, j, piece)


@pytest.mark.parametrize("r, D", [(2, 6), (3, 6), (3, 8), (4, 5), (5, 4), (6, 3), (7, 3), (8, 3)])
def test_constraint_pass_equals_mode_by_mode_reference(r, D):
    equations = constraint_equations(r, D)
    for name, build in _tampered(r, D):
        if name in OFF_THE_GRADING:
            j = OFF_THE_GRADING[name]
            with pytest.raises(ContractError, match=f"piece {j} has monomial .* off the grading: weight"):
                build()
            continue
        tau = build()
        passed, pieces = w_constraint_residuals(tau, equations), tau.pieces
        assert sorted(passed) == sorted(equations), name
        for k, m, d in equations:
            residual, engaged = passed[(k, m, d)]
            assert (decoded(residual), engaged) == reference_w_residual(pieces, k, m, d), (name, k, m, d)
        failing = sum(not is_zero(decoded(residual)) for residual, _ in passed.values())
        assert (failing == 0) == (name == "tau"), name


@pytest.mark.parametrize("r, D", [(3, 4), (4, 3)])
def test_residuals_stay_exact_at_negative_offsets(r, D):
    # equation (k, m, d) has offset d - k + 1, below 0 for small d; its
    # s^(d-k+1) takes a negative power of -r.  s*lam^-2*T_1^2*T_{r-1} on
    # tau_1 keeps the grading and breaks the equations that read tau_1, down
    # to offset 2 - r (k = r, d = 1)
    tau = compute_tau(r, D)
    tau = with_piece(tau, 1, add(tau.pieces[1], monomial(r, qs(0, 1), -2, {1: 2, r - 1: 1})))
    # and the packed residual is integers, rendered exactly as its polynomial
    passed = w_constraint_residuals(tau, constraint_equations(r, D))
    negative = [(k, m, d) for (k, m, d), (residual, _) in passed.items() if d - k + 1 < 0 and residual.piece[0]]
    assert {d - k + 1 for k, _, d in negative} == set(range(2 - r, 0))
    for eq in negative:
        residual, engaged = passed[eq]
        assert residual.degree == eq[2] - eq[0] + 1
        assert (decoded(residual), engaged) == reference_w_residual(tau.pieces, *eq)
    for residual, _ in passed.values():
        nums, den = residual.piece
        assert type(den) is int and den > 0 and all(type(x) is int for x in nums.values())
    report = verify.CheckReport("negative offsets", "fail", [(str(eq), passed[eq][0]) for eq in negative], {})
    assert reports_to_json([report]) == _dump([report_to_obj(report)])


def test_constraint_pass_refuses_pieces_off_the_grading():
    # a mixed coefficient, a whole piece in the wrong parity, the wrong
    # offset lam + N, an index divisible by r, or the wrong weight: no
    # constraint pass can read such a piece, as building the expansion
    # refuses it with the message of tpoly.check_piece, naming the piece
    # and the first monomial off the grading
    tau = compute_tau(3, 3)
    bad = {
        "mixed": (add(tau.pieces[2], monomial(3, qs(0, 1), 0, {1: 1, 7: 1})), r"coefficient -7/81 \+ s outside"),
        "parity": (monomial(3, qs(1), 0, {4: 1}), "coefficient 1 outside"),
        "offset": (monomial(3, qs(0, 1), -2, {4: 1}), "lam exponent -2 on 1 variables"),
        "index divisible by r": (_plus_s_t1_t3(tau.pieces[1]), r"T3\^1: indices ascend"),
        "weight": (add(tau.pieces[1], _s_times_var(3, 1)), "weight 1, expected 4"),
    }
    for name, (piece, why) in bad.items():
        j = 2 if name == "mixed" else 1
        with pytest.raises(ContractError, match=f"piece {j} has monomial .* off the grading: {why}"):
            with_piece(tau, j, piece)


@pytest.mark.parametrize(
    "names",
    [
        ["wconstraint", "grading"],
        ["grading", "bogus"],
        [],
        (),
        "grading",
        "selection,grading",
        (name for name in ["wconstraints", "grading"]),
    ],
)
def test_run_checks_refuses_names_off_the_list(names):
    # a misspelled name, no name, a bare string (read by substring or by
    # character), or a generator (used up by the first read, so that no
    # check would run) would run fewer checks than asked and could read as
    # passing
    tau = compute_tau(3, 2)
    with pytest.raises(InvalidSpecError, match="unknown checks|names no check|not the string"):
        list(run_checks(tau, names))
    with pytest.raises(InvalidSpecError):
        check_names(names)
    assert [rep.check_name for rep in run_checks(tau, ["selection", "grading"])] == ["grading", "selection"]


def test_string_dilaton_passes():
    (report,) = run_checks(compute_tau(3, 2), ["string_dilaton"])
    assert report.status == "pass"
    assert report.details["string_instances"] > 0
    assert report.details["dilaton_instances"] > 0


def test_string_and_dilaton_instances_from_tables():
    # one string step: <t_{1,0} t_{0,1} t_{0,0}^2> descends to <t_{0,0}^2 t_{0,1}>
    table = {
        (rec.genus, tuple((i.m, i.a) for i in rec.insertions)): rec.value
        for rec in extract_correlators(compute_tau(3, 2))
    }
    assert table[(0, ((0, 0), (0, 0), (0, 1), (1, 0)))] == Fraction(1)
    assert table[(0, ((0, 0), (0, 0), (0, 1)))] == Fraction(1)
    # one dilaton step at genus one: <t_{1,0}^2> = (2g - 2 + 1) <t_{1,0}>
    assert table[(1, ((1, 0), (1, 0)))] == 1 * table[(1, ((1, 0),))]


def test_string_dilaton_detects_seeded_error():
    tau = compute_tau(3, 2)
    tau = with_piece(tau, 2, add(tau.pieces[2], monomial(3, 1, 0, {1: 1, 7: 1})))
    (report,) = run_checks(tau, ["string_dilaton"])
    assert report.status == "fail"


def test_gradings_pass():
    for r, D in ((3, 3), (2, 4)):
        (report,) = run_checks(compute_tau(r, D), ["grading"])
        assert report.status == "pass"


def test_gradings_detect_inhomogeneous_piece():
    # the grading is checked where the expansion is built
    tau = compute_tau(3, 2)
    with pytest.raises(ContractError, match=r"^piece 1 has monomial T1 off the grading: weight 1, expected 4$"):
        with_piece(tau, 1, add(tau.pieces[1], var(3, 1)))  # weight 1 inside degree 1


def test_gradings_detect_bad_lambda():
    tau = compute_tau(3, 1)
    why = "lam exponent -4 on 1 variables, expected 0, even and >= -2"
    with pytest.raises(ContractError, match=rf"^piece 1 has monomial T4\*lam\^-4 off the grading: {why}$"):
        with_piece(tau, 1, add(tau.pieces[1], monomial(3, 1, -4, {4: 1})))


def test_selection_report_passes():
    (report,) = run_checks(compute_tau(3, 2), ["selection"])
    assert report.status == "pass"
    assert report.details["records"] == 7


def _counting(monkeypatch):
    # records the equations of each constraint pass and the depth of each
    # extraction that run_checks makes
    passes, extractions = [], []
    residuals, extract = verify.w_constraint_residuals, verify.extract_correlators

    def counting_pass(tau, equations):
        passes.append(list(equations))
        return residuals(tau, equations)

    def counting_extraction(tau):
        extractions.append(tau.max_degree)
        return extract(tau)

    monkeypatch.setattr(verify, "w_constraint_residuals", counting_pass)
    monkeypatch.setattr(verify, "extract_correlators", counting_extraction)
    return passes, extractions


def test_correlator_checks_share_one_extraction(monkeypatch):
    # s*lam^-2*T1^2*T2 on degree 1 keeps the grading, so the constraint pass
    # reads it, but its square leaves a genus -1 monomial in the log that
    # tau_2 does not cancel: the one extraction fails and its error is a
    # residual of each correlator check
    tau = compute_tau(3, 2)
    tau = with_piece(tau, 1, add(tau.pieces[1], monomial(3, qs(0, 1), -2, {1: 2, 2: 1})))
    with pytest.raises(ExtractionError, match="negative genus") as error:
        extract_correlators(tau)
    _, extractions = _counting(monkeypatch)
    reports = list(run_checks(tau, CHECKS[::-1]))
    assert [rep.check_name for rep in reports] == ["wconstraints", "string_dilaton", "grading", "selection"]
    assert extractions == [2]
    for rep in reports[1:]:
        assert rep.status == "fail"
        assert f"extraction: {error.value}" in [label for label, _ in rep.residuals]
    assert list(run_checks(tau, ("grading", "selection"))) == reports[2:] and extractions == [2, 2]
    assert list(run_checks(tau, ("wconstraints",))) == reports[:1] and extractions == [2, 2]


def test_string_dilaton_reads_a_shared_constraint_pass(monkeypatch):
    # every equation in one pass when wconstraints is named; string_dilaton
    # alone makes one pass of its 2(D+1) equations, and its report is the same
    tau = compute_tau(3, 2)
    tau = with_piece(tau, 1, add(tau.pieces[1], _s_times_var(3, 4)))  # seeded error
    passes, _ = _counting(monkeypatch)
    reports = list(run_checks(tau, CHECKS))
    assert passes == [constraint_equations(3, 2)]
    passes.clear()
    alone = list(run_checks(tau, ["string_dilaton"]))
    assert passes == [[(2, m, d) for m in (-1, 0) for d in range(3)]]
    assert alone[0].status == "fail" and alone == reports[1:2]
    passes.clear()
    assert list(run_checks(tau, ("grading", "selection"))) == reports[2:] and passes == [[]]


def test_constraint_pass_refuses_equations_off_the_computed_range():
    # an equation reading a piece beyond max_degree, a negative degree, or a
    # (k, m) that labels no W(k, 0, m) is refused, never reported
    tau = compute_tau(3, 2)
    for k, m, d in [(2, 0, 3), (2, -1, 3), (3, 0, 3), (2, 0, -1), (2, -2, 1), (1, 0, 1), (4, 0, 1)]:
        with pytest.raises(InvalidSpecError, match=f"equation k={k} m={m} degree={d} "):
            w_constraint_residuals(tau, [(k, m, d)])
        with pytest.raises(InvalidSpecError):
            w_constraint_residuals(tau, [(2, 0, 1), (k, m, d)])


def test_scaled_translation_equals_lowest_constraint():
    # the translation/scaling operators are the two lowest quadratic
    # constraint modes divided by r, so their residuals must match exactly
    tau = compute_tau(3, 2)
    tau = with_piece(tau, 1, add(tau.pieces[1], _s_times_var(3, 4)))  # seeded error
    (report,) = run_checks(tau, ["string_dilaton"])
    for m in (-1, 0):
        for degree in range(tau.max_degree + 1):
            base, _ = w_constraint_residuals(tau, [(2, m, degree)])[(2, m, degree)]
            base = decoded(base)
            name = "translation" if m == -1 else "scaling"
            matching = [
                poly for label, poly in decoded_residuals(report)
                if label == f"{name} operator degree={degree}"
            ]
            if is_zero(base):
                assert not matching
            else:
                assert matching and matching[0] == scaled(base, Fraction(1, 3))


@pytest.mark.parametrize("r, D", [(3, 6), (5, 4)])
def test_one_layout_per_run(monkeypatch, r, D):
    # the checks and both diagnostics pack every piece they read over the
    # solve's layout, of top weight D*(r+1)
    tau = compute_tau(r, D)
    weights, fields = [], tpoly.exponent_fields

    def recording(r, weight):
        weights.append(weight)
        return fields(r, weight)

    for module in (tpoly, solver, verify, correlator):
        monkeypatch.setattr(module, "exponent_fields", recording)
    list(run_checks(tau, CHECKS))
    check_commutators(tau)
    check_exponential_agreement(tau)
    assert weights and set(weights) == {D * (r + 1)}


def test_commutator_diagnostic_r3():
    report = check_commutators(compute_tau(3, 3))
    assert report.status == "diagnostic"
    assert report.details["instances"] == 1
    # the raisers genuinely fail to commute on the constant piece
    assert len(report.residuals) == 1
    label, residual = report.residuals[0]
    assert label == "[A_1, A_2] on degree 0"
    assert residual.degree == 3 and is_homogeneous(decoded(residual), 12)


def test_commutators_pack_each_base_once(monkeypatch):
    # at (5, 5) the 7 instances raise the bases tau_0 (4 of them), tau_1 and
    # tau_2; handed over as TPolynomials, each piece is packed once, where
    # the expansion is built, and the diagnostic packs none again
    packed, pack_piece = [], solver.pack_piece

    def counting(r, j, piece, shift):
        packed.append(j)
        return pack_piece(r, j, piece, shift)

    monkeypatch.setattr(solver, "pack_piece", counting)
    tau = TauExpansion(5, 5, compute_tau(5, 5).pieces)
    assert packed == [0, 1, 2, 3, 4, 5]
    assert check_commutators(tau).details["instances"] == 7
    assert packed == [0, 1, 2, 3, 4, 5]


def test_commutator_vacuous_for_r2():
    report = check_commutators(compute_tau(2, 4))
    assert report.status == "diagnostic"
    assert report.details["vacuous"] is True
    assert report.residuals == []


def test_commutator_fallback_minimal_instances_r4():
    report = check_commutators(compute_tau(4, 2))
    assert report.status == "diagnostic"
    assert report.details["fallback_minimal"] is True
    assert report.details["instances"] == 1  # [A_1, A_2] on the constant only
    # the fallback stays one instance at large r, where every pair on the
    # constant raised tau_0 to degree 2r-3 (r = 7 ran past 100 s)
    report = check_commutators(compute_tau(7, 2))
    assert report.details["instances"] == 1
    assert [label for label, _ in report.residuals] == ["[A_1, A_2] on degree 0"]


def test_exponential_agreement_reports():
    low = check_exponential_agreement(compute_tau(3, 2))
    assert low.status == "diagnostic"
    assert low.details["agrees"] is True
    high = check_exponential_agreement(compute_tau(3, 3))
    assert high.status == "diagnostic"
    assert high.details["agrees"] is False
    assert [label for label, _ in high.residuals] == ["degree 3"]


@pytest.mark.parametrize("r, degree", [(3, 5), (4, 4), (5, 3), (4, 2), (4, 5)])
def test_packed_diagnostics_match_references(r, degree):
    # (4, 2) is the fallback to [A_1, A_2] on tau_0, and (4, 5) reaches
    # [A_2, A_3]; the references run every raiser through
    # apply_raising_operator and add TPolynomials
    tau = compute_tau(r, degree)
    assert decoded_residuals(check_commutators(tau)) == reference_commutator(r, degree, tau)
    expected = reference_exponential(r, degree)
    assert compute_tau_exponential(r, degree).pieces == tuple(expected)
    diffs = [(f"degree {j}", sub(tau.pieces[j], p)) for j, p in enumerate(expected) if tau.pieces[j] != p]
    assert decoded_residuals(check_exponential_agreement(tau)) == diffs


@pytest.mark.parametrize(
    "piece, fault",
    [
        (monomial(3, qs(1), 0, {4: 1}), "piece 1 is not graded as tau_1"),  # wrong parity
        (monomial(3, qs(0, 1), -2, {4: 1}), "piece 1 is not graded as tau_1"),  # wrong offset
        (monomial(3, qs(1, 1), 0, {4: 1}), "piece 1 is not graded as tau_1"),  # mixed coefficient
        (monomial(3, qs(0, 1), 0, {1: 1}), "piece 1 is not homogeneous"),  # off the weight
        (_plus_s_t1_t3(compute_tau(3, 1).pieces[1]), "piece 1 is not graded as tau_1"),  # T3 is divisible by r
    ],
)
def test_diagnostics_refuse_a_base_off_the_grading(piece, fault):
    # the commutators at (3, 4) raise tau_0 and tau_1; the exponential check
    # compares every piece.  Whatever the fault, the inhomogeneous piece
    # included, neither can read such a base: building the expansion refuses
    # it with tpoly.check_piece's message, naming its one term that is not
    # the graded tau_1's
    assert is_homogeneous(piece, 4) == (fault != "piece 1 is not homogeneous")
    tau = compute_tau(3, 4)
    graded = tau.pieces[1].terms
    (mono,) = [m for m, c in piece.terms.items() if graded.get(m) != c]
    with pytest.raises(ContractError, match=re.escape(f"piece 1 has monomial {mono} off the grading")):
        with_piece(tau, 1, piece)


def test_diagnostics_run_on_packed_pieces(monkeypatch):
    # the exponential makes one kernel call per (power n, degree d, raiser
    # l), l <= min(r - 1, D - d), on the rows of B^(n-1)/(n-1)! . 1 in
    # degree d
    calls, loop = [], walgebra._operator_loop

    def counting(groups, rows):
        calls.append(max((sum(n * e for n, e in exps) for _, exps, _ in rows), default=0) // 5)  # degree: weight / (r + 1)
        return loop(groups, rows)

    monkeypatch.setattr(walgebra, "_operator_loop", counting)
    compute_tau_exponential(4, 4)
    # n = 1: d = 0 (3 raisers); n = 2: d = 1, 2, 3 (3, 2, 1); n = 3: d = 2, 3 (2, 1); n = 4: d = 3 (1)
    assert sorted(calls) == [0, 0, 0, 1, 1, 1, 2, 2, 2, 2, 3, 3, 3]


def test_every_raiser_call_goes_through_the_raise_step(monkeypatch):
    steps, step = [], solver.raise_step

    def counting(r, l, j, rows, shift):
        steps.append((l, j))
        return step(r, l, j, rows, shift)

    monkeypatch.setattr(solver, "raise_step", counting)
    monkeypatch.setattr(verify, "raise_step", counting)
    tau = compute_tau(3, 4)
    assert sorted(steps) == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 4)]
    steps.clear()
    check_commutators(tau)  # [A_1, A_2] on tau_d, d = 0, 1: A_1 A_2 and A_2 A_1, two steps each
    assert sorted(steps) == [(1, 1), (1, 2), (1, 3), (1, 4), (2, 2), (2, 3), (2, 3), (2, 4)]
    steps.clear()
    compute_tau_exponential(3, 2)  # A_1 and A_2 on 1, then A_1 on the degree-1 power
    assert sorted(steps) == [(1, 1), (1, 2), (2, 2)]
