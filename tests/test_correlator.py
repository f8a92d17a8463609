"""Coordinate conversion, the graded log, and exact correlator extraction."""

import hashlib
import random
import re
from fractions import Fraction

import pytest

from rspin import (
    ContractError,
    Insertion,
    InvalidInsertionError,
    QScalar,
    TauCache,
    TauExpansion,
    TMonomial,
    TPolynomial,
    check_commutators,
    check_exponential_agreement,
    compute_tau,
    conversion_constant,
    extract_correlators,
    insertion_for_index,
    parse_tau,
    run_checks,
    selection_check,
    serialize_tau,
    variable_index,
)
from rspin.serialize import records_to_json

from helpers import (
    add, const, exp_graded, free_energy2_r3, graded_part, log_tau, make_monomial, monomial, one, power_series_log, q_scale, qs,
    tau1_r3, var, with_piece,
)


def test_conversion_constants():
    # the rational q of t_{m,a} = q * s * T_n
    assert conversion_constant(3, 0, 0) == Fraction(1, 3)
    assert conversion_constant(3, 0, 1) == Fraction(2, 3)
    assert conversion_constant(2, 1, 0) == Fraction(-3, 4)


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
    tau = TauExpansion(3, 1, [one(3), tau1_r3()])
    assert log_tau(tau) == tau1_r3()


def test_log_at_degree_two_matches_fixture():
    tau = compute_tau(3, 2)
    free_energy = log_tau(tau)
    assert graded_part(free_energy, 1) == tau1_r3()
    assert graded_part(free_energy, 2) == free_energy2_r3()


def test_log_requires_unit_constant_term():
    # no expansion that log_tau could read holds tau_0 != 1
    with pytest.raises(ContractError, match="^degree-0 piece must equal 1$"):
        TauExpansion(3, 1, [const(3, 2), tau1_r3()])


@pytest.mark.parametrize("r, D", ((2, 6), (3, 5), (4, 4), (5, 4), (7, 3)))
def test_log_matches_power_series_oracle(r, D):
    tau = compute_tau(r, D)
    free_energy = log_tau(tau)
    assert free_energy == power_series_log(tau)
    assert exp_graded(free_energy, D).pieces == tau.pieces


def test_log_of_a_graded_tau_reaching_the_top_weight():
    # at r = 2 every monomial of weight 3j in odd indices with lam^(j-N) is
    # graded, T1^(3j) among them; at the top weight W = 12 the packed log
    # meets T1^W, which fills the T1 field, and T3^D = T3^4, which fills the
    # T3 field at a power of two, so a field one bit short would carry
    r, D = 2, 4
    rng = random.Random(7)
    pieces = [one(r)]
    for j in range(1, D + 1):
        terms = {}
        for _ in range(3):
            exps, left = {}, 3 * j
            while left:
                n = rng.randrange(1, left + 1, 2)
                exps[n] = exps.get(n, 0) + 1
                left -= n
            terms[make_monomial(j - sum(exps.values()), exps)] = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        terms[make_monomial(-2 * j, {1: 3 * j})] = Fraction(1, j + 1)
        terms[make_monomial(0, {3: j})] = Fraction(-1, j + 2)
        unit = qs(0, 1) if j % 2 else qs(1)
        pieces.append(TPolynomial(r, {m: q_scale(unit, c) for m, c in terms.items()}))
    tau = TauExpansion(r, D, pieces)  # graded as it is built
    free_energy = log_tau(tau)
    tops = {m.exps for m in free_energy.terms}
    assert ((1, D * (r + 1)),) in tops and ((3, D),) in tops
    assert free_energy == power_series_log(tau)


# Additions to one piece of compute_tau(3, 2), each off the grading, with
# the kind of rule of tpoly.check_piece that it breaks first
ROOT3 = qs(0, 1)
OFF_GRADE = {
    "rational-in-degree-1": (1, var(3, 4), "coefficients"),
    "lam-not-j-minus-N": (1, monomial(3, ROOT3, 2, {4: 1}), "lam exponents"),
    "off-the-weight": (1, monomial(3, ROOT3, 0, {1: 1}), "inhomogeneous"),
    "index-above-W": (1, monomial(3, ROOT3, 0, {5: 1}), "inhomogeneous"),
    "index-divisible-by-r": (1, TPolynomial._raw(3, {TMonomial(-1, ((1, 1), (3, 1))): ROOT3}), "indices"),
    "zero-exponent": (1, TPolynomial._raw(3, {TMonomial(0, ((1, 0), (4, 1))): ROOT3}), "indices"),
    # T3*T5 keeps the weight, the lam exponent and the component of degree 2
    "index-divisible-by-r-on-the-weight": (2, TPolynomial._raw(3, {TMonomial(0, ((3, 1), (5, 1))): qs(1)}), "indices"),
    # lam = j - N, but odd
    "odd-lam": (1, monomial(3, ROOT3, -1, {2: 2}), "lam exponents"),
    # lam = j - N and even, but below -2j
    "lam-below-minus-2j": (2, monomial(3, 1, -6, {1: 8}), "lam exponents"),
}


# The why that tpoly.check_piece gives for each kind of rule
WHY = {
    "indices": r"T\d+\^\d+: indices ascend, are positive, not divisible by 3; exponents >= 1$",
    "inhomogeneous": r"weight \d+, expected [48]$",
    "lam exponents": r"lam exponent -?\d+ on \d+ variables, expected -?\d+, even and >= -[24]$",
    "coefficients": r"coefficient .* outside Q\*s\^[01]$",
}


def _off_grade_tau(case):
    """compute_tau(3, 2), piece j, that piece plus the case's addition, the
    added monomial and the kind of its fault."""
    j, extra, kind = OFF_GRADE[case]
    tau = compute_tau(3, 2)
    (mono,) = extra.terms
    return tau, j, add(tau.pieces[j], extra), mono, kind


def validate(tau):
    """What TauExpansion.validate checked, now done by construction: the
    expansion built again from its polynomials, its packed pieces."""
    return TauExpansion(tau.r, tau.max_degree, tau.pieces).held


def run_wconstraints(tau):
    return list(run_checks(tau, ["wconstraints"]))


def commutators_on_bases_0_to_2(tau):
    """check_commutators on compute_tau(3, 5) with tau's pieces put in:
    at (3, 2) only the fallback on tau_0 runs, at (3, 5) pieces 0 to 2 are
    each the base of [A_1, A_2]."""
    deeper = compute_tau(3, 5)
    low = len(tau.held)
    return check_commutators(TauExpansion(3, 5, [*tau.pieces, *deeper.held[low:]]))


@pytest.mark.parametrize("case", list(OFF_GRADE))
@pytest.mark.parametrize(
    "read",
    (
        validate,
        log_tau,
        extract_correlators,
        run_wconstraints,
        check_exponential_agreement,
        commutators_on_bases_0_to_2,
    ),
)
def test_off_grade_input_is_refused(case, read):
    # an off-grade polynomial reaches no reader: building an expansion with
    # it refuses it with the one grading's message (tpoly.check_piece), and
    # the pieces view, a tuple built on each read, takes no piece put into
    # it; the reader's expansion and what it reads there stay as they were
    tau, j, piece, mono, _ = _off_grade_tau(case)
    before = read(tau)
    with pytest.raises(ContractError, match=re.escape(f"piece {j} has monomial {mono} off the grading")):
        with_piece(tau, j, piece)
    with pytest.raises(TypeError):
        tau.pieces[j] = piece
    assert read(tau) == before


@pytest.mark.parametrize("case", list(OFF_GRADE))
def test_off_grade_input_fails_the_grading_check(case):
    # the grading is checked where the expansion is built, and its message
    # names the rule the added monomial breaks
    tau, j, piece, mono, kind = _off_grade_tau(case)
    message = f"^piece {j} has monomial {re.escape(str(mono))} off the grading: {WHY[kind]}"
    with pytest.raises(ContractError, match=message):
        with_piece(tau, j, piece)


def test_every_reader_grades_each_piece_once(tmp_path, monkeypatch):
    from rspin import scalar, serialize, solver, tpoly, verify

    tau = compute_tau(3, 3, cache=TauCache(tmp_path))
    exponential = solver.compute_tau_exponential(3, 3)
    # the exponential diagnostic grades the pieces it makes, degrees 0 .. 3
    made = {
        "check_exponential_agreement": [
            (j, [(None, tpoly.unpack_exponents(key, exponential.fields), 0, 0) for key in nums])
            for j, (nums, _) in enumerate(exponential.held)
        ]
    }
    seen, check_piece = [], tpoly.check_piece

    def counting(r, j, rows):
        rows = list(rows)  # the rows graded, (lam, exps, a, b) per term
        seen.append((j, rows))
        return check_piece(r, j, rows)

    # pack_piece's, the solve's, the cache reader's and the document reader's calls
    for module in (tpoly, solver, serialize, scalar):
        monkeypatch.setattr(module, "check_piece", counting)
    readers = {
        "extract_correlators": lambda: extract_correlators(tau),
        "run_checks": lambda: list(verify.run_checks(tau, verify.CHECKS)),
        "constraint pass": lambda: verify.w_constraint_residuals(tau, verify.constraint_equations(3, 3)),
        "check_commutators": lambda: check_commutators(tau),
        "check_exponential_agreement": lambda: check_exponential_agreement(tau),
        "pieces": lambda: tau.pieces,
    }
    # compute_tau graded every piece as it made it: no reader grades one
    # again, and only the exponential diagnostic grades the pieces it makes
    for name, read in readers.items():
        read()
        assert seen == made.get(name, []), name
        seen.clear()
    # a caller's piece is graded once, where the expansion is built
    piece = add(tau.pieces[2], monomial(3, 1, 0, {1: 1, 7: 1}))
    tau = with_piece(tau, 2, piece)
    assert seen == [(2, [(m.lambda_exp, m.exps, c.a, c.b) for m, c in piece.terms.items()])]
    seen.clear()
    for name, read in readers.items():
        read()
        assert seen == made.get(name, []), name
        seen.clear()
    # the readers of stored text grade what they read, once each
    parse_tau(serialize_tau(tau))
    assert sorted(j for j, _ in seen) == [0, 1, 2, 3]
    seen.clear()
    [TauCache(tmp_path).load(3, j, solver._layout(3, 3)) for j in (1, 2, 3)]
    assert sorted(j for j, _ in seen) == [1, 2, 3]


# sha256 of records_to_json(extract_correlators(compute_tau(r, D))), as
# extracted through QScalar polynomials; the r-KdV oracle covers these r.
RECORD_DIGESTS = {
    (2, 8): "15146d4abb1f38ed2a8ee12f5af030c8c8b9d9aa2a2545ee435e67e8ed8e166e",
    (4, 6): "ee6f560aa05ae17a2fc1e27366b11741086873776a2971507f0d83de8558ccfc",
    (5, 5): "4ec2347e5608f623a6f6dc4d71cc368bf716b9479bcf55b80f9b184f2877f44f",
    (7, 3): "73200f20137b2697fb1922617ad4b2984b43c62d648bdacc1a66f04fc7fa160c",
    (12, 2): "cdbe94a6fb8c1ce8897ca5de2fc7f82d1f72efebfbb0c2977d0ac5842950d39a",
}


@pytest.mark.parametrize("r, D", sorted(RECORD_DIGESTS))
def test_records_are_pinned(r, D):
    data = records_to_json(extract_correlators(compute_tau(r, D)))
    assert hashlib.sha256(data).hexdigest() == RECORD_DIGESTS[(r, D)]


def test_extraction_builds_no_scalar(monkeypatch):
    tau = compute_tau(3, 4)
    built = []
    init = QScalar.__init__

    def counting_init(self, a, b):
        built.append((a, b))
        init(self, a, b)

    # QScalar(a, b) is the one construction path, arithmetic results included
    monkeypatch.setattr(QScalar, "__init__", counting_init)
    extract_correlators(tau)
    assert not built
    log_tau(tau)  # the test view, which builds QScalar coefficients
    assert built


def test_exp_log_round_trip():
    for r, D in ((3, 3), (2, 4)):
        tau = compute_tau(r, D)
        rebuilt = exp_graded(log_tau(tau), D)
        assert rebuilt.pieces == tau.pieces


def test_exp_rejects_constant_part():
    with pytest.raises(ContractError):
        exp_graded(one(3), 2)


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
