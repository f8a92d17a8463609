"""Exact verification of every identity the computed expansion must satisfy.

All pass/fail checks compare polynomials to the exact zero polynomial;
there are no tolerances anywhere.  The commutator check is diagnostic
only: commutativity of the degree raisers is conjectural, so a nonzero
residual there is reported prominently but fails nothing.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction

from .correlator import CorrelatorRecord, Insertion, extract_correlators
from .solver import TauExpansion, compute_tau, compute_tau_exponential, off_grade
from .tpoly import TPolynomial
from .walgebra import WModeSpec, apply_raising_operator, apply_w_mode

__all__ = [
    "CheckReport",
    "check_commutators",
    "check_exponential_agreement",
    "check_gradings",
    "check_selection",
    "check_string_dilaton",
    "check_w_constraints",
    "default_constraint_mode_bound",
    "extract_or_error",
    "w_constraint_residual",
]

PASS = "pass"
FAIL = "fail"
DIAGNOSTIC = "diagnostic"


@dataclass
class CheckReport:
    check_name: str
    status: str
    residuals: list[tuple[str, TPolynomial]] = field(default_factory=list)
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status != FAIL


Extracted = list[CorrelatorRecord] | Exception


def extract_or_error(tau: TauExpansion) -> Extracted:
    """Correlator records of tau, or the exception extraction raised.

    The correlator checks (string_dilaton, grading, selection) take this
    value as an optional argument so that one extraction serves all three;
    given none, each extracts for itself.
    """
    try:
        return extract_correlators(tau)
    except Exception as exc:  # tampered input: each check reports it, none crashes
        return exc


def _records(tau: TauExpansion, extracted: Extracted | None, residuals: list) -> list[CorrelatorRecord] | None:
    """The extracted records, or None after appending the extraction error
    to residuals."""
    if extracted is None:
        extracted = extract_or_error(tau)
    if isinstance(extracted, Exception):
        residuals.append((f"extraction: {extracted}", TPolynomial.one(tau.r)))
        return None
    return extracted


def default_constraint_mode_bound(r: int, max_degree: int) -> int:
    """Largest outer index whose per-degree constraint still touches a
    computed piece; beyond it every equation is vacuous at this depth."""
    return (max_degree * (r + 1)) // r


def w_constraint_residual(tau: TauExpansion, k: int, m: int, degree: int) -> tuple[TPolynomial, bool]:
    """Residual of one per-degree constraint equation.

    Returns (residual, engaged); engaged is False when every contributing
    piece is absent or zero, i.e. the equation is vacuous at this depth.
    Raises ContractError if a piece the equation applies a mode to is not
    graded.
    """
    r = tau.r
    pieces = [
        (l, tau.pieces[idx])
        for l, idx in enumerate(range(degree - k + 1, degree + 1))
        if 0 <= idx <= tau.max_degree and not tau.pieces[idx].is_zero
    ]
    total = TPolynomial.sum_of(r, (apply_w_mode(WModeSpec(r, k, l, m), piece) for l, piece in pieces))
    return total, bool(pieces)


def check_w_constraints(tau: TauExpansion) -> CheckReport:
    """Assemble every per-degree constraint equation up to
    default_constraint_mode_bound and record nonzero residuals; vacuous
    equations are counted but cannot fail.  Past the bound each mode sends
    every piece below weight 0, so no equation there can fail."""
    r = tau.r
    bound = default_constraint_mode_bound(r, tau.max_degree)
    residuals = []
    checked = vacuous = 0
    for k in range(2, r + 1):
        for m in range(-(k - 1), bound + 1):
            for degree in range(tau.max_degree + 1):
                residual, engaged = w_constraint_residual(tau, k, m, degree)
                checked += 1
                if not engaged:
                    vacuous += 1
                if not residual.is_zero:
                    residuals.append((f"k={k} m={m} degree={degree}", residual))
    return CheckReport(
        check_name="wconstraints",
        status=PASS if not residuals else FAIL,
        residuals=residuals,
        details={"equations": checked, "vacuous": vacuous, "m_max": bound},
    )


def _string_dilaton_operator_residuals(tau: TauExpansion) -> list[tuple[str, TPolynomial]]:
    """Lowest two constraint modes, scaled by 1/r: the translation and
    scaling operators annihilate tau degree by degree."""
    r = tau.r
    out = []
    scale = Fraction(1, r)
    for m, name in ((-1, "translation"), (0, "scaling")):
        for degree in range(tau.max_degree + 1):
            residual, _ = w_constraint_residual(tau, 2, m, degree)
            residual = residual.scaled(scale)
            if not residual.is_zero:
                out.append((f"{name} operator degree={degree}", residual))
    return out


def _record_table(records: list[CorrelatorRecord]) -> dict[tuple[int, tuple[Insertion, ...]], Fraction]:
    return {(rec.genus, rec.insertions): rec.value for rec in records}


def _with_insertion(insertions: tuple[Insertion, ...], extra: Insertion) -> tuple[Insertion, ...]:
    return tuple(sorted(insertions + (extra,)))


def _without_one(insertions: tuple[Insertion, ...], which: Insertion) -> tuple[Insertion, ...]:
    out = list(insertions)
    out.remove(which)
    return tuple(out)


def _string_rhs(table, genus: int, rest: tuple[Insertion, ...]) -> Fraction:
    total = Fraction(0)
    for ins, count in Counter(rest).items():
        if ins.m == 0:
            continue
        lowered = _without_one(rest, ins) + (Insertion(ins.m - 1, ins.a),)
        total += count * table.get((genus, tuple(sorted(lowered))), Fraction(0))
    return total


def _correlator_identity_residuals(
    tau: TauExpansion, records: list[CorrelatorRecord]
) -> tuple[list[tuple[str, TPolynomial]], dict]:
    """Combinatorial string/dilaton identities on the extracted table.

    Works both ways: every record containing the special insertion is
    reduced, and every record is re-dressed with the special insertion when
    the dressed side is still within the computed range.  Absent entries
    count as zero.  Instances whose reduced correlator is unstable
    (2g - 2 + n <= 0) carry no content and are skipped.
    """
    r = tau.r
    table = _record_table(records)
    string_ins = Insertion(0, 0)
    dilaton_ins = Insertion(1, 0)
    residuals = []
    string_instances = dilaton_instances = 0

    def emit(label: str, lhs: Fraction, rhs: Fraction):
        if lhs != rhs:
            diff = TPolynomial.const(r, lhs - rhs)
            residuals.append((label, diff))

    seen: set[tuple[str, int, tuple[Insertion, ...]]] = set()

    def string_instance(genus: int, rest: tuple[Insertion, ...]):
        nonlocal string_instances
        if 2 * genus - 2 + len(rest) <= 0:
            return
        key = ("s", genus, rest)
        if key in seen:
            return
        seen.add(key)
        string_instances += 1
        lhs = table.get((genus, _with_insertion(rest, string_ins)), Fraction(0))
        emit(f"string g={genus} {rest}", lhs, _string_rhs(table, genus, rest))

    def dilaton_instance(genus: int, rest: tuple[Insertion, ...]):
        nonlocal dilaton_instances
        n = len(rest)
        if 2 * genus - 2 + n <= 0:
            return
        key = ("d", genus, rest)
        if key in seen:
            return
        seen.add(key)
        dilaton_instances += 1
        lhs = table.get((genus, _with_insertion(rest, dilaton_ins)), Fraction(0))
        rhs = (2 * genus - 2 + n) * table.get((genus, rest), Fraction(0))
        emit(f"dilaton g={genus} {rest}", lhs, rhs)

    max_dressed_degree = tau.max_degree
    for rec in records:
        # Degree of a record equals 2g - 2 + n; dressing adds one.
        degree = 2 * rec.genus - 2 + len(rec.insertions)
        if string_ins in rec.insertions:
            string_instance(rec.genus, _without_one(rec.insertions, string_ins))
        if dilaton_ins in rec.insertions:
            dilaton_instance(rec.genus, _without_one(rec.insertions, dilaton_ins))
        if degree + 1 <= max_dressed_degree:
            string_instance(rec.genus, rec.insertions)
            dilaton_instance(rec.genus, rec.insertions)
    stats = {
        "records": len(records),
        "string_instances": string_instances,
        "dilaton_instances": dilaton_instances,
    }
    return residuals, stats


def check_string_dilaton(tau: TauExpansion, extracted: Extracted | None = None) -> CheckReport:
    """Translation/scaling operator identities plus the combinatorial
    string and dilaton equations on extracted correlators."""
    residuals = _string_dilaton_operator_residuals(tau)
    records = _records(tau, extracted, residuals)
    stats = {"records": 0}
    if records is not None:
        identity_residuals, stats = _correlator_identity_residuals(tau, records)
        residuals.extend(identity_residuals)
    return CheckReport(
        check_name="string_dilaton",
        status=PASS if not residuals else FAIL,
        residuals=residuals,
        details=stats,
    )


def check_gradings(tau: TauExpansion, extracted: Extracted | None = None) -> CheckReport:
    """The monomials of each piece that solver.off_grade finds, one
    residual per piece and kind of fault, and a successful extraction,
    which itself enforces nonnegative genus and the selection rule on
    every record."""
    r = tau.r
    residuals = []
    for j, piece in enumerate(tau.pieces):
        faults: dict[str, dict] = {}
        for mono, kind, _ in off_grade(r, j, piece):
            faults.setdefault(kind, {})[mono] = piece.terms[mono]
        residuals.extend((f"{kind} degree={j}", TPolynomial._raw(r, terms)) for kind, terms in sorted(faults.items()))
    records = _records(tau, extracted, residuals)
    return CheckReport(
        check_name="grading",
        status=PASS if not residuals else FAIL,
        residuals=residuals,
        details={"records": len(records or ())},
    )


def check_selection(tau: TauExpansion, extracted: Extracted | None = None) -> CheckReport:
    """Selection rule and rationality on every extracted correlator.

    extract_correlators enforces both on each record and raises otherwise,
    so this report passes exactly when extraction succeeds.  It is kept as
    a report of its own, with the record count in details, because the
    verify output and the --checks option name it."""
    residuals = []
    records = _records(tau, extracted, residuals)
    return CheckReport(
        check_name="selection",
        status=PASS if not residuals else FAIL,
        residuals=residuals,
        details={"records": len(records or ())},
    )


def check_commutators(r: int, degree: int, tau: TauExpansion | None = None) -> CheckReport:
    """Measure [A_i, A_j] on computed pieces; diagnostic, never gating.

    Instances are all (i < j, base degree d) with d + i + j <= degree.  If
    the budget admits none (and r > 2), the minimal instances on the
    constant piece are measured instead so the diagnostic always reports
    something.
    """
    instances = [
        (i, j, d)
        for i in range(1, r)
        for j in range(i + 1, r)
        for d in range(0, max(degree - i - j, -1) + 1)
    ]
    fallback = not instances and r >= 3
    if fallback:
        instances = [(i, j, 0) for i in range(1, r) for j in range(i + 1, r)]
    max_base = max((d for _, _, d in instances), default=0)
    if tau is None or tau.max_degree < max_base:
        tau = compute_tau(r, max_base)
    residuals = []
    for i, j, d in instances:
        base = tau.pieces[d]
        if base.is_zero:
            continue
        ij = apply_raising_operator(r, i, apply_raising_operator(r, j, base, d + j), d + i + j)
        ji = apply_raising_operator(r, j, apply_raising_operator(r, i, base, d + i), d + i + j)
        residual = ij - ji
        if not residual.is_zero:
            residuals.append((f"[A_{i}, A_{j}] on degree {d}", residual))
    return CheckReport(
        check_name="commutator",
        status=DIAGNOSTIC,
        residuals=residuals,
        details={
            "instances": len(instances),
            "vacuous": not instances,
            "fallback_minimal": fallback,
            "all_zero": not residuals,
        },
    )


def check_exponential_agreement(r: int, degree: int, tau: TauExpansion | None = None) -> CheckReport:
    """Compare the recursion output against the exponential-formula path.

    Agreement is expected under the commutativity conjecture; this check is
    diagnostic because the recursion path is the authority either way.
    """
    if tau is None or tau.max_degree < degree:
        tau = compute_tau(r, degree)
    exp_tau = compute_tau_exponential(r, degree)
    residuals = []
    for j in range(degree + 1):
        diff = tau.pieces[j] - exp_tau.pieces[j]
        if not diff.is_zero:
            residuals.append((f"degree {j}", diff))
    return CheckReport(
        check_name="exponential_agreement",
        status=DIAGNOSTIC,
        residuals=residuals,
        details={"agrees": not residuals, "max_degree": degree},
    )
