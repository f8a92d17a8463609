"""Exact verification of every identity the computed expansion must satisfy.

All pass/fail checks compare a Residual to exact zero, with no
tolerances.  A Residual is held packed, as a piece of tau is: integer
numerators over one denominator at one offset lam + N and one power of s
(both its degree, maybe negative), over the layout it was summed on, and
serialize renders it as it renders tau.  run_checks is the one way into
the checks: it runs those check_names admits and shares one constraint
pass and one extraction among them.  Every piece is read, here as in the
extraction, as TauExpansion.packed holds it, over the solve's one layout
of top weight D*(r+1): graded once, as tau_j by tpoly.check_piece, where
the expansion was built, so no check meets a piece off the grading.
The commutator and exponential checks are diagnostic only: commutativity
of the degree raisers is conjectural, so a nonzero residual there is
reported prominently but fails nothing.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Collection, Iterator
from fractions import Fraction
from typing import NamedTuple

from .correlator import CorrelatorRecord, Insertion, extract_correlators
from .errors import InvalidSpecError
from .solver import TauExpansion, compute_tau_exponential, raise_step
from .tpoly import Packed, exponent_fields, kernel_rows, summed
from .walgebra import _ModeSum, _operator_loop, _twisted_currents

__all__ = [
    "CHECKS",
    "CheckReport",
    "Residual",
    "check_commutators",
    "check_exponential_agreement",
    "check_names",
    "constraint_equations",
    "default_constraint_mode_bound",
    "run_checks",
    "w_constraint_residuals",
]

# grading and selection pass exactly when extraction does (a TauExpansion
# holds graded pieces only); each is a report of its own because the verify
# output and the --checks option name it
CHECKS = ("wconstraints", "string_dilaton", "grading", "selection")

PASS = "pass"
FAIL = "fail"
DIAGNOSTIC = "diagnostic"


class Residual(NamedTuple):
    """num/den * s^degree * lam^(degree-N) * prod T_n^e_n per key of
    piece's {key: num} over its den, the keys over fields; zero when piece
    has no key.  A rational x is ({0: x.numerator}, x.denominator) at degree 0."""

    r: int
    degree: int
    piece: Packed
    fields: list[tuple[int, int, int]]


def _constant(r: int, x: Fraction) -> Residual:
    return Residual(r, 0, ({0: x.numerator}, x.denominator), [])


class CheckReport(NamedTuple):
    check_name: str
    status: str
    residuals: list[tuple[str, Residual]]
    details: dict

    @property
    def passed(self) -> bool:
        return self.status != FAIL


def _gated(name: str, residuals: list, details: dict) -> CheckReport:
    return CheckReport(name, PASS if not residuals else FAIL, residuals, details)


def default_constraint_mode_bound(r: int, max_degree: int) -> int:
    """Largest outer index whose per-degree constraint still touches a
    computed piece; beyond it every equation is vacuous at this depth."""
    return (max_degree * (r + 1)) // r


Equation = tuple[int, int, int]  # (k, m, degree)


def constraint_equations(r: int, max_degree: int) -> list[Equation]:
    """The per-degree constraint equations of the wconstraints check, in
    report order: every k, every m up to default_constraint_mode_bound,
    every degree."""
    bound = default_constraint_mode_bound(r, max_degree)
    return [(k, m, d) for k in range(2, r + 1) for m in range(-(k - 1), bound + 1) for d in range(max_degree + 1)]


def w_constraint_residuals(tau: TauExpansion, equations: list[Equation]) -> dict[Equation, tuple[Residual, bool]]:
    """{(k, m, degree): (residual, engaged)} for the given equations, in one
    kernel call per nonzero piece i and c <= D-i.

    Equation (k, m, d) sums W(k, l, m) tau_{d-k+1+l} over l.  In the solver's
    s^j convention W(k, l, m) maps x * s^i to x * r^(2l) * s^(d-k+1), so each
    equation is one rational sum, a Residual at degree d-k+1 over the
    solve's layout (tau.fields).  By c = k-1-l it is sum_c C_c tau_{d-c}, C_c
    one walgebra._ModeSum of W(k, k-1-c, m) over the equations' (k, m), each
    scaled by r^(2(k-1-c)), its creator keys tagged with its (k, m) above
    the layout's top bit.  Piece i, read as tau.packed(i), goes through each
    C_c with c <= D-i, grown to its weight, so a run reads each block once;
    C_c is dropped after piece D-c.  An equation is finished with its piece
    d.  engaged is False when every piece it reads is zero.  Raises
    InvalidSpecError on an equation off the computed range (degree outside
    0..max_degree, or no mode W(k, 0, m))."""
    r, top_degree = tau.r, tau.max_degree
    finish: dict[int, dict[Equation, None]] = {}  # degree -> its equations, each once, in the given order
    for k, m, d in equations:
        if not (2 <= k <= r and m >= 1 - k and 0 <= d <= top_degree):
            raise InvalidSpecError(f"no equation k={k} m={m} degree={d} for r={r} to degree {top_degree}")
        finish.setdefault(d, {})[(k, m, d)] = None
    pairs = list(dict.fromkeys((k, m) for k, m, _ in equations))
    # equation (k, m, d) weighs (d-k+1)(r+1) - r*m <= d(r+1) - (k-1), as m >= 1 - k,
    # and d <= D: the solve's layout holds every creator, annihilator and output
    shift, fields = tau.shift, tau.fields
    top = sum(width for _, width, _ in fields)
    mask, den = (1 << top) - 1, _twisted_currents(r)[0]
    sums = []  # C_c for c = 0 .. min(max k - 1, D), each block tagged with its (k, m) index p
    for c in range(min(max((k for k, _ in pairs), default=0), top_degree + 1)):
        modes = [(k, k - 1 - c, m, p << top, r ** (2 * (k - 1 - c))) for p, (k, m) in enumerate(pairs) if k > c]
        sums.append(_ModeSum(r, shift, modes, den))
    parts: dict[Equation, list] = {}  # equation -> [(numerators, den)], one per piece read
    out = {}
    for i in range(top_degree + 1):
        if sums and tau.packed(i)[0]:
            piece_den, rows = kernel_rows(tau.packed(i), fields)
            for c, mode_sum in enumerate(sums):
                mode_sum.grow(i * (r + 1))
                split: dict[int, dict[int, int]] = {}  # (k, m) index -> its numerators
                for key, x in _operator_loop(mode_sum.op, rows).items():
                    if x:
                        split.setdefault(key >> top, {})[key & mask] = x
                for p, part in split.items():
                    parts.setdefault((*pairs[p], i + c), []).append((part, piece_den * den))
        del sums[top_degree - i:]  # C_{D-i} has read its last piece
        for k, m, d in finish.get(i, ()):
            engaged = any(tau.packed(j)[0] for j in range(max(0, d - k + 1), d + 1))
            out[(k, m, d)] = Residual(r, d - k + 1, summed(parts.pop((k, m, d), ())), fields), engaged
    return out


def check_names(names: Collection[str]) -> None:
    """Refuse (InvalidSpecError) a name outside CHECKS, no name at all, a
    bare string, which would be read by substring or by character, and
    anything that is not a Collection, such as a generator, which the
    first read would use up."""
    if isinstance(names, str) or not isinstance(names, Collection):
        unknown = [f"{names!r} (a {type(names).__name__}, not a list)"]
    else:
        unknown = [n for n in names if n not in CHECKS]
    if unknown or not names:
        what = f"unknown checks: {', '.join(map(str, unknown))}" if unknown else "the checks list names no check"
        raise InvalidSpecError(f"{what}; valid: {', '.join(CHECKS)}")


def run_checks(tau: TauExpansion, names: Collection[str]) -> Iterator[CheckReport]:
    """The reports of the named checks (check_names), in CHECKS order:
    wconstraints, the constraint_equations (past
    default_constraint_mode_bound each mode sends every piece below weight
    0, so no equation there can fail); string_dilaton, the k = 2, m = -1,
    0 equations scaled by 1/r as the translation and scaling operators, and
    the string and dilaton equations on the correlators; grading and
    selection, the extraction, which reads every piece as graded when tau
    was built and enforces the selection rule and rationality on each
    record.

    The checks share one constraint pass: every constraint_equations when
    wconstraints is named, else only string_dilaton's k = 2, m = -1, 0
    equations.  They share one extraction, made just before the first
    correlator check; an extraction error is a residual of each correlator
    check."""
    check_names(names)
    r, top = tau.r, tau.max_degree
    if "wconstraints" in names:
        equations = constraint_equations(r, top)
    elif "string_dilaton" in names:
        equations = [(2, m, d) for m in (-1, 0) for d in range(top + 1)]
    else:
        equations = []
    passed = w_constraint_residuals(tau, equations)
    extraction = None  # once extracted: [] on success, else the error as one residual
    for name in (name for name in CHECKS if name in names):
        if name == "wconstraints":
            yield _w_constraints_report(tau, equations, passed)
            continue
        if extraction is None:
            try:
                records, extraction = extract_correlators(tau), []
            except Exception as exc:  # tampered input: each check reports it, none crashes
                records, extraction = [], [(f"extraction: {exc}", _constant(r, Fraction(1)))]
        if name == "string_dilaton":
            yield _string_dilaton_report(tau, passed, records, extraction)
        else:
            yield _gated(name, list(extraction), {"records": len(records)})


def _w_constraints_report(tau: TauExpansion, equations: list[Equation], passed: dict) -> CheckReport:
    failed = []
    vacuous = 0
    for k, m, d in equations:
        residual, engaged = passed[(k, m, d)]
        vacuous += not engaged
        if residual.piece[0]:
            failed.append((f"k={k} m={m} degree={d}", residual))
    bound = default_constraint_mode_bound(tau.r, tau.max_degree)
    return _gated("wconstraints", failed, {"equations": len(equations), "vacuous": vacuous, "m_max": bound})


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
) -> tuple[list[tuple[str, Residual]], dict]:
    """Combinatorial string/dilaton identities on the extracted table.

    Works both ways: every record containing the special insertion is
    reduced, and every record is re-dressed with the special insertion when
    the dressed side is still within the computed range.  Absent entries
    count as zero.  Instances whose reduced correlator is unstable
    (2g - 2 + n <= 0) carry no content and are skipped.
    """
    table = {(rec.genus, rec.insertions): rec.value for rec in records}
    specials = {"string": Insertion(0, 0), "dilaton": Insertion(1, 0)}
    residuals = []
    seen: set[tuple[str, int, tuple[Insertion, ...]]] = set()
    counts = dict.fromkeys(specials, 0)

    def instance(name: str, genus: int, rest: tuple[Insertion, ...]):
        stable = 2 * genus - 2 + len(rest)
        if stable <= 0 or (name, genus, rest) in seen:
            return
        seen.add((name, genus, rest))
        counts[name] += 1
        lhs = table.get((genus, _with_insertion(rest, specials[name])), Fraction(0))
        rhs = _string_rhs(table, genus, rest) if name == "string" else stable * table.get((genus, rest), Fraction(0))
        if lhs != rhs:
            residuals.append((f"{name} g={genus} {rest}", _constant(tau.r, lhs - rhs)))

    for rec in records:
        for name, special in specials.items():
            if special in rec.insertions:
                instance(name, rec.genus, _without_one(rec.insertions, special))
        # a record's degree is 2g - 2 + n, and dressing adds one
        if 2 * rec.genus - 1 + len(rec.insertions) <= tau.max_degree:
            for name in specials:
                instance(name, rec.genus, rec.insertions)
    stats = {"records": len(records), "string_instances": counts["string"], "dilaton_instances": counts["dilaton"]}
    return residuals, stats


def _string_dilaton_report(tau: TauExpansion, passed: dict, records: list, extraction: list) -> CheckReport:
    residuals = []
    for m in (-1, 0):  # the k = 2 equation over r
        for d in range(tau.max_degree + 1):
            res = passed[(2, m, d)][0]
            nums, den = res.piece
            if nums:
                label = f"{'translation' if m == -1 else 'scaling'} operator degree={d}"
                residuals.append((label, res._replace(piece=(nums, den * tau.r))))
    residuals += extraction
    stats = {"records": 0}
    if not extraction:
        identity_residuals, stats = _correlator_identity_residuals(tau, records)
        residuals += identity_residuals
    return _gated("string_dilaton", residuals, stats)


def check_commutators(tau: TauExpansion) -> CheckReport:
    """Measure [A_i, A_j] on tau's pieces; diagnostic, never gating.

    Instances are all (i < j, base degree d) with d + i + j <= tau.max_degree.
    If the budget admits none (and r > 2), [A_1, A_2] on the constant piece,
    the cheapest instance, is measured instead so the diagnostic always reports
    something.  Both products run on packed pieces through solver.raise_step,
    from each base read as tau.packed holds it, as the constraint pass reads
    it.  The layout is the solve's, but of weight 3*(r+1)
    in the fallback, whose one base, tau_0, has no variable.
    """
    r, degree = tau.r, tau.max_degree
    instances = [(i, j, d) for i in range(1, r) for j in range(i + 1, r) for d in range(degree - i - j + 1)]
    fallback = not instances and r >= 3
    if fallback:
        instances = [(1, 2, 0)]
    shift, fields = exponent_fields(r, max((d + i + j for i, j, d in instances), default=0) * (r + 1))
    residuals, bases = [], {}  # base degree -> kernel_rows of its piece
    for i, j, d in instances:
        if d not in bases:
            bases[d] = kernel_rows(tau.packed(d), fields)
        base, top = bases[d], d + i + j
        ij = raise_step(r, i, top, kernel_rows(raise_step(r, j, d + j, base, shift), fields), shift)
        ji = raise_step(r, j, top, kernel_rows(raise_step(r, i, d + i, base, shift), fields), shift)
        residual = summed([ij, (ji[0], -ji[1])])
        if residual[0]:
            residuals.append((f"[A_{i}, A_{j}] on degree {d}", Residual(r, top, residual, fields)))
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


def check_exponential_agreement(tau: TauExpansion) -> CheckReport:
    """Compare tau, the recursion output, against the exponential-formula
    path to the same depth.

    Agreement is expected under the commutativity conjecture; this check is
    diagnostic because the recursion path is the authority either way.
    Each piece of tau is read as tau.packed holds it, over the solve's
    layout, as the constraint pass reads it, and compared there with the
    piece compute_tau_exponential holds over the same layout.
    """
    r, degree = tau.r, tau.max_degree
    residuals = []
    for j, (theirs, exp_den) in enumerate(compute_tau_exponential(r, degree).held):
        diff = summed([tau.packed(j), (theirs, -exp_den)])
        if diff[0]:
            residuals.append((f"degree {j}", Residual(r, j, diff, tau.fields)))
    return CheckReport(
        check_name="exponential_agreement",
        status=DIAGNOSTIC,
        residuals=residuals,
        details={"agrees": not residuals, "max_degree": degree},
    )
