"""Command-line interface: the only I/O layer.

Data goes to --out or stdout; diagnostics go to stderr.  Exit codes:
0 success (and, for verify, every gating check passed), 1 a gating check
failed, 2 invalid input, unwritable output, or a corrupt cache.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

# what every command runs: serialize loads solver and tpoly, not scalar or
# fractions; correlator is loaded on first use (__getattr__)
from .errors import RSpinError
from .serialize import TauCache, records_csv_chunks, records_json_chunks, reports_to_json, tau_chunks
from .solver import compute_tau

CACHE_ENV = "RSPIN_CACHE_DIR"

# Deepest degree, by r, to which correlators from the W-modes (walgebra)
# match an independent Gelfand-Dickey (r-KdV) computation exactly at every
# genus; r = 2, 3 match the published tables.
ORACLE_CHECKED_DEPTH = {4: 5, 5: 5, 6: 4, 7: 4, 8: 3, **dict.fromkeys(range(9, 15), 2)}


def __getattr__(name: str):
    if name != "extract_correlators":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from .correlator import extract_correlators

    globals()[name] = extract_correlators  # later lookups skip this hook
    return extract_correlators


def _add_verbosity(parser: argparse.ArgumentParser, default) -> None:
    group = parser.add_mutually_exclusive_group()
    group.add_argument("-q", "--quiet", action="store_true", default=default, help="suppress progress output")
    group.add_argument("-v", "--verbose", action="store_true", default=default, help="report timings and peak RSS on stderr")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rspin",
        description=(
            "Exact computation of r-spin intersection numbers: solve the "
            "W-constraints degree by degree, extract correlators, and verify "
            "every checkable identity in exact arithmetic."
        ),
    )
    _add_verbosity(parser, False)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--r", type=int, required=True, help="branching index r >= 2")
        p.add_argument("--degree", type=int, required=True, help="maximal graded degree >= 0")
        p.add_argument("--out", help="output path (default: stdout)")
        p.add_argument(
            "--cache-dir",
            default=os.environ.get(CACHE_ENV),
            help=f"piece cache directory (default: ${CACHE_ENV})",
        )
        # SUPPRESS keeps a flag given before the subcommand from being
        # reset by the subparser's own default.
        _add_verbosity(p, argparse.SUPPRESS)

    p = sub.add_parser("compute", help="compute the graded tau expansion")
    common(p)
    p.set_defaults(run=_run_compute)

    p = sub.add_parser("correlators", help="extract exact correlators")
    common(p)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.set_defaults(run=_run_correlators)

    p = sub.add_parser("verify", help="run exact identity checks")
    common(p)
    # the names are verify.CHECKS, which only verify and commutator load
    p.add_argument(
        "--checks", help="comma-separated subset of {wconstraints,string_dilaton,grading,selection} (default: all)"
    )
    p.set_defaults(run=_run_verify)

    p = sub.add_parser("commutator", help="commutator and exponential-formula diagnostics")
    common(p)
    p.set_defaults(run=_run_commutator)
    return parser


def _validate(args) -> None:
    if args.r < 2:
        raise RSpinError(f"--r must be >= 2, got {args.r}")
    if args.degree < 0:
        raise RSpinError(f"--degree must be >= 0, got {args.degree}")


def _write(args, chunks) -> None:
    """Write a document's str chunks to --out (UTF-8) or stdout as they come."""
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(chunks)
    else:
        sys.stdout.writelines(chunks)


def _note(args, message: str) -> None:
    if not args.quiet:
        print(message, file=sys.stderr)


def _cache(args) -> TauCache | None:
    return TauCache(args.cache_dir) if args.cache_dir else None


def _warn_unchecked(args) -> None:
    """Warn, whatever the verbosity, when the degree passes the depth to which
    genus >= 1 values for this r (r > 3) were checked against the r-KdV oracle."""
    depth = ORACLE_CHECKED_DEPTH.get(args.r, 0) if args.r > 3 else args.degree
    if args.degree > depth:
        print(
            f"WARNING: genus >= 1 values for r={args.r} are unverified at degree {args.degree}: the spin >= 4 "
            f"W-modes are checked against the independent r-KdV oracle for r={args.r} only through degree {depth}",
            file=sys.stderr,
        )


def _timed(args, label: str, run):
    """run(), its milliseconds reported on stderr under -v."""
    start = time.perf_counter()
    out = run()
    if args.verbose:
        print(f"{label}: {(time.perf_counter() - start) * 1000.0:.1f} ms", file=sys.stderr)
    return out


def _note_tables(args, tau) -> None:
    """Under -v, the hits and misses of the memoised partitions, and for
    each raiser built over tau's layout its term count after merging,
    the rows and mode blocks it enumerated before, and its build time."""
    if not args.verbose:
        return
    from .walgebra import _partitions, raisers_over  # only here: a warm solve loads no walgebra

    info = _partitions.cache_info()
    print(f"_partitions: {info.hits} hits, {info.misses} misses", file=sys.stderr)
    for l, op in raisers_over(args.r, tau.shift).items():
        terms = sum(len(cres) for _, cres, _ in op.op[0].values())
        rows = f"{op.read} rows of {op.blocks} blocks before merging"
        print(f"A_{l}: {terms} terms, {rows}, built in {op.seconds * 1000.0:.1f} ms", file=sys.stderr)


def _run_compute(args) -> int:
    _warn_unchecked(args)
    tau = _timed(args, "solve", lambda: compute_tau(args.r, args.degree, cache=_cache(args)))
    _timed(args, "write", lambda: _write(args, tau_chunks(tau)))
    _note_tables(args, tau)
    return 0


def _run_correlators(args) -> int:
    _warn_unchecked(args)
    tau = _timed(args, "solve", lambda: compute_tau(args.r, args.degree, cache=_cache(args)))
    records = _timed(args, "extract", lambda: sys.modules[__name__].extract_correlators(tau))
    writer = records_csv_chunks if args.format == "csv" else records_json_chunks
    _timed(args, "write", lambda: _write(args, writer(records)))
    _note_tables(args, tau)
    return 0


def _run_verify(args) -> int:
    from .verify import CHECKS, check_names, run_checks

    wanted = CHECKS if args.checks is None else [name.strip() for name in args.checks.split(",") if name.strip()]
    check_names(wanted)
    _warn_unchecked(args)
    tau = _timed(args, "solve", lambda: compute_tau(args.r, args.degree, cache=_cache(args)))
    reports, notes = [], []
    start = time.perf_counter()
    for rep in run_checks(tau, wanted):  # canonical order, independent of flag order
        ms = (time.perf_counter() - start) * 1000.0
        reports.append(rep)
        notes.append(f"{rep.check_name}: {rep.status}" + (f" ({ms:.1f} ms)" if args.verbose else ""))
        start = time.perf_counter()
    _write(args, [reports_to_json(reports).decode("utf-8")])
    for note in notes:
        _note(args, note)
    _note_tables(args, tau)
    return 0 if all(rep.passed for rep in reports) else 1


def _run_commutator(args) -> int:
    from .verify import check_commutators, check_exponential_agreement

    tau = _timed(args, "solve", lambda: compute_tau(args.r, args.degree, cache=_cache(args)))
    commutator = _timed(args, "commutator", lambda: check_commutators(tau))
    agreement = _timed(args, "exponential", lambda: check_exponential_agreement(tau))
    _write(args, [reports_to_json([commutator, agreement]).decode("utf-8")])
    for report, warning, note in (
        (commutator, "nonzero commutator residual detected; the degree raisers do not commute at this depth",
         "commutator residuals: all zero"),
        (agreement, "exponential-formula output differs from the recursion (expected when the raisers do not "
         "commute); the recursion is authoritative", "exponential formula agrees with the recursion"),
    ):
        if report.residuals:
            print(f"WARNING: {warning}:", *(f"  {label}" for label, _ in report.residuals), sep="\n", file=sys.stderr)
        else:
            _note(args, note)
    _note_tables(args, tau)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _validate(args)
        code = args.run(args)
    except (RSpinError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.verbose:
        import resource  # only here: -v alone pays its import

        # ru_maxrss counts KiB on Linux, bytes on macOS
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / (2**20 if sys.platform == "darwin" else 2**10)
        print(f"peak RSS: {peak:.1f} MB", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
