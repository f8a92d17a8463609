"""Traced run of one rspin CLI invocation, in a fresh interpreter.

    python bench/tracing.py --mode spans --out FILE --workload ID -- <rspin args>

The child imports the rspin package found on PYTHONPATH, replaces the public
functions of each module by timing wrappers, runs ``rspin.cli.main`` on the
given arguments and writes what it recorded to FILE as JSON.  The exit code
is the CLI's own.

Each name is patched where its caller looks it up.  ``from .x import y``
binds ``y`` into the importing module, so ``rspin.cli.compute_tau`` and
``rspin.solver.compute_tau`` are different lookups; ``install_spans`` lists
every lookup site the CLI paths use.  A name that a later version of the package
no longer has is skipped and reported under ``missing``; its metrics read 0.

Two kinds of wrapper share one stack:

* span wrappers keep one span per call -- id, name, start, end, parent span,
  workload id -- in memory; they sit on the coarse layer boundaries
  (cli, solver, walgebra modes, correlator, verify, serialize).
* counted wrappers keep only a per-name count, total time and self time;
  they sit on the hot leaves (polynomial and scalar arithmetic, one
  normal-ordered term), which run hundreds of thousands of times.

Self time is a call's duration minus the durations of the wrapped calls made
inside it.  The benchmark's own bookkeeping (pair counts, coefficient sizes)
runs with the clock paused, so it lands in no span.

``--mode memory`` installs no timing wrappers; it runs ``tracemalloc`` only
around the solver and correlator calls and records their peaks.  It is a
separate pass because tracemalloc slows allocation-heavy code unevenly and
would distort the self times.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import sys
import time
import tracemalloc
from collections import Counter

from check_tau import tau_properties  # bench/ is on sys.path when run as a script

clock = time.perf_counter


class Tracer:
    """Spans, per-name aggregates and counters for one process."""

    def __init__(self, workload: str):
        self.workload = workload
        self.paused = [0.0]  # bookkeeping seconds, subtracted from every timestamp
        self.stack: list[list[float]] = []  # [child seconds] per open call
        self.current = [None]  # id of the innermost open span
        self.spans: list[tuple] = []
        self.agg: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.values: dict = {}
        self.missing: list[str] = []

    def bookkeeping(self, hook, *args) -> None:
        """Run hook(*args) with the clock paused."""
        t0 = clock()
        try:
            hook(*args)
        finally:
            self.paused[0] += clock() - t0

    def wrap(self, fn, name: str, span: bool, before=None, after=None, tag=None):
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        stack, paused, current, spans = self.stack, self.paused, self.current, self.spans
        workload = self.workload
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                tracer.bookkeeping(before, args, kwargs)
            if span:
                span_id = len(spans)
                spans.append(None)  # reserve the id; filled on exit
                parent = current[0]
                current[0] = span_id
            frame = [0.0]
            stack.append(frame)
            start = clock() - paused[0]
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock() - paused[0]
                stack.pop()
                duration = end - start
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[0]
                if stack:
                    stack[-1][0] += duration
                if span:
                    current[0] = parent
                    label = tag(args, kwargs) if tag is not None else None
                    spans[span_id] = (span_id, name, start, end, parent, workload, label)
            if after is not None:
                tracer.bookkeeping(after, args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, span: bool, **hooks) -> None:
        """Replace owner.attr by a wrapper; classmethods stay classmethods.
        A missing owner or attribute is recorded, not an error."""
        if owner is None:
            raw = None
        else:
            raw = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{name} ({attr})")
            return
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(self.wrap(raw.__func__, name, span, **hooks)))
        else:
            setattr(owner, attr, self.wrap(raw, name, span, **hooks))

    def dump(self) -> dict:
        return {
            "workload": self.workload,
            "spans": [
                dict(zip(("id", "name", "start", "end", "parent", "workload", "tag"), s))
                for s in self.spans
                if s is not None
            ],
            "agg": {name: {"calls": a[0], "total_s": a[1], "self_s": a[2]} for name, a in self.agg.items()},
            "counts": dict(self.counts),
            "values": self.values,
            "missing": self.missing,
        }


def package_module(name: str):
    """rspin.<name>, or None when this version of the package has no such module."""
    try:
        return importlib.import_module(f"rspin.{name}")
    except ImportError:
        return None


def install_spans(tracer: Tracer) -> None:
    cli, correlator, scalar, serialize, solver, tpoly, verify, walgebra = map(
        package_module, ("cli", "correlator", "scalar", "serialize", "solver", "tpoly", "verify", "walgebra")
    )
    monomial = getattr(tpoly, "TMonomial", None)
    weight = getattr(monomial, "__dict__", {}).get("weight")
    weight_of = weight.fget if isinstance(weight, property) else (lambda mono: mono.weight)
    counts = tracer.counts

    def tau_out(args, kwargs, tau):
        counts["solver.terms_out"] += sum(len(p.terms) for p in tau.pieces)
        props = tau_properties(tau)
        values = tracer.values
        values["terms_per_degree"] = props["terms_per_degree"]
        values["coeff_max_bits"] = max(values.get("coeff_max_bits", 0), props["coeff_max_bits"])
        values["mixed_coeffs"] = max(values.get("mixed_coeffs", 0), props["mixed_coeffs"])

    def contribution_out(args, kwargs, poly):
        counts["solver.contrib_zero"] += poly.is_zero

    def term_out(args, kwargs, poly):
        counts["walgebra.normal_terms_zero"] += poly.is_zero

    def mul_pairs(args, kwargs):
        left, right = args[0], args[1]
        cap = args[2] if len(args) > 2 else kwargs.get("weight_cap")
        pairs = len(left.terms) * len(right.terms)
        counts["tpoly.mul_pairs"] += pairs
        if cap is None:
            counts["tpoly.mul_kept"] += pairs
            return
        lw = Counter(weight_of(m) for m in left.terms)
        rw = Counter(weight_of(m) for m in right.terms)
        counts["tpoly.mul_kept"] += sum(a * b for w1, a in lw.items() for w2, b in rw.items() if w1 + w2 <= cap)

    def records_out(args, kwargs, records):
        tracer.values["records"] = max(tracer.values.get("records", 0), len(records))

    def equations_out(args, kwargs, report):
        counts["verify.equations"] += report.details.get("equations", 0)

    def cache_load_out(args, kwargs, piece):
        counts["serialize.cache_misses" if piece is None else "serialize.cache_hits"] += 1

    def bytes_out(args, kwargs, data):
        counts["serialize.bytes_out"] += len(data)

    def max_degree(args, kwargs):
        return args[1] if len(args) > 1 else kwargs.get("max_degree")

    def target_degree(args, kwargs):
        return args[5] if len(args) > 5 else kwargs.get("target_degree")

    span, counted = True, False
    for owner in (cli, verify):
        tracer.patch(owner, "compute_tau", "solver.compute_tau", span, after=tau_out, tag=max_degree)
        tracer.patch(owner, "extract_correlators", "correlator.extract_correlators", span, after=records_out)
    tracer.patch(verify, "compute_tau_exponential", "solver.compute_tau_exponential", span)
    for owner in (solver, walgebra):
        tracer.patch(
            owner, "raising_contribution", "walgebra.raising_contribution", span,
            after=contribution_out, tag=target_degree,
        )
    for owner in (solver, verify):
        tracer.patch(owner, "apply_raising_operator", "walgebra.apply_raising_operator", span)
    for owner in (walgebra, verify):
        tracer.patch(owner, "apply_w_mode", "walgebra.apply_w_mode", span)
    tracer.patch(walgebra, "w_mode_terms", "walgebra.w_mode_terms", span)
    tracer.patch(getattr(walgebra, "NormalTerm", None), "apply", "walgebra.NormalTerm.apply", counted, after=term_out)
    tracer.patch(correlator, "log_tau", "correlator.log_tau", span)
    for attr in (
        "check_w_constraints",
        "check_string_dilaton",
        "check_gradings",
        "check_selection",
        "check_commutators",
        "check_exponential_agreement",
    ):
        hooks = {"after": equations_out} if attr == "check_w_constraints" else {}
        tracer.patch(cli, attr, f"verify.{attr}", span, **hooks)
    for attr in ("serialize_tau", "records_to_json", "records_to_csv", "reports_to_json"):
        tracer.patch(cli, attr, f"serialize.{attr}", span, after=bytes_out)
    cache = getattr(serialize, "TauCache", None)
    tracer.patch(cache, "load", "serialize.TauCache.load", span, after=cache_load_out)
    tracer.patch(cache, "store", "serialize.TauCache.store", span)

    poly = getattr(tpoly, "TPolynomial", None)
    tracer.patch(poly, "mul", "tpoly.mul", counted, before=mul_pairs)
    for attr in (
        "derive", "mul_var", "sum_of", "scaled", "shift_lambda", "canonical_terms",
        "is_homogeneous", "max_weight", "__add__", "__sub__", "__neg__", "euler", "graded_part",
    ):
        tracer.patch(poly, attr, f"tpoly.{attr}", counted)

    if isinstance(weight, property):  # a stored weight costs no evaluation to count

        def counting_weight(mono, _count=counts, _weight=weight_of):
            _count["tpoly.weight_evals"] += 1
            return _weight(mono)

        monomial.weight = property(counting_weight)
    else:
        tracer.missing.append("tpoly.weight_evals (TMonomial.weight property)")

    for attr in (
        "__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
        "__truediv__", "__rtruediv__", "__pow__", "inv",
    ):
        tracer.patch(getattr(scalar, "QScalar", None), attr, f"scalar.{attr}", counted)


def install_memory(tracer: Tracer) -> None:
    peaks = tracer.values.setdefault("peak_alloc_mb", {})

    def measured(fn, name):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            if tracemalloc.is_tracing():  # nested: the outer call owns the trace
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / 2**20
                tracemalloc.stop()
                peaks[name] = max(peaks.get(name, 0.0), peak)

        return run

    for owner in map(package_module, ("cli", "verify")):
        for attr, name in (("compute_tau", "solver"), ("extract_correlators", "correlator")):
            if hasattr(owner, attr):
                setattr(owner, attr, measured(getattr(owner, attr), name))
            else:
                tracer.missing.append(f"{name}.peak_alloc_mb ({attr})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("spans", "memory"), required=True)
    parser.add_argument("--out", required=True, help="where to write the recorded JSON")
    parser.add_argument("--workload", required=True, help="workload id stored in each span")
    parser.add_argument("cli_args", nargs=argparse.REMAINDER)
    opts = parser.parse_args(argv)
    cli_args = opts.cli_args[1:] if opts.cli_args[:1] == ["--"] else opts.cli_args

    import rspin.cli

    tracer = Tracer(opts.workload)
    if opts.mode == "spans":
        install_spans(tracer)
        rc = tracer.wrap(rspin.cli.main, "cli.main", True)(cli_args)
    else:
        install_memory(tracer)
        rc = rspin.cli.main(cli_args)
    table = getattr(package_module("walgebra"), "_w_mode_terms", None)
    if hasattr(table, "cache_info"):
        info = table.cache_info()
        tracer.values["mode_table"] = {"hits": info.hits, "misses": info.misses, "entries": info.currsize}
    else:
        tracer.missing.append("walgebra.mode_table_* (_w_mode_terms.cache_info)")
    with open(opts.out, "w", encoding="utf-8") as handle:
        json.dump({"rc": rc, **tracer.dump()}, handle)
    return rc


if __name__ == "__main__":
    sys.exit(main())
