"""Exact computation of r-spin intersection numbers.

The package solves the W-constraints for the r-spin partition function by
a graded recursion in exact arithmetic over Q(sqrt(-r)), extracts the
intersection numbers from the log of the result, and verifies every
checkable identity (constraint residuals, string/dilaton equations,
grading, selection rule) with zero tolerance.

Each exported name is imported from its home module on first access
(PEP 562), so `import rspin` loads no submodule and a command loads only
the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

_HOMES = {  # exported name -> its home module
    name: module
    for module, names in {
        "correlator": "CorrelatorRecord Insertion conversion_constant extract_correlators insertion_for_index "
        "selection_check variable_index",
        "errors": "CacheError ContextError ContractError ExtractionError InvalidIndexError InvalidInsertionError "
        "InvalidSpecError ParseError RSpinError",
        "scalar": "QScalar TPolynomial",
        "serialize": "FORMAT_VERSION TauCache parse_tau serialize_tau",
        "solver": "TauExpansion compute_tau compute_tau_exponential",
        "tpoly": "TMonomial",
        "verify": "CheckReport check_commutators check_exponential_agreement run_checks",
        "walgebra": "mode_bound",
    }.items()
    for name in names.split()
}

__all__ = sorted(_HOMES)


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_HOMES[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
