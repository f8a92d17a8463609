"""Exact computation of r-spin intersection numbers.

The package solves the W-constraints for the r-spin partition function by
a graded recursion in exact arithmetic over Q(sqrt(-r)), extracts the
intersection numbers from the log of the result, and verifies every
checkable identity (constraint residuals, string/dilaton equations,
grading, selection rule) with zero tolerance.
"""

from .correlator import (
    CorrelatorRecord,
    Insertion,
    conversion_constant,
    extract_correlators,
    insertion_for_index,
    selection_check,
    variable_index,
)
from .errors import (
    CacheError,
    ContextError,
    ContractError,
    ExtractionError,
    InvalidIndexError,
    InvalidInsertionError,
    InvalidSpecError,
    ParseError,
    RSpinError,
)
from .scalar import QScalar
from .serialize import FORMAT_VERSION, TauCache, parse_tau, serialize_tau
from .solver import TauExpansion, compute_tau, compute_tau_exponential
from .tpoly import TMonomial, TPolynomial
from .verify import (
    CheckReport,
    check_commutators,
    check_exponential_agreement,
    run_checks,
)
from .walgebra import mode_bound

__version__ = "0.1.0"

__all__ = [
    "CacheError",
    "CheckReport",
    "ContextError",
    "ContractError",
    "CorrelatorRecord",
    "ExtractionError",
    "FORMAT_VERSION",
    "Insertion",
    "InvalidIndexError",
    "InvalidInsertionError",
    "InvalidSpecError",
    "ParseError",
    "QScalar",
    "RSpinError",
    "TMonomial",
    "TPolynomial",
    "TauCache",
    "TauExpansion",
    "check_commutators",
    "check_exponential_agreement",
    "compute_tau",
    "compute_tau_exponential",
    "conversion_constant",
    "extract_correlators",
    "insertion_for_index",
    "mode_bound",
    "parse_tau",
    "run_checks",
    "selection_check",
    "serialize_tau",
    "variable_index",
]
