"""Exception types shared across the package."""


class RSpinError(Exception):
    """Base class for every error raised by this package."""


class InvalidIndexError(RSpinError, ValueError):
    """A time variable index is not positive or is divisible by r."""


class InvalidSpecError(RSpinError, ValueError):
    """A mode or equation label, or a check name, is outside the admissible
    range."""


class InvalidInsertionError(RSpinError, ValueError):
    """A descendant insertion (m, a) is outside the admissible range."""


class ContractError(RSpinError, ValueError):
    """An operation received input violating its stated precondition."""


class ExtractionError(RSpinError, ValueError):
    """Correlator extraction hit a monomial that cannot come from a valid
    genus expansion; this always signals an upstream bug."""


class CacheError(RSpinError, RuntimeError):
    """A cache entry is corrupt or was written by an incompatible version."""


class ParseError(RSpinError, ValueError):
    """A serialized document failed validation."""

    def __init__(self, message: str, location: str | None = None):
        self.location = location
        if location:
            message = f"{message} (at {location})"
        super().__init__(message)
