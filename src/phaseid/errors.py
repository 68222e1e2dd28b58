"""Exception types shared across the package.

Bad input raises ``ConfigError`` or ``ValueError``; a failed internal
invariant raises a subclass of ``InternalError``, which never derives
from ``ValueError``, so the two cannot be confused.
"""


class InternalError(Exception):
    """An internal invariant failed: a defect or a numerical failure, not bad input."""


class StateValidationError(InternalError):
    """A state or operator violates its construction invariants."""


class InvalidBasisError(InternalError):
    """A measurement basis is not orthonormal."""


class DimensionMismatchError(InternalError):
    """Operands live in incompatible spaces."""


class UsageExhaustedError(RuntimeError):
    """No protocol uses left under this key.

    Raised as a refusal; deliberately distinct from a verifier reject.
    """


class ConfigError(ValueError):
    """Invalid run configuration (bad flag value or combination)."""


class NumericalError(InternalError):
    """An internal numerical check failed beyond tolerance."""
