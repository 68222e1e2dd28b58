"""Exception types shared across the package, and its one integer check.

Bad input raises ``ConfigError`` or ``ValueError``; a failed internal
invariant raises a subclass of ``InternalError``, which never derives
from ``ValueError``, so the two cannot be confused.

Every count, seed, modulus and flag that must be a whole number goes
through ``_require_int``: a Python or numpy integer passes, as an int;
a bool, a float, a string or anything else is a ``ValueError`` naming
the field, never truncated to another number. The module imports no
numpy, so every layer and the command line can use it.
"""

import operator
import sys


def _require_int(name: str, value, minimum: int | None = None,
                 maximum: int | None = None) -> int:
    """``value`` as an int if it is an integer in [minimum, maximum], else ValueError.

    A bound of None is no bound. numpy is looked up in ``sys.modules``,
    not imported: while it is not loaded, no numpy integer can exist.
    """
    if type(value) is not int:
        numpy = sys.modules.get("numpy")
        kinds = int if numpy is None else (int, numpy.integer)
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = operator.index(value)
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        raise ValueError(f"{name} must be at most {maximum}")
    return value


class InternalError(Exception):
    """An internal invariant failed: a defect or a numerical failure, not bad input."""


class StateValidationError(InternalError):
    """A state or operator violates its construction invariants."""


class InvalidBasisError(InternalError):
    """A measurement basis is not orthonormal."""


class DimensionMismatchError(InternalError):
    """Operands live in incompatible spaces."""


class ConfigError(ValueError):
    """Invalid run configuration (bad flag value or combination)."""


class NumericalError(InternalError):
    """An internal numerical check failed beyond tolerance."""
