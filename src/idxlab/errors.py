"""Exception types shared across the package, and the type checks on user
input that raise them."""

import math
import numbers


class ConfigurationError(ValueError):
    """User-supplied parameters are out of range or mutually inconsistent."""


class CatalogLookupError(KeyError):
    """A table, column, index, or plan-node reference cannot be resolved."""


class ContractError(ValueError):
    """A numeric contract was violated (bad simplex, nonpositive denominator, ...)."""


class ReplayMismatchError(Exception):
    """A replay produced artifacts whose checksums differ from its manifest's."""


def require_integer(value, where: str) -> None:
    """Reject a user-supplied value that is not an integer (bools included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ConfigurationError(f"{where} must be an integer, got {value!r}")


def require_number(value, where: str) -> None:
    """Reject a user-supplied value that is not a real number (bools included)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ConfigurationError(f"{where} must be a number, got {value!r}")


def require_finite(value, where: str) -> None:
    """Reject a user-supplied value that is not a finite real number."""
    require_number(value, where)
    if not isinstance(value, numbers.Integral) and not math.isfinite(value):
        raise ConfigurationError(f"{where} must be finite, got {value!r}")
