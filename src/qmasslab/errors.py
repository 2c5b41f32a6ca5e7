"""Exception types shared across the package, and the check of a count argument.

The command line maps an ``InvalidConfigError`` to exit code 2 and any other
``QmassError`` to exit code 3.
"""

import numbers


class QmassError(Exception):
    """Base class for all physics and measurement errors."""


class InvalidConfigError(QmassError):
    """Bad input: a parameter out of range, of the wrong type or of no physical meaning."""


class InsufficientSpanError(QmassError):
    """Signal does not span enough structure for the requested measurement."""


def require_count(name: str, value, minimum: int) -> None:
    """InvalidConfigError unless ``value`` is an int, not a bool, of at least ``minimum``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise InvalidConfigError(f"{name} must be an int, got {value!r}")
    if value < minimum:
        raise InvalidConfigError(f"{name} must be >= {minimum}, got {value}")
