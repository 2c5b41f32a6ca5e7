"""Exception types shared across the package.

The command line maps an ``InvalidConfigError`` to exit code 2 and any other
``QmassError`` to exit code 3.
"""


class QmassError(Exception):
    """Base class for all physics and measurement errors."""


class InvalidConfigError(QmassError):
    """Bad input: a parameter out of range, of the wrong type or of no physical meaning."""


class InsufficientSpanError(QmassError):
    """Signal does not span enough structure for the requested measurement."""
