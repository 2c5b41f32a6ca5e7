"""Exception types shared across the package."""


class QmassError(Exception):
    """Base class for all physics and measurement errors."""


class InvalidBoostError(QmassError):
    """Boost speed at or beyond the speed of light."""


class InvalidWaveError(QmassError):
    """Wave parameters violate a construction invariant."""


class InvalidMomentumError(QmassError):
    """Four-momentum is spacelike beyond tolerance or has non-positive energy."""


class UndefinedMassError(QmassError):
    """Operation requires a strictly positive mass."""


class InsufficientSpanError(QmassError):
    """Signal does not span enough structure for the requested measurement."""


class SingularPointError(QmassError):
    """Evaluation point is a field singularity: a slit or a stagnation point of the flow."""


class InvalidConfigError(QmassError):
    """Scenario configuration violates a type invariant."""


class ConditioningError(QmassError):
    """Least-squares basis is numerically degenerate."""


class DegenerateProbeError(QmassError):
    """Probe position cannot see both spectral components."""


class ModeOutOfRangeError(QmassError):
    """Requested well mode has no admissible cavity speed."""
