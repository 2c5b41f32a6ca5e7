"""Four-momentum algebra: quantum rest mass, group velocity, matter wavelength.

In natural units (c = hbar = 1, h = 2*pi) a bidirectional wave carrying
one photon's worth of energy has

    E = (w+ + w-)/2,    p = (w+ - w-)/2  along its axis,

and the invariant mass sqrt(E**2 - p**2) = sqrt(w+ w-).  A single free wave
is massless; a standing wave has mass omega.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .wavecore import BidirectionalWave, gamma_of

#: Relative tolerance for the timelike/null invariant E**2 - p**2 >= 0.
SPACELIKE_TOL = 1e-12


@dataclass(frozen=True)
class FourMomentum:
    """Energy and planar momentum."""

    E: float
    px: float
    py: float = 0.0

    def __post_init__(self):
        if not all(math.isfinite(f) for f in (self.E, self.px, self.py)):
            raise InvalidConfigError(f"four-momentum components must be finite, got {self}")

    @property
    def p(self) -> float:
        return math.hypot(self.px, self.py)


@dataclass(frozen=True)
class MassState:
    """Quantum rest mass and group speed of a wave configuration."""

    m: float
    v: float


def four_momentum_of(b: BidirectionalWave) -> FourMomentum:
    """Total four-momentum of a single-photon bidirectional wave."""
    E = (b.omega_plus + b.omega_minus) / 2.0
    p = (b.omega_plus - b.omega_minus) / 2.0
    return FourMomentum(E, p * b.axis[0], p * b.axis[1])


def invariant_mass(P: FourMomentum) -> float:
    """Rest mass sqrt(E**2 - p**2); zero for null momenta."""
    m2 = P.E**2 - (P.px**2 + P.py**2)
    if m2 < -SPACELIKE_TOL * P.E**2:
        raise InvalidConfigError(f"spacelike four-momentum: E^2 - p^2 = {m2}")
    return math.sqrt(max(m2, 0.0))


def group_velocity(P: FourMomentum) -> np.ndarray:
    """Velocity vector v = p / E."""
    if P.E <= 0:
        raise InvalidConfigError(f"energy must be positive, got {P.E}")
    return np.array([P.px, P.py]) / P.E


def de_broglie_wavelength(m: float, v: float) -> float:
    """Matter wavelength h/(gamma*m*v); infinite for a configuration at rest."""
    if not 0 < m < math.inf:
        raise InvalidConfigError(f"mass must be positive and finite, got {m}")
    if v == 0:
        return math.inf
    return 2.0 * math.pi / (gamma_of(v) * m * v)


def boost_four_momentum(P: FourMomentum, beta: float) -> FourMomentum:
    """Boost by +beta along x, matching the plane-wave Doppler convention."""
    if beta == 0.0:
        return P
    g = gamma_of(beta)
    return FourMomentum(g * (P.E + beta * P.px), g * (P.px + beta * P.E), P.py)


def mass_state_of(b: BidirectionalWave) -> MassState:
    """Quantum rest mass and group speed of ``b``."""
    P = four_momentum_of(b)
    m = invariant_mass(P)
    vvec = group_velocity(P)
    v = float(np.hypot(vvec[0], vvec[1]))
    return MassState(m=m, v=v)
