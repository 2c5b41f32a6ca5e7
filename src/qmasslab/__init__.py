"""Numerical laboratory for the rest mass of interfering light.

Natural units throughout: c = hbar = 1.  Subpackages: ``wavecore`` (plane
waves, boosts, measurement oracles), ``qmass`` (four-momentum algebra),
``doubleslit`` (two-slit local mass field and trajectories), ``boxwell``
(bidirectional waves in an infinite well), ``scenarios`` (orchestration and
export); the ``qmass-lab`` command line lives in ``qmasslab.cli``.
"""

from . import boxwell, doubleslit, qmass, scenarios, wavecore
from .wavecore import BidirectionalWave, PlaneWave, Superposition

__version__ = "0.1.0"

__all__ = [
    "PlaneWave",
    "Superposition",
    "BidirectionalWave",
    "wavecore",
    "qmass",
    "doubleslit",
    "boxwell",
    "scenarios",
]
