"""Numerical laboratory for the rest mass of interfering light.

Natural units throughout: c = hbar = 1.  Subpackages: ``wavecore`` (plane
waves, boosts, measurement oracles), ``qmass`` (four-momentum algebra),
``doubleslit`` (two-slit local mass field and trajectories), ``boxwell``
(bidirectional waves in an infinite well), ``scenarios`` (orchestration and
export); the ``qmass-lab`` command line lives in ``qmasslab.cli``.

``import qmasslab`` loads none of them, nor numpy: each name in ``__all__``
is imported on first use, so a ``qmass-lab`` process loads only the physics
its scenario runs.  The command line runs OpenBLAS on one thread unless
``OPENBLAS_NUM_THREADS`` is set, and freezes its heap at exit so that the
interpreter's shutdown collections skip it; a process that imported numpy
before ``qmasslab.cli`` gets neither (see ``qmasslab.cli``).
"""

import importlib

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

_WAVECORE_CLASSES = ("PlaneWave", "Superposition", "BidirectionalWave")


def __getattr__(name):
    """Import a submodule, or fetch a ``wavecore`` class, on first use (PEP 562)."""
    if name in _WAVECORE_CLASSES:
        return getattr(importlib.import_module(".wavecore", __name__), name)
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
