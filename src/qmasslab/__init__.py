"""Numerical laboratory for the rest mass of interfering light.

Natural units throughout: c = hbar = 1.  Submodules: ``wavecore`` (plane
waves, boosts, measurement oracles), ``qmass`` (four-momentum algebra),
``doubleslit`` (two-slit local mass field and trajectories), ``boxwell``
(bidirectional waves in an infinite well), ``scenarios`` (orchestration and
export); the ``qmass-lab`` command line lives in ``qmasslab.cli``.

``import qmasslab`` loads none of them, nor numpy: import the submodule you
use (``from qmasslab import wavecore``).  Each scenario runner imports the
physics modules it calls, so a ``qmass-lab`` process loads only the physics
its scenario runs.  The command line runs OpenBLAS on one thread unless
``OPENBLAS_NUM_THREADS`` is set, and freezes its heap at exit so that the
interpreter's shutdown collections skip it; a process that imported numpy
before ``qmasslab.cli`` gets neither (see ``qmasslab.cli``).
"""

__version__ = "0.1.0"
