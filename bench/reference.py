"""Host-speed references, independent of qmasslab.

On a shared host the same code runs up to a third slower for minutes at a
time, because neighbours compete for the cores.  Each workload therefore
times a fixed reference during its timed phase, and run.py divides the
timings (set-up and ops) by ``median(samples) / nominal`` raised to an
elasticity.

Warm workloads: each workload interpreter times ``sample()`` between two
ops about every ``EVERY_S`` seconds, and its own set-up and ops are divided
by its own samples' factor: the interpreters run one after another, and the
host's speed changed by up to 60% from one to the next within a run.  The
sample runs on the CPU that runs the ops (a reference timed in
a process of its own was placed on either of the two vCPUs and did not follow
the ops' speed).  Its kernel runs once untimed before the timed pass, so the
caches that the previous op left behind are replaced by the kernel's own
before the clock starts.

cli-cold: run.py times ``cold_sample()``, a fresh interpreter importing the
third-party modules that ``import qmasslab`` loaded at the seed commit but not
qmasslab itself, before every ``COLD_EVERY``-th op.  Interpreter start and
those imports are most of a cli-cold op, so the op follows the reference at
elasticity 1: op wall times are divided by the samples' wall time and op
CPU times by their CPU time (the ops' CPU time per wall second changed by 17%
between two ten-run sets).  In ten sets of twelve ops, each op after one
such sample, the ops' medians spread by 0.09 (``(q3 - q1) / median``) and
their ratios to the samples' medians by 0.05.  A fresh ``python -c "import
numpy"`` did not follow the ops: the ratios to it spread by 0.23.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time

import numpy as np

#: Sets the scale of the corrected timings: a run whose median sample takes
#: NOMINAL_S reports its timings as measured.  Samples took 1.4 to 2.5 ms on
#: the host the benchmark was defined on (2-vCPU x86-64 Linux, Python 3.11,
#: numpy 2.4).
NOMINAL_S = 0.0028
#: A workload interpreter takes a sample before an op once this much time has
#: passed since its last one.
EVERY_S = 0.25
#: How strongly warm timings follow the reference.  Per menu entry, the
#: interpreter-bound ops (RK4 loop, Brent refinement, bisection) followed it
#: at about 1 and the numpy-bound ones (400x400 residual, Hilbert envelope,
#: 401x401 map) at about 0.5.  0.75 gave the smallest largest spread over
#: fourteen pipeline-warm and eight oracle-warm runs taken to choose it
#: (bench/README.md); the spreads quoted there come from later runs.
ELASTICITY = 0.75

_X = np.linspace(0.0, 1.0, 50_000)


def _kernel() -> float:
    total = 0.0
    for i in range(12_000):
        total += (i % 7) * 0.5
    return total + float(np.sum(np.sin(_X) * np.cos(_X)))


def sample() -> float:
    """Seconds taken by the kernel's second of two back-to-back passes."""
    _kernel()
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


#: What ``cold_sample`` runs in a fresh interpreter.
COLD_CODE = "import numpy, scipy.signal, scipy.optimize"
#: Scale of the corrected cli-cold timings, wall and CPU alike: the median
#: cold sample's wall time on the host the benchmark was defined on (1.28 to
#: 1.76 s per twelve-sample set, median 1.53 s).
COLD_NOMINAL_S = 1.53
#: run.py takes a cold sample before every COLD_EVERY-th cli-cold op.
COLD_EVERY = 2
#: How strongly cli-cold timings follow the cold sample.
COLD_ELASTICITY = 1.0


def cold_sample(timeout: float, **popen) -> tuple[float, float]:
    """Wall and CPU (user + sys) seconds of one fresh interpreter running COLD_CODE.

    The CPU time is the growth of this process's reaped-children usage, so no
    other child may be reaped meanwhile.  ``popen`` is passed to
    ``subprocess.run`` (env, cwd, stderr).  Raises
    ``subprocess.CalledProcessError`` or ``subprocess.TimeoutExpired``; the
    child has been reaped either way.
    """
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", COLD_CODE], stdout=subprocess.DEVNULL,
                   check=True, timeout=timeout, **popen)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return wall, (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
