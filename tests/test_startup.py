"""What a fresh ``qmass-lab`` process loads, how many BLAS threads it starts,
whether it freezes its heap at exit and what it writes.

Every case runs in a subprocess whose environment sets no BLAS thread count,
so the package's own startup is what is seen.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qmasslab import scenarios

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "bench" / "golden.json").read_text())

#: Variables that set OpenBLAS's thread count, in the order it reads them.
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _run_clean(*args, threads=None):
    """Run ``python *args`` with ``src`` on the path and no BLAS thread setting
    except ``OPENBLAS_NUM_THREADS=threads`` when given; return its stdout."""
    env = {k: v for k, v in os.environ.items() if k not in _BLAS_THREAD_VARS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


# The pin, then whether the heap is frozen once the exit handlers have run.
_REPORT_PIN = (
    "import atexit, gc, os; print(os.environ.get('OPENBLAS_NUM_THREADS')); "
    "atexit._run_exitfuncs(); print(gc.get_freeze_count() > 0)"
)


@pytest.mark.parametrize("imports, user_value, expected", [
    ("import qmasslab.cli", None, "1 True"),
    ("import qmasslab.cli", "2", "2 True"),
    ("import numpy, qmasslab.cli", None, "None False"),
    ("import qmasslab.scenarios", None, "None False"),
], ids=["cli-pins", "user-value-kept", "numpy-first-untouched", "library-untouched"])
def test_blas_pin_scope(imports, user_value, expected):
    report = _run_clean("-c", f"{imports}; {_REPORT_PIN}", threads=user_value)
    assert " ".join(report.split()) == expected


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="no /proc task list")
def test_cli_process_holds_one_thread():
    code = "import os, qmasslab.cli; print(len(os.listdir('/proc/self/task')))"
    assert _run_clean("-c", code) == "1\n"


def test_package_import_loads_no_numpy():
    assert _run_clean("-c", "import sys, qmasslab; print('numpy' in sys.modules)") == "False\n"


@pytest.mark.parametrize("argv, unloaded", [
    (["doubleslit-fringes"], {"boxwell"}),
    (["boost"], {"boxwell", "doubleslit"}),
], ids=["doubleslit-fringes", "boost"])
def test_scenario_loads_only_its_physics(argv, unloaded, tmp_path):
    code = (
        "import json, sys; from qmasslab import cli; "
        f"code = cli.main({argv + ['--out', str(tmp_path)]!r}); "
        "print(json.dumps([code, sorted(m for m in sys.modules if m.startswith('qmasslab'))]))"
    )
    exit_code, loaded = json.loads(_run_clean("-c", code).splitlines()[-1])
    assert exit_code == 0
    assert not {f"qmasslab.{m}" for m in unloaded} & set(loaded), loaded


@pytest.mark.parametrize("kind", ["box-beat", "boost"])
def test_tone_scenarios_load_no_numpy_polynomial_fft_or_scipy(kind, tmp_path):
    # Importing numpy.polynomial costs a cold start 3-6 ms; every tone, in time
    # and in space, comes from one linear-prediction solve, so nothing needs
    # numpy.fft; scipy is test-only.
    code = (
        "import json, sys; from qmasslab import cli; "
        f"code = cli.main({[kind, '--out', str(tmp_path)]!r}); "
        "print(json.dumps([code, sorted(m for m in sys.modules "
        "if m.startswith(('numpy.polynomial', 'numpy.fft')) or m.split('.')[0] == 'scipy')]))"
    )
    assert json.loads(_run_clean("-c", code).splitlines()[-1]) == [0, []]


@pytest.mark.parametrize("threads", [None, "2"], ids=["pinned", "two-threads"])
def test_box_states_bytes_independent_of_blas_threads(threads, tmp_path):
    # box-states is the one default scenario whose CSVs pass through LAPACK (lstsq).
    code = (
        "import sys; from qmasslab.cli import main; "
        f"sys.exit(main(['box-states', '--out', {str(tmp_path)!r}]))"
    )
    _run_clean("-c", code, threads=threads)
    digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
               for name in ("cosine_state.csv", "sine_state.csv")}
    assert digests == GOLDEN["pipeline-warm"]["states-160"]


def _csv_digests(directory):
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(directory.glob("*.csv"))}


@pytest.mark.parametrize("kind", scenarios.SCENARIOS)
def test_fresh_cli_writes_the_in_process_bytes(kind, tmp_path):
    # A fresh process freezes its heap at exit; every file is closed before that.
    _run_clean("-m", "qmasslab.cli", kind, "--out", str(tmp_path / "cold"))
    scenarios.run(kind, {}, tmp_path / "warm")
    digests = _csv_digests(tmp_path / "cold")
    assert digests and digests == _csv_digests(tmp_path / "warm")
