"""Byte-level regression guard: SHA-256 of every CSV the scenarios export.

The expected digests are the benchmark's, read from ``bench/golden.json``
(keyed by workload and menu entry).  A change that moves any exported digit
changes a digest there.  Regenerate that file with ``bench/make_golden.py``,
and only for a deliberate, documented change of the data files.
"""

import hashlib
import json
from pathlib import Path

import pytest

from qmasslab import scenarios

BENCH = json.loads((Path(__file__).resolve().parents[1] / "bench" / "golden.json").read_text())
CLI, PIPELINE = BENCH["cli-cold"], BENCH["pipeline-warm"]


def _first(entry: dict, names) -> dict:
    return {name: entry[name] for name in names}


#: Digests of each scenario's CSVs at default parameters.  The default starts of
#: doubleslit-traj are the first three of ``traj-5x2000``, and the default modes
#: of box-quantize the first five of ``quantize-10``.
GOLDEN = {
    "boost": CLI["boost"],
    "doubleslit-map": PIPELINE["map-201"],
    "doubleslit-traj": _first(PIPELINE["traj-5x2000"],
                              [f"trajectory_{i:03d}.csv" for i in range(3)]),
    "doubleslit-fringes": CLI["fringes-arc"],
    "box-beat": CLI["beat"],
    "box-states": PIPELINE["states-160"],
    "box-quantize": _first(CLI["quantize-10"], [f"envelope_n{n}.csv" for n in range(1, 6)]),
}


def test_every_scenario_has_a_golden_entry():
    assert set(GOLDEN) == set(scenarios.SCENARIOS)


def _csv_digests(kind, params, out):
    summary = scenarios.run(kind, params, out)
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in summary.files}


@pytest.mark.parametrize("kind", scenarios.SCENARIOS)
def test_default_csvs_byte_identical(kind, tmp_path):
    assert _csv_digests(kind, {}, tmp_path) == GOLDEN[kind]


def test_five_start_trajectories_byte_identical(tmp_path):
    # Start [10, -3] moves with a last-bit change of |v| (``math.hypot`` for
    # libm ``hypot``), which the three default starts do not.
    starts = [[25.0, 0.0], [17.7, 17.7], [0.01, 0.5], [10.0, -3.0], [5.0, 1.0]]
    params = {"starts": starts, "max_steps": 2000}
    assert _csv_digests("doubleslit-traj", params, tmp_path) == PIPELINE["traj-5x2000"]


# Start [25, 0] with 3000 steps is the one golden trajectory that stops at the
# domain boundary (after step 2501).
@pytest.mark.parametrize("params, entry", [
    ({"starts": [[25.0, 0.0]], "max_steps": 3000}, "traj-1x3000"),
    ({"max_steps": 2500}, "traj-3x2500"),
], ids=["traj-1x3000", "traj-3x2500"])
def test_benchmark_trajectories_byte_identical(params, entry, tmp_path):
    assert _csv_digests("doubleslit-traj", params, tmp_path) == PIPELINE[entry]
