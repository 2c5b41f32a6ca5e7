"""Byte-level regression guard: SHA-256 of every CSV at default parameters.

A change that moves any exported digit changes a digest here.  Regenerate
the table only for a deliberate, documented change of the data files.
"""

import hashlib

import pytest

from qmasslab import scenarios

GOLDEN = {
    "boost": {
        "field.csv": "450a4da374fbd0e580a5c901f8f793dc669ee6ccad20b099a535322f70bac047",
    },
    "doubleslit-map": {
        "mass_map.csv": "0dff686052d7813b548f0b6855ba65ecb7fb7c58984c49290df66a17092812e5",
    },
    "doubleslit-traj": {
        "trajectory_000.csv": "6f930e6441b609e60bfb44a32bf9ffd8c234ccc12d01538ad9ae4f9214a71e8e",
        "trajectory_001.csv": "8d423b4ae320aec02f87b66fdd31db77bf468f5238257c4f0cf013226971e9c4",
        "trajectory_002.csv": "2410808950124b0def2f082bb522c6fff2e705196907a9e09e95936ed801ec09",
    },
    "doubleslit-fringes": {
        "intensity.csv": "31c425488b74a985d0abb2df83b7a9165f75a9492465e39620de29996929b72f",
    },
    "box-beat": {
        "probe_series.csv": "8994bc92891609c6df1e2f7054e3ff71fc933078c4605aa69d28bc2ab59071c8",
    },
    "box-states": {
        "cosine_state.csv": "c99f2560b2c3a55637faed044ba50cff103464345104b2223bd3737709634535",
        "sine_state.csv": "0f4afd5c546b317b6aa20a97602483f8e539fb4cdc329708479c2bd4118443bb",
    },
    "box-quantize": {
        "envelope_n1.csv": "2ce99c4bb2537c57616d09cde6849011dfaeda4388fe513df7361f8957c12d2c",
        "envelope_n2.csv": "aa8558ccbd1d1031d8a3ff52f9004756765828db03375828a860c35bb175d0a7",
        "envelope_n3.csv": "493487a8e0cda3d02b8fe01857bda78c36d46a20c1459b9162a84727f3a90437",
        "envelope_n4.csv": "ae63859f034553503c16f7857b5aa8e12aeba80b129367cac0857ffb88f1e8ea",
        "envelope_n5.csv": "a42707394f6622856d1d46cdc776916a9be22c09693c6e04596a094ca5fc9eb9",
    },
}


def test_every_scenario_has_a_golden_entry():
    assert set(GOLDEN) == set(scenarios.SCENARIOS)


@pytest.mark.parametrize("kind", scenarios.SCENARIOS)
def test_default_csvs_byte_identical(kind, tmp_path):
    summary = scenarios.run(kind, {}, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in summary.files
    }
    assert digests == GOLDEN[kind]
