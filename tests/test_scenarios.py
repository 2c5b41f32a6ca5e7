import dataclasses
import hashlib
import inspect
import itertools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qmasslab import boxwell, cli, doubleslit, qmass, scenarios, wavecore
from qmasslab.errors import InsufficientSpanError, InvalidConfigError, QmassError

# fast overrides keeping every scenario well under a second
FAST_PARAMS = {
    "boost": {},
    "doubleslit-map": {"nx": 41, "ny": 41},
    "doubleslit-traj": {"starts": [[25.0, 0.0]], "max_steps": 400},
    "doubleslit-fringes": {},
    "box-beat": {},
    "box-states": {"n_positions": 32},
    "box-quantize": {"n_max": 3},
}


@pytest.mark.parametrize("kind", scenarios.SCENARIOS)
def test_every_scenario_passes(kind, tmp_path):
    summary = scenarios.run(kind, FAST_PARAMS[kind], tmp_path)
    assert summary.passed, [m.name for m in summary.metrics if not m.passed]
    for name in summary.files + ["summary.json"]:
        assert (tmp_path / name).is_file()


def test_summary_schema(tmp_path):
    scenarios.run("boost", {}, tmp_path)
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert doc["schema_version"] == scenarios.SCHEMA_VERSION
    assert doc["scenario"] == "boost"
    assert doc["pass"] is True
    for m in doc["metrics"]:
        assert set(m) == {
            "name", "predicted", "measured", "rel_error", "tolerance",
            "source", "pass",
        }
        assert m["source"] in ("formula", "oracle")


def test_repeated_runs_byte_identical(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    s1 = scenarios.run("box-beat", {}, a)
    s2 = scenarios.run("box-beat", {}, b)
    assert s1.files == s2.files
    for name in s1.files:
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_export_grid_layout(tmp_path):
    path = tmp_path / "grid.csv"
    values = np.array([[4.0, 5.0], [6.0, 7.0]])
    name = scenarios.export_grid(path, [0.0, 1.0], [2.0, 3.0], lambda rows: values[rows])
    assert name == "grid.csv"
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 5
    assert lines[1] == "0,2,4"
    assert lines[4] == "1,3,7"


def _format_17g(v) -> str:
    # The per-value formatter the CSV writers used before their numpy kernel: the reference.
    return format(float(v), ".17g")


def _float_arrays(size):
    return hnp.arrays(np.float64, size, elements=st.floats(allow_subnormal=True))


SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.2e-308, 0.1, 1e308])


#: A block size the drawn series cross, so the series writer's block boundary is hit.
SMALL_BLOCK = 3


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=st.integers(min_value=0, max_value=12))
@example(data=None, n=len(SPECIALS))
@example(data=None, n=0)
def test_export_series_matches_per_value_format(data, n, tmp_path_factory):
    if data is None:
        x, values = np.resize(SPECIALS, n), np.resize(SPECIALS[::-1], n)
    else:
        x, values = data.draw(_float_arrays(n)), data.draw(_float_arrays(n))
    path = tmp_path_factory.mktemp("series") / "s.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "_CSV_BLOCK_ROWS", SMALL_BLOCK)
        assert scenarios.export_series(path, "t,value", x, values) == "s.csv"
    expected = ["t,value"] + [f"{_format_17g(a)},{_format_17g(b)}" for a, b in zip(x, values)]
    assert path.read_text() == "\n".join(expected) + "\n"


@settings(deadline=None, max_examples=60)
@given(data=st.data(), nx=st.integers(0, 5), ny=st.integers(0, 5))
@example(data=None, nx=len(SPECIALS), ny=2)
@example(data=None, nx=0, ny=4)
@example(data=None, nx=4, ny=0)
@example(data=None, nx=2, ny=2 * SMALL_BLOCK + 1)
def test_export_grid_matches_per_value_format(data, nx, ny, tmp_path_factory):
    if data is None:
        x, y = np.resize(SPECIALS, nx), np.resize(SPECIALS[::-1], ny)
        values = np.resize(np.roll(SPECIALS, 3), (nx, ny))
        # Uneven blocks: 8 rows of specials asked for as 3, 3, 2.
        cells = SMALL_BLOCK * max(1, ny)
    else:
        x, y = data.draw(_float_arrays(nx)), data.draw(_float_arrays(ny))
        values = data.draw(_float_arrays((nx, ny)))
        cells = data.draw(st.integers(1, 30))
    asked = []

    def rows_of(rows):
        asked.append(rows)
        return values[rows]

    path = tmp_path_factory.mktemp("grid") / "g.csv"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(scenarios, "_MAP_BLOCK_CELLS", cells)
        assert scenarios.export_grid(path, x, y, rows_of) == "g.csv"
    # Every row is asked for once, in x order.
    assert [i for rows in asked for i in range(nx)[rows]] == list(range(nx))
    expected = ["x,y,value"] + [
        f"{_format_17g(xi)},{_format_17g(yj)},{_format_17g(values[i, j])}"
        for i, xi in enumerate(x)
        for j, yj in enumerate(y)
    ]
    assert path.read_text() == "\n".join(expected) + "\n"


@pytest.mark.parametrize("shape", [(3, 2), (6,), (2, 2), (2, 3, 1)])
def test_export_grid_rejects_values_of_another_shape(shape, tmp_path):
    # A grid of len(x) = 2 by len(y) = 3; no value may be dropped or repeated.
    with pytest.raises(ValueError, match="shape"):
        scenarios.export_grid(tmp_path / "g.csv", [0.0, 1.0], [2.0, 3.0, 4.0],
                              lambda rows: np.zeros(shape))


@pytest.mark.parametrize("cells", [1, 10, 15])
def test_map_stream_writes_the_whole_grid_bytes(cells, tmp_path, monkeypatch):
    # 7 x rows by 5 y columns, streamed in blocks of 1, 2 or 3 rows (the last
    # holds 1): the same bytes as one whole grid, NaN cells at the slits included.
    cfg = doubleslit.SlitConfig(d=1.0, omega=2.0 * math.pi / 0.05)
    x, y = np.linspace(0.0, 5.0, 7), np.linspace(-0.5, 0.5, 5)
    whole = doubleslit.mass_map(cfg, x, y)
    scenarios.export_grid(tmp_path / "whole.csv", x, y, lambda rows: whole[rows])
    monkeypatch.setattr(scenarios, "_MAP_BLOCK_CELLS", cells)
    scenarios.run("doubleslit-map", {"nx": 7, "ny": 5, "y_span": 0.5}, tmp_path)
    text = (tmp_path / "mass_map.csv").read_bytes()
    assert b"nan" in text
    assert text == (tmp_path / "whole.csv").read_bytes()


def test_map_memory_does_not_grow_with_the_grid(tmp_path):
    # Holding the grid cost 8 bytes a cell plus a block of temporaries, 2.3 MB
    # on this 1201 x 101 grid (12.85 MB at 1201**2); streamed, ~0.77 MB at any size.
    scenarios.run("doubleslit-map", {"nx": 3, "ny": 3}, tmp_path)
    tracemalloc.start()
    try:
        scenarios.run("doubleslit-map", {"nx": 1201, "ny": 101}, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


def test_export_series_rejects_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match=r"equal length, got \[3, 2\]"):
        scenarios.export_series(tmp_path / "s.csv", "x,value", np.zeros(3), np.zeros(2))
    assert not (tmp_path / "s.csv").exists()


def test_export_series_holds_one_block(tmp_path):
    # Stacking both columns whole held 1.55 MB here (17.28 MB at 2**20 rows);
    # one block of rows, ~0.57 MB at any length.
    x = np.linspace(0.0, 1.0, 2**16)
    values = np.sin(x)
    tracemalloc.start()
    try:
        scenarios.export_series(tmp_path / "s.csv", "x,value", x, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1e6


@pytest.mark.parametrize("tolerance", [1.0, 3.55, -1e-3, float("nan")])
def test_metric_tolerance_outside_unit_interval_rejected(tolerance):
    with pytest.raises(InvalidConfigError):
        scenarios.Metric("m", 1.0, 1.0, tolerance, "formula")


@pytest.mark.parametrize("predicted, measured", [(math.nan, 1.0), (1.0, math.inf)])
def test_metric_non_finite_value_is_a_runtime_error(predicted, measured):
    with pytest.raises(QmassError) as excinfo:
        scenarios.Metric("m", predicted, measured, 0.1, "oracle")
    assert not isinstance(excinfo.value, InvalidConfigError)


def test_unknown_scenario_rejected(tmp_path):
    with pytest.raises(InvalidConfigError):
        scenarios.run("nonsense", {}, tmp_path)


def test_unknown_parameter_rejected(tmp_path):
    with pytest.raises(InvalidConfigError):
        scenarios.run("boost", {"banana": 1}, tmp_path)


@pytest.mark.parametrize(
    "kind, params",
    [
        ("doubleslit-traj", {"starts": [[1.0]]}),
        ("doubleslit-traj", {"starts": []}),
        ("doubleslit-fringes", {"D": float("nan")}),
        ("box-states", {"n_positions": 32.0}),
    ],
)
def test_mistyped_parameter_rejected(kind, params, tmp_path):
    with pytest.raises(InvalidConfigError):
        scenarios.run(kind, params, tmp_path)


def test_energy_gate_catches_one_percent_error(tmp_path, monkeypatch):
    # energy_n* allows (p_n/m)**2 about the Schrodinger energy, so a 1% error in
    # the kinetic energy fails it at n <= 2 only.  The exact relativistic energy,
    # pinned at 1e-7 in test_boxwell, misses it at every n.
    quantize = boxwell.quantize
    monkeypatch.setattr(
        boxwell,
        "quantize",
        lambda cfg, n_max: [
            dataclasses.replace(r, kinetic_energy=1.01 * r.kinetic_energy)
            for r in quantize(cfg, n_max)
        ],
    )
    summary = scenarios.run("box-quantize", {"n_max": 5}, tmp_path)
    assert {m.name for m in summary.metrics if not m.passed} == {"energy_n1", "energy_n2"}
    cfg = boxwell.Well(W=1.0, omega0=100.0)
    for rep in boxwell.quantize(cfg, 5):
        x2 = (rep.p_schrodinger / cfg.omega0) ** 2
        exact = cfg.omega0 * x2 / (math.sqrt(1.0 + x2) + 1.0)
        assert rep.kinetic_energy != pytest.approx(exact, rel=1e-7)


@pytest.mark.parametrize("params", [{"W": 10.0}, {"omega0": 1000.0}])
def test_energy_gate_passes_at_large_carrier_phase(params, tmp_path):
    # omega0*W = 1000: the Schrodinger-relativistic discrepancy is ~1e-6 of E_sch
    summary = scenarios.run("box-quantize", params, tmp_path)
    assert summary.passed, [m.name for m in summary.metrics if not m.passed]


@pytest.mark.parametrize("carrier_phase", [20.0, 1e5])
@pytest.mark.parametrize("W", [1e-100, 1e100])
def test_box_quantize_passes_at_the_corners_of_the_well_range(W, carrier_phase, tmp_path):
    # W and omega0*W at both ends of the Well's range.  The worst momentum
    # error reads 1.7e-14 at omega0*W = 20 and 5.6e-11 at 1e5.
    summary = scenarios.run("box-quantize", {"W": W, "omega0": carrier_phase / W}, tmp_path)
    assert summary.passed, [m.name for m in summary.metrics if not m.passed]
    assert max(m.rel_error for m in summary.metrics if m.name.startswith("momentum_n")) <= 1e-10


@pytest.mark.parametrize(
    "kind, params",
    [
        ("boost", {"omega0": np.float32(1.0), "beta": np.float64(0.6)}),
        ("box-states", {"n_positions": np.int64(32), "v": np.float64(0.05)}),
        ("doubleslit-traj", {"starts": np.array([[25.0, 0.0]]), "max_steps": np.int32(400)}),
        ("doubleslit-traj", {"starts": ((25.0, 0.0),), "max_steps": 400}),
    ],
)
def test_numpy_and_tuple_parameters_accepted(kind, params, tmp_path):
    summary = scenarios.run(kind, params, tmp_path)
    assert summary.passed
    doc = json.loads((tmp_path / "summary.json").read_text())
    assert set(params) <= set(doc["params"])


ROOT = Path(__file__).resolve().parents[1]


def _run_python(*args, cwd=None):
    """Run ``python *args`` with this checkout's ``src`` first on the path."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=dict(os.environ, PYTHONPATH=path),
    )


def test_readme_parameter_table_matches_defaults():
    # Each row of the README's scenario table lists `name` (default) pairs in order.
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| scenario | parameters (default) | range |") + 2
    table = []
    for line in itertools.takewhile(lambda row: row.startswith("|"), lines[start:]):
        kind, cell = re.match(r"\| `([\w-]+)` \| (.*?) \|", line).groups()
        pairs = re.findall(r"`(\w+)` \(`?(.*?)`?\)(?=, `|$)", cell)
        table.append((kind, [(name, json.loads(value)) for name, value in pairs]))
    assert table == [(kind, list(defaults.items()))
                     for kind, defaults in scenarios.DEFAULTS.items()]


#: One valid value for every scenario parameter, other than its ``FAST_PARAMS`` one.
ALTERNATIVES = {
    "boost": {"omega0": 2.0, "beta": 0.3},
    "doubleslit-map": {"d": 2.0, "wavelength": 0.1, "nx": 31, "ny": 31, "x_span": 4.0,
                       "y_span": 2.0},
    "doubleslit-traj": {"d": 2.0, "starts": [[20.0, 1.0]], "max_steps": 300},
    "doubleslit-fringes": {"d": 1.0, "wavelength": 0.02, "D": 40.0, "screen": "line"},
    "box-beat": {"W": 2.0, "omega0": 120.0, "v": 0.1, "probe": 0.3},
    "box-states": {"W": 1.1, "L": 0.08, "omega0": 110.0, "v": 0.07, "n_positions": 40},
    "box-quantize": {"W": 1.1, "omega0": 110.0, "n_max": 4},
}

#: Parameters that move no output.  box-beat's four-wave field has its only wall
#: at x = 0: W bounds probe < W and omega0*W and nothing else.
UNREAD = {("box-beat", "W")}


def test_alternatives_cover_every_parameter():
    assert {kind: set(alts) for kind, alts in ALTERNATIVES.items()} == {
        kind: set(defaults) for kind, defaults in scenarios.DEFAULTS.items()}


def _outputs(kind, params, out):
    """A run's CSV digests and each metric's (predicted, measured)."""
    summary = scenarios.run(kind, params, out)
    digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
               for name in summary.files}
    return digests, [(m.predicted, m.measured) for m in summary.metrics]


@pytest.mark.parametrize("kind, key", [(kind, key) for kind, alts in ALTERNATIVES.items()
                                       for key in alts])
def test_every_parameter_is_read(kind, key, tmp_path):
    assert ALTERNATIVES[kind][key] != FAST_PARAMS[kind].get(key, scenarios.DEFAULTS[kind][key])
    base = _outputs(kind, FAST_PARAMS[kind], tmp_path / "base")
    changed = _outputs(kind, {**FAST_PARAMS[kind], key: ALTERNATIVES[kind][key]},
                       tmp_path / "changed")
    assert (changed != base) == ((kind, key) not in UNREAD)


@pytest.mark.parametrize("kind", scenarios.SCENARIOS)
def test_every_data_file_goes_through_the_public_writers(kind, tmp_path, monkeypatch):
    written = []

    def recorder(writer):
        signature = inspect.signature(writer)

        def record(*args, **kwargs):
            written.append(signature.bind(*args, **kwargs).arguments["path"].name)
            return writer(*args, **kwargs)

        return record

    for name in ("export_series", "export_grid"):
        monkeypatch.setattr(scenarios, name, recorder(getattr(scenarios, name)))
    summary = scenarios.run(kind, FAST_PARAMS[kind], tmp_path)
    assert written == summary.files
    assert sorted(p.name for p in tmp_path.glob("*.csv")) == sorted(summary.files)


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = _run_python("-W", "error", str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


# Every metric of every scenario, with overrides that keep each run small.
GATES = {
    "boost": ([], ["quantum_rest_mass", "group_speed", "envelope_wavelength"]),
    "doubleslit-map": (["nx=21", "ny=21"], ["slit_plane_mass", "axis_monotone_violations"]),
    # Off the axis: on it the flux invariant is 0 under every weighting.
    "doubleslit-traj": (["starts=[[0.01,0.5]]", "max_steps=200"],
                        ["streamline_invariant_drift"]),
    "doubleslit-fringes": ([], ["fringe_spacing"]),
    "box-beat": ([], ["fast_frequency", "slow_frequency"]),
    "box-states": (["n_positions=16"], ["envelope_wavenumber", "helix_modulus_flatness"]),
    "box-quantize": (["n_max=2"], [f"{gate}_n{n}" for n in (1, 2)
                                   for gate in ("momentum", "energy")]),
}


def _assert_only_gate_fails(kind, gate, tmp_path, capsys, overrides=None):
    default_overrides, gates = GATES[kind]
    overrides = default_overrides if overrides is None else overrides
    argv = [kind, "--out", str(tmp_path)]
    for item in overrides:
        argv += ["--set", item]
    assert cli.main(argv) == 1
    lines = re.findall(r"^(PASS|FAIL) (\S+): predicted=", capsys.readouterr().out, re.M)
    status = {name: word for word, name in lines}
    assert status == {name: "FAIL" if name == gate else "PASS" for name in gates}


@pytest.mark.parametrize(
    "kind, gate", [(kind, gate) for kind, (_, gates) in GATES.items() for gate in gates]
)
def test_every_gate_can_fail(kind, gate, tmp_path, monkeypatch, capsys):
    # The named metric misses by twice its tolerance plus 1e-6; all others run as is.
    metric = scenarios.Metric

    def missing(name, predicted, measured, tolerance, source):
        if name == gate:
            measured = predicted + (2 * tolerance + 1e-6) * (abs(predicted) or 1.0)
        return metric(name, predicted, measured, tolerance, source)

    monkeypatch.setattr(scenarios, "Metric", missing)
    _assert_only_gate_fails(kind, gate, tmp_path, capsys)


def _rising_axis(mass_map):
    # Reversed along x, the axis profile rises away from the slits; the
    # one-column slit-plane profile is unchanged.
    return lambda cfg, x, y: mass_map(cfg, x, y)[::-1]


def _heavier_mass(mass_map):
    # 1e-5 too heavy everywhere: the axis profile still falls.
    return lambda cfg, x, y: (1.0 + 1e-5) * mass_map(cfg, x, y)


def _kinked_path(integrate):
    def kinked(start, cfg, max_steps):
        traj = integrate(start, cfg, max_steps=max_steps)
        points = traj.points.copy()
        points[-1, 1] += cfg.d / 100.0  # the last point leaves its streamline sideways
        return dataclasses.replace(traj, points=points)
    return kinked


def _unequal_states(trace_states):
    def unequal(cfg, n_positions):
        trace = trace_states(cfg, n_positions=n_positions)
        return dataclasses.replace(trace, a_cos=1.1 * trace.a_cos)
    return unequal


# Each gate whose prediction is 0, with the physics function its runner measures
# and a corruption of that function's result that the gate must catch.
ZERO_GATES = {
    "slit_plane_mass": ("doubleslit-map", doubleslit, "mass_map", _heavier_mass),
    "axis_monotone_violations": ("doubleslit-map", doubleslit, "mass_map", _rising_axis),
    "streamline_invariant_drift": (
        "doubleslit-traj", doubleslit, "integrate_trajectory", _kinked_path),
    "helix_modulus_flatness": (
        "box-states", boxwell, "trace_states_vs_position", _unequal_states),
}


@pytest.mark.parametrize("gate", ZERO_GATES)
def test_zero_predicted_gate_catches_corrupted_input(gate, tmp_path, monkeypatch, capsys):
    # Unlike the matrix above, this corrupts the measured input, so a measurement
    # stuck at 0 cannot pass.
    kind, module, name, corrupt = ZERO_GATES[gate]
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    _assert_only_gate_fails(kind, gate, tmp_path, capsys)


def _mass_map_weighted(k):
    """``doubleslit.mass_map`` with source weights r**-k in place of the energy weights r**-2."""
    def mass_map(cfg, x, y):
        X, Y = np.meshgrid(np.asarray(x, float), np.asarray(y, float), indexing="ij")
        h = cfg.d / 2.0
        r1, r2 = np.hypot(X, Y - h), np.hypot(X, Y + h)
        excluded = (r1 < cfg.exclusion_radius) | (r2 < cfg.exclusion_radius)
        r1, r2 = np.where(excluded, np.nan, r1), np.where(excluded, np.nan, r2)
        w1, w2 = r1 ** -k, r2 ** -k
        nx = (w1 * X / r1 + w2 * X / r2) / (w1 + w2)
        ny = (w1 * (Y - h) / r1 + w2 * (Y + h) / r2) / (w1 + w2)
        return cfg.omega * np.sqrt(1.0 - np.clip(nx * nx + ny * ny, 0.0, 1.0))
    return mass_map


@pytest.mark.parametrize("k", [1, 0], ids=["amplitude-weights", "no-weights"])
def test_map_gate_catches_look_alike_weights(k, tmp_path, monkeypatch, capsys):
    # On the axis the two weights are equal whatever k is, so only the slit
    # plane, where the waves counter-propagate, tells these maps apart: they
    # miss its closed form by 0.38 (k = 1) and 0.94 (k = 0) at the defaults.
    monkeypatch.setattr(doubleslit, "mass_map", _mass_map_weighted(k))
    _assert_only_gate_fails("doubleslit-map", "slit_plane_mass", tmp_path, capsys, overrides=[])


def test_map_with_energy_weights_passes(tmp_path, monkeypatch):
    # The look-alike builder above with the paper's weights r**-2 is the real map.
    monkeypatch.setattr(doubleslit, "mass_map", _mass_map_weighted(2))
    assert cli.main(["doubleslit-map", "--out", str(tmp_path)]) == 0


def _momentum_weighted(k):
    """``doubleslit._momentum`` with source weights r**-k in place of the energy weights r**-2."""
    def momentum(z, ih):
        z1, z2 = z - ih, z + ih
        r1, r2 = abs(z1), abs(z2)
        w1, w2 = r1 ** -k, r2 ** -k
        return (w1 * z1 / r1 + w2 * z2 / r2) / (w1 + w2)
    return momentum


@pytest.mark.parametrize("k", [0, 1, 3], ids=["no-weights", "amplitude-weights", "cubic-weights"])
def test_traj_gate_catches_look_alike_weights(k, tmp_path, monkeypatch, capsys):
    # The near-slit start (0.01, 0.5) drifts by 0.98 (k = 0), 0.41 (k = 1) and
    # 0.19 (k = 3), (17.7, 17.7) by 1.9e-4 to 9.7e-5, and the on-axis start by
    # 0 under any weighting.  A far-field radial bound passes k = 0 and k = 1.
    monkeypatch.setattr(doubleslit, "_momentum", _momentum_weighted(k))
    _assert_only_gate_fails("doubleslit-traj", "streamline_invariant_drift", tmp_path, capsys,
                            overrides=[])
    drift = json.loads((tmp_path / "summary.json").read_text())["metrics"][0]["measured"]
    assert drift > 0.1


def test_traj_with_energy_weights_passes(tmp_path, monkeypatch):
    # The look-alike builder above with the paper's weights r**-2 is the real field.
    monkeypatch.setattr(doubleslit, "_momentum", _momentum_weighted(2))
    assert cli.main(["doubleslit-traj", "--out", str(tmp_path)]) == 0


def test_traj_gate_tolerance_is_ten_times_the_worst_swept_drift(tmp_path):
    # 100 seeded starts per slit separation, half of them 1e-3*d to 0.1*d from a
    # slit (log-uniform, on the side x >= 1e-3*d), the rest anywhere in the domain.
    rng = np.random.default_rng(20)
    worst = 0.0
    for d in (1e-3, 1.0, 1e3):
        near = []
        for _ in range(50):
            rho = 10.0 ** rng.uniform(-3.0, -1.0)
            edge = math.acos(1e-3 / rho)
            angle = rng.uniform(-edge, edge)
            slit = rng.choice([-0.5, 0.5])
            near.append([max(rho * math.cos(angle), 1e-3) * d,
                         (slit + rho * math.sin(angle)) * d])
        anywhere = np.column_stack((rng.uniform(1e-3, 50.0, 50), rng.uniform(-50.0, 50.0, 50)))
        starts = near + (anywhere * d).tolist()
        summary = scenarios.run("doubleslit-traj", {"d": d, "starts": starts,
                                                    "max_steps": 3000},
                                tmp_path / f"d{d:g}")
        (metric,) = summary.metrics
        assert metric.passed
        worst = max(worst, metric.measured)
    assert worst >= 1e-7  # the near-slit starts bend within a step
    assert metric.tolerance >= 10.0 * worst, worst  # worst 1.8e-6


def _field_without_gamma(cfg):
    """``boxwell.build_field`` from omega0*(1 +- v), the Lorentz factor dropped."""
    waves = []
    for omega in (cfg.omega0 * (1.0 + cfg.v), cfg.omega0 * (1.0 - cfg.v)):
        waves.append(wavecore.PlaneWave(omega, (1.0, 0.0), 0.0))
        waves.append(wavecore.PlaneWave(omega, (-1.0, 0.0), math.pi))
    return wavecore.Superposition(tuple(waves))


def test_states_gates_catch_dropped_lorentz_factor(tmp_path, monkeypatch, capsys):
    # The cavity field built from omega0*(1 +- v), without gamma: box-states
    # misses its envelope wavenumber by 0.84 and its helix flatness by ~2.6e3
    # times the tolerance.
    monkeypatch.setattr(boxwell, "build_field", _field_without_gamma)
    assert cli.main(["box-states", "--out", str(tmp_path)]) == 1
    failed = re.findall(r"^FAIL (\S+): predicted=", capsys.readouterr().out, re.M)
    assert failed == ["envelope_wavenumber", "helix_modulus_flatness"]


def test_box_beat_gates_catch_dropped_lorentz_factor(tmp_path, monkeypatch, capsys):
    # The same field beats at omega0 and omega0*v: both tones miss gamma*omega0
    # and gamma*omega0*v by 1 - 1/gamma = 1.97e-3 at the defaults.
    monkeypatch.setattr(boxwell, "build_field", _field_without_gamma)
    assert cli.main(["box-beat", "--out", str(tmp_path)]) == 1
    failed = re.findall(r"^FAIL (\S+): predicted=", capsys.readouterr().out, re.M)
    assert failed == ["fast_frequency", "slow_frequency"]


def _box_beat_cases():
    """(cfg, probe) over box-beat's accepted range, weighted to its worst corners.

    First the three worst of ~1,400 cases at v below 3e-4 with the probe just
    past the node limit, then a seeded sweep: W over [1e-100, 1e100], omega0*W
    over [20, 1e5], v from the 2**20-sample floor to near c, and every other
    probe just past a node of one component standing wave.
    """
    for W, omega0, v, probe in [
        (2.582385132619237e+46, 3.1613605111422685e-43, 0.00014137151585564832,
         2.0513903903720866e+46),
        (1.1066378638730525e-48, 1.4387970755814449e+52, 0.00012666517199694252,
         4.2670573102249925e-49),
        (1.1250082288340832e-30, 5.2416912510534785e+34, 0.00012420434359578937,
         9.377423054633451e-31),
    ]:
        yield boxwell.BoxConfig(W=W, L=W / 10.0, omega0=omega0, v=v), probe
    rng = np.random.default_rng(29)
    for i in range(24):
        W = 10.0 ** rng.uniform(-100.0, 100.0)
        phase = 10.0 ** rng.uniform(math.log10(boxwell.MIN_CARRIER_PHASE),
                                    math.log10(boxwell.MAX_CARRIER_PHASE))
        # log-uniform in v below 0.5 or in 1 - v above it
        u = 10.0 ** rng.uniform(math.log10(1.23e-4), math.log10(0.5))
        v = u if i % 4 < 2 else 1.0 - 2.0 * u
        cfg = boxwell.BoxConfig(W=W, L=W / 10.0, omega0=phase / W, v=v)
        if i % 2:
            k = cfg.omega_bar + rng.choice([1.0, -1.0]) * cfg.delta_omega
            node = rng.integers(1, max(2, int(k * W / math.pi)))
            past = math.asin(boxwell.PROBE_AMPLITUDE_MIN) * rng.uniform(1.0001, 1.05)
            probe = (node * math.pi + rng.choice([1.0, -1.0]) * past) / k
        else:
            probe = rng.uniform(0.01, 0.99) * W
        yield cfg, probe


def test_box_beat_gates_sit_10x_above_the_worst_swept_error(tmp_path):
    gates = {m.name: m.tolerance for m in scenarios.run("box-beat", {}, tmp_path).metrics}
    errors = []
    for cfg, probe in _box_beat_cases():
        beats = boxwell.analyze_beats(cfg, probe)
        errors += [abs(beats.fast / cfg.omega_bar - 1.0), abs(beats.slow / cfg.delta_omega - 1.0)]
    assert 10.0 * max(errors) <= min(gates["fast_frequency"], gates["slow_frequency"])


def _boost_envelope_cases():
    """(omega0, beta) over boost's accepted range, weighted to its worst corner.

    First the three worst of ~4,000 cases with omega0 in [5e8, 1e9] and
    |beta| in [0.985, 0.992), then a seeded sweep: omega0 log-uniform over
    [1e-9, 1e9], |beta| uniform over [1/128, 0.99199] and either sign.
    """
    yield from [(1e9, 0.9915305537489627), (1e9, 0.9913084156823176),
                (1e9, -0.9903133685390878)]
    rng = np.random.default_rng(31)
    for _ in range(60):
        speed = rng.uniform(1 / 128, 0.99199)
        yield 10.0 ** rng.uniform(-9.0, 9.0), rng.choice([1.0, -1.0]) * speed


def test_boost_envelope_gate_sits_above_the_worst_swept_error(tmp_path):
    # Solved, as the runner solves it, on every 16th point of the 64-per-period
    # grid, the worst error is 9.5e-9, at the second case; the gate is ten times
    # that.  On every point the first case missed by 9.1e-4: at omega0 = 1e9 the
    # snapshot at t = 0.3 rounds its phase by ~1e-7 rad a sample, and near c the
    # slow tone k- spans about one period of the grid.
    gate = {m.name: m.tolerance for m in scenarios.run("boost", {}, tmp_path).metrics}
    errors = []
    for omega0, beta in _boost_envelope_cases():
        b = wavecore.boost_standing_wave(omega0, beta)
        x = wavecore.envelope_sampling_grid(b)
        snapshot = wavecore.evaluate(wavecore.superposition_of(b), x, 0.3)
        stride = scenarios._ENVELOPE_SOLVE_STRIDE
        measured = wavecore.measure_envelope_wavelength(x[::stride], snapshot[::stride])
        predicted = qmass.de_broglie_wavelength(omega0, abs(beta))
        errors.append(abs(measured / predicted - 1.0))
    assert 10.0 * max(errors) <= gate["envelope_wavelength"]
    assert errors[0] < 1e-10


def test_boost_gates_catch_dropped_lorentz_factor(tmp_path, monkeypatch, capsys):
    # The boosted pair omega0*(1 +- |beta|), without gamma: its measured mass
    # sqrt(w+*w-) = omega0*sqrt(1 - beta**2) misses omega0 by 0.20 at the
    # defaults, and its envelope the rest-frame de Broglie wavelength by 0.25.
    # (w+ - w-)/(w+ + w-) is still |beta|, so group_speed passes.
    def boost_standing_wave(omega0, beta):
        b = abs(beta)
        axis = (1.0, 0.0) if beta > 0 else (-1.0, 0.0)
        return wavecore.BidirectionalWave(omega0 * (1.0 + b), omega0 * (1.0 - b), axis)

    monkeypatch.setattr(wavecore, "boost_standing_wave", boost_standing_wave)
    assert cli.main(["boost", "--out", str(tmp_path)]) == 1
    lines = re.findall(r"^(PASS|FAIL) (\S+): predicted=", capsys.readouterr().out, re.M)
    assert {name: word for word, name in lines} == {
        "quantum_rest_mass": "FAIL", "group_speed": "PASS", "envelope_wavelength": "FAIL"}


class TestCli:
    @pytest.mark.parametrize(
        "argv",
        [
            ["boost", "--set", "v=3"],
            ["boost", "--set", "omega0=true"],
            ["doubleslit-map", "--set", "nx=2.5"],
            ["boost", "--set", "omega0=abc"],
            ["box-beat", "--set", "probe=[1]"],
            ["box-quantize", "--set", "v=0.05"],
            ["doubleslit-traj", "--set", "max_steps=0"],
            ["doubleslit-traj", "--set", "max_steps=-3"],
            ["box-beat", "--set", "probe=-5.0"],
            ["doubleslit-map", "--set", "nx=1"],
            ["doubleslit-map", "--set", "ny=1"],
            ["box-states", "--set", "n_positions=1"],
            ["box-quantize", "--set", "n_max=60"],
            ["doubleslit-fringes", "--set", "screen=foo"],
            ["boost", "--set", "beta=0.001"],
            ["doubleslit-map", "--set", "wavelength=100.0"],
            ["box-beat", "--set", "v=1e-300"],
            ["boost", "--set", "beta=" + "1" * 5000],
            ["boost", "--set", "beta=0.0"],
            ["doubleslit-fringes", "--set", "D=-50.0"],
            ["doubleslit-fringes", "--set", "D=0.0"],
            ["doubleslit-fringes", "--set", "D=1e12"],
            ["doubleslit-traj", "--set", "starts=[[1e308,0.0]]"],
            ["doubleslit-traj", "--set", "starts=[[-1.0,0.0]]"],
            ["doubleslit-map", "--set", "x_span=-1.0"],
            ["doubleslit-map", "--set", "y_span=0.0"],
            ["box-beat", "--set", "probe=0.0295"],
            ["box-beat", "--set", "probe=1e-10"],
            ["boost", "--set", "omega0=1e308"],
            ["box-states", "--set", "v=0.9", "--set", "n_positions=60"],
            ["box-states", "--set", "v=0.99"],
            ["box-states", "--set", "W=1000.0"],
            ["box-states", "--set", "omega0=10000.0"],
            ["doubleslit-map", "--set", "x_span=1e300", "--set", "nx=3", "--set", "ny=3"],
            ["doubleslit-map", "--set", "wavelength=0.0"],
            ["boost", "--set", "omega0=1e-320"],
            ["boost", "--set", "omega0=1e300"],
            ["box-beat", "--set", "omega0=1.7e308"],
            ["box-states", "--set", "W=1.7e308"],
            ["box-states", "--set", "v=1e-320"],
            ["box-quantize", "--set", "W=1e300"],
            ["box-quantize", "--set", "omega0=1e300"],
            ["box-quantize", "--set", "W=10000.0"],
            ["box-states", "--set", "v=1e-9"],
            ["box-states", "--set", "L=1e-14"],
            ["boost", "--set", "beta=0.995"],
            ["boost", "--set", "beta=-0.9999"],
            ["doubleslit-traj", "--set", "d=1e-170", "--set", "starts=[[2e-169,0]]"],
            ["doubleslit-traj", "--set", "d=1e300", "--set", "starts=[[2e301,0]]"],
            ["doubleslit-map", "--set", "d=1e-300", "--set", "nx=3", "--set", "ny=3"],
            ["doubleslit-fringes", "--set", "d=5e-324"],
            ["doubleslit-fringes", "--set", "wavelength=1.7e308"],
            ["box-beat", "--set", "v=0.9999"],
            ["doubleslit-fringes", "--set", "wavelength=0.4"],
            ["doubleslit-fringes", "--set", "wavelength=1.0"],
            ["doubleslit-fringes", "--set", "d=1e-20"],
            ["doubleslit-fringes", "--set", "wavelength=0.225"],
            ["box-beat", "--set", "omega0=1e17"],
            ["box-beat", "--set", "omega0=1e20"],
            ["box-beat", "--set", "W=2000.0"],
            ["doubleslit-map", "--set", "wavelength=1.0004"],
            ["doubleslit-fringes", "--set", "D=0.9"],
            ["doubleslit-fringes", "--set", "screen=line", "--set", "wavelength=0.15"],
            # Counts past 2**53, on which numpy fails with ValueError or IndexError
            ["doubleslit-map", "--set", f"nx={2**60}"],
            ["doubleslit-map", "--set", f"ny={2**63 - 1}"],
            ["doubleslit-map", "--set", f"nx={10**30}"],
            ["box-states", "--set", f"n_positions={2**60}"],
            ["box-states", "--set", f"n_positions={2**63 - 1}"],
            ["box-states", "--set", f"n_positions={10**30}"],
            ["doubleslit-traj", "--set", f"max_steps={10**30}"],
            ["boost", "--set", "foo"],
            ["doubleslit-traj", "--set", "wavelength=0.05"],
        ],
    )
    def test_mistyped_override_exit_2(self, argv, tmp_path, capsys):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_integer_bound_spares_float_parameters(self, tmp_path):
        # d takes a float; an integer past 2**53 is still a valid separation.
        argv = ["doubleslit-map", "--set", f"d={2**53 + 1}", "--set", "nx=3", "--set", "ny=3"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize(
        "content",
        [b"5", b'[["beta", 0.3]]', b"null", b'{"beta": 0.3', b"\xff\xfe{}",
         b'{"beta": ' + b"1" * 5000 + b"}"],
    )
    def test_bad_config_file_exit_2(self, content, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert cli.main(["boost", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

    def test_module_run_is_warning_free(self, tmp_path):
        proc = _run_python("-W", "error::RuntimeWarning", "-m", "qmasslab.cli",
                           "boost", "--out", str(tmp_path))
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("argv", [["boost"], ["box-beat", "--set", "v=0.02"]])
    def test_entry_point_runs_with_scipy_unimportable(self, argv, tmp_path):
        code = (
            "import sys; sys.modules['scipy'] = None; from qmasslab.cli import main; "
            f"sys.exit(main({argv + ['--out', str(tmp_path)]!r}))"
        )
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr

    def test_import_loads_no_scipy(self):
        code = (
            "import sys, qmasslab, qmasslab.cli; "
            "print(sorted(k for k in sys.modules if k.startswith('scipy')))"
        )
        proc = _run_python("-c", code)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_measurement_error_exit_3(self, tmp_path, monkeypatch, capsys):
        # A QmassError that is not bad input, here the tone oracle's.
        def measure_tone_pair(field, x, beat):
            raise InsufficientSpanError("series holds fewer than 2 tones")

        monkeypatch.setattr(wavecore, "measure_tone_pair", measure_tone_pair)
        assert cli.main(["boost", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err == "qmass-lab: boost: series holds fewer than 2 tones\n"

    def test_short_run_near_the_slits_is_gated(self, tmp_path, capsys):
        # 10 steps from r = 2d stay far inside the domain; the flux invariant
        # needs no far field, so the run is gated and written.
        argv = ["doubleslit-traj", "--set", "starts=[[2.0,0.5]]", "--set", "max_steps=10"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 0
        assert "PASS streamline_invariant_drift" in capsys.readouterr().out
        assert (tmp_path / "summary.json").is_file()
        assert [p.name for p in tmp_path.glob("trajectory_*.csv")] == ["trajectory_000.csv"]

    @pytest.mark.parametrize("start", ["[[100.0,0.5]]", "[[0,0]]", "[[25,0],[0.0005,0.2]]"])
    def test_start_outside_domain_exit_2(self, start, tmp_path, capsys):
        argv = ["doubleslit-traj", "--set", f"starts={start}"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert "lies outside 0.001 <= x <= 50, |y| <= 50" in capsys.readouterr().err
        assert not list(tmp_path.glob("trajectory_*.csv"))

    def test_grid_too_large_for_memory_exit_2(self, tmp_path, monkeypatch, capsys):
        # The grid itself is streamed; the first map that runs out of memory
        # here is the gate's 500-point axis.
        def mass_map(cfg, x, y):
            raise MemoryError(f"Unable to allocate a ({len(x)}, {len(y)}) grid")

        monkeypatch.setattr(doubleslit, "mass_map", mass_map)
        argv = ["doubleslit-map", "--set", "nx=100000", "--set", "ny=100000"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "does not fit in memory" in err
        assert "(500, 1)" in err
        assert not (tmp_path / "mass_map.csv").exists()

    @pytest.mark.parametrize("ny", [2, 4, 200, 201])
    def test_map_grid_maximum_at_any_ny(self, ny, tmp_path):
        # An even ny has no y = 0 row; the slit-plane gate reads its own column.
        assert cli.main(["doubleslit-map", "--set", f"ny={ny}", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        gate = {m["name"]: m for m in doc["metrics"]}["slit_plane_mass"]
        assert gate["measured"] <= 1e-6
        values = np.loadtxt(tmp_path / "mass_map.csv", delimiter=",", skiprows=1)[:, 2]
        omega = 2 * math.pi / 0.05
        assert np.nanmax(values) <= omega
        if ny % 2:
            # The y = 0 row holds the midpoint, whose mass is omega.
            assert np.nanmax(values) == omega

    def test_map_thin_row_far_off_axis_passes(self, tmp_path):
        # Both grid rows lie ~28d off the axis, where m/omega peaks at ~3e-5.
        argv = ["doubleslit-map", "--set", "nx=20", "--set", "ny=2",
                "--set", "x_span=0.052460200503873504", "--set", "y_span=27.98721296838158",
                "--set", "wavelength=0.04303877525650084", "--out", str(tmp_path)]
        assert cli.main(argv) == 0

    def test_fringes_far_screen_below_phase_cap_passes(self, tmp_path):
        # omega*D = 6.3e11 at the default wavelength, below MAX_SCREEN_PHASE = 1e12.
        assert cli.main(["doubleslit-fringes", "--set", "D=1e9", "--out", str(tmp_path)]) == 0

    @pytest.mark.parametrize("overrides", [
        ["wavelength=0.22"],
        ["screen=line", "wavelength=0.05"],
        ["D=1.0"],
    ], ids=["arc-wide-angle", "line-wide-angle", "arc-near-screen"])
    def test_fringes_pass_outside_far_field(self, overrides, tmp_path):
        # D*lambda/d misses these by 2.2e-1, 2.0e-2 and 3.1e-2 at d = 0.5.
        argv = ["doubleslit-fringes", "--out", str(tmp_path)]
        for item in overrides:
            argv += ["--set", item]
        assert cli.main(argv) == 0

    def test_fringe_gate_fails_on_far_field_prediction(self, tmp_path, monkeypatch):
        # The look-alike D*lambda/d misses the near screen D = 2d by 3.1e-2.
        monkeypatch.setattr(doubleslit, "fringe_gap_predicted",
                            lambda cfg, D, screen="arc": D * cfg.wavelength / cfg.d)
        argv = ["doubleslit-fringes", "--set", "D=1.0", "--out", str(tmp_path)]
        assert cli.main(argv) == 1

    def test_success_exit_code(self, tmp_path, capsys):
        code = cli.main(["boost", "--out", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS boost" in out
        assert out.count("PASS") >= 4  # three metrics plus the final line

    def test_override_flag(self, tmp_path):
        code = cli.main(["boost", "--out", str(tmp_path), "--set", "beta=0.3"])
        assert code == 0
        doc = json.loads((tmp_path / "summary.json").read_text())
        assert doc["params"]["beta"] == 0.3

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"beta": 0.5}))
        assert cli.main(["boost", "--config", str(cfg), "--out", str(tmp_path)]) == 0

    def test_bad_parameter_exit_2(self, tmp_path, capsys):
        code = cli.main(["boost", "--out", str(tmp_path), "--set", "beta=1.2"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_missing_config_exit_2(self, tmp_path):
        code = cli.main(
            ["boost", "--config", str(tmp_path / "absent.json"), "--out", str(tmp_path)]
        )
        assert code == 2

    def test_unknown_scenario_usage_error(self, tmp_path):
        assert cli.main(["nonsense", "--out", str(tmp_path)]) == 2

    @pytest.mark.skipif(
        shutil.which("qmass-lab") is None, reason="entry point not on PATH"
    )
    def test_installed_entry_point(self, tmp_path):
        proc = subprocess.run(
            ["qmass-lab", "box-quantize", "--out", str(tmp_path), "--set", "n_max=2"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert "PASS box-quantize" in proc.stdout
