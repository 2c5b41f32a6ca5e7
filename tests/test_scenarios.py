import dataclasses
import json
import math
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qmasslab import boxwell, cli, doubleslit, scenarios
from qmasslab.errors import InvalidConfigError, QmassError

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
    scenarios.export_grid([0.0, 1.0], [2.0, 3.0], [[4.0, 5.0], [6.0, 7.0]], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "x,y,value"
    assert len(lines) == 5
    assert lines[1] == "0,2,4"
    assert lines[4] == "1,3,7"


def _format_17g(v) -> str:
    # The per-value formatter the CSV writers used before np.savetxt: the reference.
    return format(float(v), ".17g")


def _float_arrays(size):
    return hnp.arrays(np.float64, size, elements=st.floats(allow_subnormal=True))


SPECIALS = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, -2.2e-308, 0.1, 1e308])


@settings(deadline=None, max_examples=60)
@given(data=st.data(), n=st.integers(min_value=0, max_value=12))
@example(data=None, n=len(SPECIALS))
def test_export_series_matches_per_value_format(data, n, tmp_path_factory):
    if data is None:
        x, values = SPECIALS, SPECIALS[::-1].copy()
    else:
        x, values = data.draw(_float_arrays(n)), data.draw(_float_arrays(n))
    path = tmp_path_factory.mktemp("series") / "s.csv"
    scenarios.export_series(x, values, path, header="t,value")
    expected = ["t,value"] + [f"{_format_17g(a)},{_format_17g(b)}" for a, b in zip(x, values)]
    assert path.read_text() == "\n".join(expected) + "\n"


@settings(deadline=None, max_examples=60)
@given(data=st.data(), nx=st.integers(0, 5), ny=st.integers(0, 5))
@example(data=None, nx=len(SPECIALS), ny=2)
def test_export_grid_matches_per_value_format(data, nx, ny, tmp_path_factory):
    if data is None:
        x, y = SPECIALS, SPECIALS[:2]
        values = np.stack([SPECIALS[::-1], SPECIALS], axis=1)
    else:
        x, y = data.draw(_float_arrays(nx)), data.draw(_float_arrays(ny))
        values = data.draw(_float_arrays((nx, ny)))
    path = tmp_path_factory.mktemp("grid") / "g.csv"
    scenarios.export_grid(x, y, values, path)
    expected = ["x,y,value"] + [
        f"{_format_17g(xi)},{_format_17g(yj)},{_format_17g(values[i, j])}"
        for i, xi in enumerate(x)
        for j, yj in enumerate(y)
    ]
    assert path.read_text() == "\n".join(expected) + "\n"


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
    failed = {m.name for m in summary.metrics if not m.passed}
    assert {f"kinetic_energy_n{n}" for n in range(1, 6)} <= failed


@pytest.mark.parametrize("params", [{"W": 10.0}, {"omega0": 1000.0}])
def test_energy_gate_passes_at_large_carrier_phase(params, tmp_path):
    # omega0*W = 1000: the Schrodinger-relativistic discrepancy is ~1e-6 of E_sch
    summary = scenarios.run("box-quantize", params, tmp_path)
    assert summary.passed, [m.name for m in summary.metrics if not m.passed]


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


@pytest.mark.parametrize("demo", sorted((ROOT / "demos").glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(demo, tmp_path):
    proc = _run_python(str(demo), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr


# Every metric of every scenario, with overrides that keep each run small.
GATES = {
    "boost": ([], ["quantum_rest_mass", "group_speed", "envelope_wavelength"]),
    "doubleslit-map": (["nx=21", "ny=21"],
                       ["midpoint_mass", "grid_maximum", "axis_monotone_violations"]),
    "doubleslit-traj": (["starts=[[25.0,0.0]]", "max_steps=200"],
                        ["far_field_radial_deviation_rad"]),
    "doubleslit-fringes": ([], ["fringe_spacing"]),
    "box-beat": ([], ["fast_frequency", "slow_frequency"]),
    "box-states": (["n_positions=16"], ["envelope_wavenumber", "helix_modulus_flatness"]),
    "box-quantize": (["n_max=2"], [f"{gate}_n{n}" for n in (1, 2)
                                   for gate in ("momentum", "energy", "kinetic_energy")]),
}


def _assert_only_gate_fails(kind, gate, tmp_path, capsys):
    overrides, gates = GATES[kind]
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
    # Reversed along x, the axis profile rises away from the slits; the grid
    # maximum is unchanged.
    return lambda cfg, x, y: mass_map(cfg, x, y)[::-1]


def _kinked_path(integrate):
    def kinked(start, cfg, max_steps):
        traj = integrate(start, cfg, max_steps=max_steps)
        points = traj.points.copy()
        points[-1, 1] += cfg.d / 100.0  # the last far-field step turns sideways
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
    "axis_monotone_violations": ("doubleslit-map", doubleslit, "mass_map", _rising_axis),
    "far_field_radial_deviation_rad": (
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
            ["doubleslit-traj", "--set", "d=1e-170", "--set", "wavelength=1e-175",
             "--set", "starts=[[2e-169,0]]"],
            ["doubleslit-traj", "--set", "d=1e300", "--set", "starts=[[2e301,0]]"],
            ["doubleslit-map", "--set", "d=1e-300", "--set", "nx=3", "--set", "ny=3"],
            ["doubleslit-fringes", "--set", "d=5e-324"],
            ["doubleslit-fringes", "--set", "wavelength=1.7e308"],
        ],
    )
    def test_mistyped_override_exit_2(self, argv, tmp_path, capsys):
        assert cli.main(argv + ["--out", str(tmp_path)]) == 2
        assert "config error" in capsys.readouterr().err

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

    def test_far_field_gate_without_far_steps_exit_3(self, tmp_path, capsys):
        argv = ["doubleslit-traj", "--set", "starts=[[2.0,0.0]]", "--set", "max_steps=10"]
        assert cli.main(argv + ["--out", str(tmp_path)]) == 3
        assert "far-field" in capsys.readouterr().err
        assert not list(tmp_path.glob("trajectory_*.csv"))

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

    def test_physics_error_exit_3(self, tmp_path, capsys):
        # Near c the slow beat is too slow for the probe series to split the two peaks.
        code = cli.main(["box-beat", "--out", str(tmp_path), "--set", "v=0.9999"])
        assert code == 3
        assert "fewer than two spectral peaks" in capsys.readouterr().err

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
