"""Acceptance gate: one test per headline capability, each printing a
pass/fail line (visible with ``pytest -s`` or on failure).

Where a scenario gates the same quantity, the tolerance is that gate's, read
from a run at the scenario's defaults.
"""

import math

import numpy as np
import pytest

from qmasslab import boxwell as bw
from qmasslab import cli
from qmasslab import doubleslit as ds
from qmasslab import qmass as qm
from qmasslab import scenarios
from qmasslab import wavecore as wc


@pytest.fixture(scope="module")
def gates(tmp_path_factory):
    """Each scenario's metric tolerances by name, from a run at its defaults."""
    out = tmp_path_factory.mktemp("defaults")
    return {kind: {m.name: m.tolerance for m in scenarios.run(kind, {}, out / kind).metrics}
            for kind in scenarios.SCENARIOS}


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_superluminal_envelope_wavelength(gates):
    # Solved as the boost runner solves it, on every 16th point of the grid.
    stride = scenarios._ENVELOPE_SOLVE_STRIDE
    tol = gates["boost"]["envelope_wavelength"]
    worst = 0.0
    for beta in (0.1, 0.3, 0.6, 0.9):
        b = wc.boost_standing_wave(1.0, beta)
        state = qm.mass_state_of(b)
        predicted = qm.de_broglie_wavelength(state.m, state.v)
        x = wc.envelope_sampling_grid(b)
        snap = wc.evaluate(wc.superposition_of(b), x, 0.3)
        measured = wc.measure_envelope_wavelength(x[::stride], snap[::stride])
        worst = max(worst, abs(measured - predicted) / predicted)
    _report(
        "superluminal envelope wavelength",
        worst < tol,
        f"worst rel error {worst:.3g} (tol {tol:g}) over beta sweep",
    )


def test_02_mass_invariance_under_boosts():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(1000):
        om = np.sort(rng.uniform(1e-2, 10.0, 2))
        P = qm.four_momentum_of(qm.BidirectionalWave(om[1], om[0]))
        m_closed = math.sqrt(om[0] * om[1])
        for beta in (-0.9, -0.4, 0.0, 0.4, 0.9):
            m = qm.invariant_mass(qm.boost_four_momentum(P, beta))
            worst = max(worst, abs(m - m_closed) / m_closed)
    _report(
        "mass invariance",
        worst < 1e-12,
        f"worst rel deviation {worst:.3g} (tol 1e-12), 1000 waves x 5 boosts",
    )


def test_03_standing_wave_rest_case():
    state = qm.mass_state_of(qm.BidirectionalWave(2.0, 2.0))
    ok = state.m == 2.0 and state.v == 0.0
    _report("standing-wave rest case", ok, f"(m, v) = ({state.m}, {state.v})")


def test_04_fringe_spacing_sweep(gates):
    tol = gates["doubleslit-fringes"]["fringe_spacing"]
    worst = 0.0
    for ratio_D in (50.0, 100.0, 200.0):
        for ratio_lam in (0.01, 0.02, 0.05):
            d = 0.5
            cfg = ds.SlitConfig(d=d, omega=2.0 * math.pi / (ratio_lam * d))
            report = ds.fringe_spacing_measured(cfg, ratio_D * d)
            worst = max(worst, abs(report.measured - report.predicted) / report.predicted)
    _report(
        "double-slit fringe spacing",
        worst < tol,
        f"worst rel error {worst:.3g} (tol {tol:g}) over 3x3 sweep",
    )


def _streamline_flux(points, d):
    """Stokes flux (y - h)/r1 + (y + h)/r2 of two equal charges at (0, +-h), h = d/2."""
    x, y = points.T
    h = d / 2.0
    return (y - h) / np.hypot(x, y - h) + (y + h) / np.hypot(x, y + h)


def test_05_trajectory_geometry(gates):
    tol = gates["doubleslit-traj"]["streamline_invariant_drift"]
    cfg = ds.SlitConfig(d=1.0, omega=2.0 * math.pi / 0.05)
    worst_drift = 0.0
    for ang in (0.0, 0.5, -0.7):
        start = 25.0 * np.array([math.cos(ang), math.sin(ang)])
        traj = ds.integrate_trajectory(start, cfg, max_steps=500)
        flux = _streamline_flux(traj.points, cfg.d)
        worst_drift = max(worst_drift, float(np.max(np.abs(flux - flux[0]))))
    worst_near = 0.0
    slit = np.array([0.0, 0.5])
    # Every start keeps x >= 1e-3*d, inside the trajectory domain: |ang| <= acos(0.1).
    for ang in (-0.3, -1.0, -1.4):
        start = slit + 0.01 * np.array([math.cos(ang), math.sin(ang)])
        traj = ds.integrate_trajectory(start, cfg, max_steps=4)
        flux = _streamline_flux(traj.points, cfg.d)
        worst_drift = max(worst_drift, float(np.max(np.abs(flux - flux[0]))))
        step = traj.points[1] - traj.points[0]
        radial = (traj.points[0] - slit) / np.hypot(*(traj.points[0] - slit))
        worst_near = max(
            worst_near,
            math.acos(float(np.clip(np.dot(step / np.hypot(*step), radial), -1, 1))),
        )
    ok = worst_drift < tol and worst_near < 1e-2
    _report(
        "trajectory geometry",
        ok,
        f"streamline invariant drift {worst_drift:.3g} (tol {tol:g}), "
        f"near-slit dev {worst_near:.3g} rad (tol 1e-2)",
    )


def test_06_mass_map_structure():
    cfg = ds.SlitConfig(d=1.0, omega=2.0 * math.pi / 0.05)
    midpoint = ds.weighted_local_state((0.0, 0.0), cfg).m
    mid_err = abs(midpoint - cfg.omega) / cfg.omega
    x = np.linspace(0.0, 5.0, 101)
    y = np.linspace(-2.5, 2.5, 101)
    grid_max = float(np.nanmax(ds.mass_map(cfg, x, y)))
    axis_x = np.linspace(cfg.d / 100.0, 10.0, 500)
    axis_m = ds.mass_map(cfg, axis_x, np.array([0.0]))[:, 0]
    increases = int(np.sum(np.diff(axis_m) > 0))
    ok = mid_err < 1e-9 and grid_max <= midpoint * (1 + 1e-9) and increases == 0
    _report(
        "mass map",
        ok,
        f"midpoint rel error {mid_err:.3g} (tol 1e-9), "
        f"grid max/midpoint-1 = {grid_max / midpoint - 1:.3g}, "
        f"axis increases {increases}",
    )


def test_07_box_beat_frequencies(gates):
    tol_fast, tol_slow = (gates["box-beat"][name] for name in ("fast_frequency", "slow_frequency"))
    worst_fast = worst_slow = 0.0
    for v in (0.02, 0.0627080, 0.15):
        cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=v)
        out = bw.analyze_beats(cfg, probe=0.275)
        worst_fast = max(worst_fast, abs(out.fast - cfg.omega_bar) / cfg.omega_bar)
        worst_slow = max(worst_slow, abs(out.slow - cfg.delta_omega) / cfg.delta_omega)
    _report(
        "box beat frequencies",
        worst_fast < tol_fast and worst_slow < tol_slow,
        f"worst rel error fast {worst_fast:.3g} (tol {tol_fast:g}), "
        f"slow {worst_slow:.3g} (tol {tol_slow:g}) over three speeds",
    )


def test_08_de_broglie_envelope_trace(gates):
    tol_k, tol_flat = (gates["box-states"][name]
                       for name in ("envelope_wavenumber", "helix_modulus_flatness"))
    v = bw.speed_for_mode(bw.Well(W=1.0, omega0=100.0), 2)
    cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=v)
    trace = bw.trace_states_vs_position(cfg)
    p = qm.four_momentum_of(wc.boost_standing_wave(cfg.omega0, cfg.v)).p
    k_err = abs(trace.envelope_wavenumber - p) / p
    modulus = trace.a_cos**2 + trace.a_sin**2
    flatness = float(np.max(modulus) / np.min(modulus) - 1.0)
    ok = k_err < tol_k and flatness < tol_flat
    _report(
        "de Broglie envelope trace",
        ok,
        f"wavenumber rel error {k_err:.3g} (tol {tol_k:g}), "
        f"helix modulus flatness {flatness:.3g} (tol {tol_flat:g})",
    )


def test_09_well_quantization(gates):
    tol_k = gates["box-quantize"]["momentum_n1"]
    cfg = bw.Well(W=1.0, omega0=100.0)
    worst_k = worst_wall = 0.0
    energy_ok = True
    for rep in bw.quantize(cfg, 5):
        worst_k = max(
            worst_k,
            abs(rep.p_n - rep.n * math.pi / cfg.W) / (rep.n * math.pi / cfg.W),
        )
        worst_wall = max(
            worst_wall,
            abs(bw.quantized_envelope(rep.p_n, 0.0)),
            abs(bw.quantized_envelope(rep.p_n, cfg.W)),
        )
        discrepancy = abs(rep.kinetic_energy - rep.schrodinger_energy) / rep.schrodinger_energy
        energy_ok &= discrepancy < (rep.p_n / cfg.omega0) ** 2
    ok = worst_k < tol_k and worst_wall < 1e-9 and energy_ok
    _report(
        "well quantization",
        ok,
        f"wavenumber rel error {worst_k:.3g} (tol {tol_k:g}), "
        f"wall residual {worst_wall:.3g} (tol 1e-9), "
        f"energies within relativistic bound: {energy_ok}",
    )


def test_10_wave_equation_residual():
    fields = [
        wc.superposition_of(wc.boost_standing_wave(1.0, 0.6)),
        bw.build_field(bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=0.05)),
    ]
    # 15x the worst residual of a correct field over the boost and box-beat
    # ranges (6.5e-12); tests/test_wavecore.py's _RESIDUAL_BOUND records the sweep.
    tol = 1e-10
    worst = 0.0
    for s in fields:
        omega_max = max(w.omega for w in s.waves)
        span = 40.0 * math.pi / omega_max
        x, t = wc.sample_grid(omega_max, (0.0, span), (0.0, span))
        worst = max(worst, wc.wave_equation_residual(s, x, t))
    bad = wc.Superposition((wc.PlaneWave(2.0, (0.8, 0.6)),))
    x, t = wc.sample_grid(2.0, (0.0, 30.0), (0.0, 30.0))
    control = wc.wave_equation_residual(bad, x, t)
    ok = worst <= tol and control > 1e-1
    _report(
        "wave-equation residual",
        ok,
        f"worst residual {worst:.3g} (tol {tol:g}), corrupted control {control:.3g} (>0.1)",
    )


def test_11_deterministic_cli_runs(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["box-beat", "--out", str(a)]) == 0
    assert cli.main(["box-beat", "--out", str(b)]) == 0
    capsys.readouterr()
    names = ["probe_series.csv", "summary.json"]
    identical = all(
        (a / n).read_bytes() == (b / n).read_bytes() for n in names[:-1]
    )
    _report(
        "deterministic exports",
        identical,
        "repeated CLI runs produce byte-identical data files",
    )
