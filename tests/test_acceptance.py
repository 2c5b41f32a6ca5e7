"""Acceptance gate: one test per headline capability, each printing a
pass/fail line (visible with ``pytest -s`` or on failure)."""

import math

import numpy as np
import pytest

from qmasslab import boxwell as bw
from qmasslab import cli
from qmasslab import doubleslit as ds
from qmasslab import qmass as qm
from qmasslab import wavecore as wc


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_01_superluminal_envelope_wavelength():
    worst = 0.0
    for beta in (0.1, 0.3, 0.6, 0.9):
        b = wc.boost_standing_wave(1.0, beta)
        state = qm.mass_state_of(b)
        predicted = qm.de_broglie_wavelength(state.m, state.v)
        x = wc.envelope_sampling_grid(b)
        snap = wc.evaluate(wc.superposition_of(b), x, 0.3)
        measured = wc.measure_envelope_wavelength(x, snap)
        worst = max(worst, abs(measured - predicted) / predicted)
    _report(
        "superluminal envelope wavelength",
        worst < 1e-3,
        f"worst rel error {worst:.3g} (tol 1e-3) over beta sweep",
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


def test_04_fringe_spacing_sweep():
    worst = 0.0
    for ratio_D in (50.0, 100.0, 200.0):
        for ratio_lam in (0.01, 0.02, 0.05):
            d = 0.5
            cfg = ds.SlitConfig(d=d, omega=2.0 * math.pi / (ratio_lam * d))
            report = ds.fringe_spacing_measured(cfg, ratio_D * d)
            worst = max(worst, abs(report.measured - report.predicted) / report.predicted)
    _report(
        "double-slit fringe spacing",
        worst < 0.01,
        f"worst rel error {worst:.3g} (tol 0.01) over 3x3 sweep",
    )


def test_05_trajectory_geometry():
    cfg = ds.SlitConfig(d=1.0, omega=2.0 * math.pi / 0.05)
    worst_far = 0.0
    for ang in (0.0, 0.5, -0.7):
        start = 25.0 * np.array([math.cos(ang), math.sin(ang)])
        traj = ds.integrate_trajectory(start, cfg, max_steps=500)
        steps = np.diff(traj.points, axis=0)
        r = np.hypot(*traj.points[:-1].T)
        keep = r > 20.0
        radial = traj.points[:-1] / r[:, None]
        cosang = np.sum(steps * radial, axis=1) / np.hypot(*steps.T)
        dev = np.arccos(np.clip(cosang, -1.0, 1.0))
        worst_far = max(worst_far, float(np.max(dev[keep])))
    worst_near = 0.0
    slit = np.array([0.0, 0.5])
    for ang in (-0.3, -1.0, -2.0):
        start = slit + 0.01 * np.array([math.cos(ang), math.sin(ang)])
        traj = ds.integrate_trajectory(start, cfg, max_steps=4)
        step = traj.points[1] - traj.points[0]
        radial = (traj.points[0] - slit) / np.hypot(*(traj.points[0] - slit))
        worst_near = max(
            worst_near,
            math.acos(float(np.clip(np.dot(step / np.hypot(*step), radial), -1, 1))),
        )
    ok = worst_far < 1e-3 and worst_near < 1e-2
    _report(
        "trajectory geometry",
        ok,
        f"far-field dev {worst_far:.3g} rad (tol 1e-3), "
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


def test_07_box_beat_frequencies():
    worst = 0.0
    for v in (0.02, 0.0627080, 0.15):
        cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=v)
        out = bw.analyze_beats(cfg, probe=0.275)
        worst = max(
            worst,
            abs(out.fast - cfg.omega_bar) / cfg.omega_bar,
            abs(out.slow - cfg.delta_omega) / cfg.delta_omega,
        )
    _report(
        "box beat frequencies",
        worst < 5e-4,
        f"worst rel error {worst:.3g} (tol 5e-4) over three speeds",
    )


def test_08_de_broglie_envelope_trace():
    v = bw.speed_for_mode(bw.Well(W=1.0, omega0=100.0), 2)
    cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=v)
    trace = bw.trace_states_vs_position(cfg)
    p = qm.four_momentum_of(wc.boost_standing_wave(cfg.omega0, cfg.v)).p
    k_err = abs(trace.envelope_wavenumber - p) / p
    modulus = trace.a_cos**2 + trace.a_sin**2
    flatness = float(np.max(modulus) / np.min(modulus) - 1.0)
    ok = k_err < 5e-3 and flatness < 0.02
    _report(
        "de Broglie envelope trace",
        ok,
        f"wavenumber rel error {k_err:.3g} (tol 5e-3), "
        f"helix modulus flatness {flatness:.3g} (tol 0.02)",
    )


def test_09_well_quantization():
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
    ok = worst_k < 1e-9 and worst_wall < 1e-9 and energy_ok
    _report(
        "well quantization",
        ok,
        f"wavenumber rel error {worst_k:.3g} (tol 1e-9), "
        f"wall residual {worst_wall:.3g} (tol 1e-9), "
        f"energies within relativistic bound: {energy_ok}",
    )


def test_10_wave_equation_residual():
    fields = [
        wc.superposition_of(wc.boost_standing_wave(1.0, 0.6)),
        bw.build_field(bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=0.05)),
    ]
    worst = 0.0
    for s in fields:
        omega_max = max(w.omega for w in s.waves)
        span = 40.0 * math.pi / omega_max
        x, t = wc.sample_grid(omega_max, (0.0, span), (0.0, span))
        worst = max(worst, wc.wave_equation_residual(s, x, t))
    bad = wc.Superposition((wc.PlaneWave(2.0, (0.8, 0.6)),))
    x, t = wc.sample_grid(2.0, (0.0, 30.0), (0.0, 30.0))
    control = wc.wave_equation_residual(bad, x, t)
    ok = worst <= 1e-3 and control > 1e-1
    _report(
        "wave-equation residual",
        ok,
        f"worst residual {worst:.3g} (tol 1e-3), corrupted control {control:.3g} (>0.1)",
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
