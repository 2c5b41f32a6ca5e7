"""Ops run inside a workload interpreter, each with the check of its output.

An op's timed part is only the call into qmasslab; its check runs after the
clock stops and returns ``(ok, margin, reason)``, where ``margin`` is the
smallest ``1 - rel_error/tolerance`` over the op's comparisons.
"""

from __future__ import annotations

import contextlib
import io
import math
from pathlib import Path

from checks import check_cli, check_closed_forms, check_exports
from menus import cli_argv
from qmasslab import boxwell, cli, doubleslit, qmass, scenarios, wavecore

#: Relative tolerance on the quantized energies against the exact discrepancy.
ENERGY_EXACT_TOL = 1e-7
#: Wave-equation residual tolerance of the package's own acceptance test.
RESIDUAL_TOL = 1e-3


# --- cli-cold (in-process warm-up only; timed ops are fresh interpreters) --

def _run_cli(entry, out: Path) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(cli_argv(entry) + ["--out", str(out)])


def _check_cli(entry, code, out: Path, golden: dict) -> tuple[bool, float, str]:
    return check_cli(code, out, golden.get(entry.id))


# --- pipeline-warm -------------------------------------------------------

def _run_pipeline(entry, out: Path):
    return scenarios.run(entry.target, entry.params, out)


def _check_pipeline(entry, summary, out: Path, golden: dict) -> tuple[bool, float, str]:
    rows = [
        {"name": m.name, "rel_error": m.rel_error, "tolerance": m.tolerance, "pass": m.passed}
        for m in summary.metrics
    ]
    return check_exports(rows, out, golden.get(entry.id))


# --- oracle-warm ---------------------------------------------------------
# Natural units throughout (c = hbar = 1, h = 2*pi), as the package defaults.

def _gamma(beta: float) -> float:
    return 1.0 / math.sqrt(1.0 - beta * beta)


def _boost(omega0, beta):
    b = wavecore.boost_standing_wave(omega0, beta)
    state = qmass.mass_state_of(b)
    x = wavecore.envelope_sampling_grid(b)
    snapshot = wavecore.evaluate(wavecore.superposition_of(b), x, 0.3)
    return state, wavecore.measure_envelope_wavelength(x, snapshot)


def _check_boost(result, omega0, beta):
    state, envelope = result
    return [
        ("quantum_rest_mass", state.m, omega0, 1e-12),
        ("group_speed", state.v, abs(beta), 1e-12),
        ("envelope_wavelength", envelope, 2.0 * math.pi / (_gamma(beta) * omega0 * abs(beta)), 1e-3),
    ]


def _box(v):
    return boxwell.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=v)


def _beats(v):
    return boxwell.analyze_beats(_box(v), 0.275)


def _check_beats(result, v):
    g = _gamma(v)
    return [
        ("fast_frequency", result.fast, g * 100.0, 5e-3),
        ("slow_frequency", result.slow, g * 100.0 * v, 5e-3),
    ]


def _fringes(d, wavelength, D, screen):
    cfg = doubleslit.SlitConfig(d=d, omega=2.0 * math.pi / wavelength)
    return doubleslit.fringe_spacing_measured(cfg, D, screen=screen)


def _check_fringes(result, d, wavelength, D, screen):
    return [("fringe_spacing", result.measured, D * wavelength / d, 0.01)]


def _quantize(n_max):
    return boxwell.quantize(_box(0.05), n_max)


def _check_quantize(result, n_max):
    pairs = [("modes", len(result), n_max, 0.0)]
    m = 100.0  # hbar*omega0/c**2
    for rep in result:
        p = rep.n * math.pi  # n*pi*hbar/W with W = 1
        root = math.sqrt(1.0 + (p / m) ** 2)
        # 1 - 2(sqrt(1+x) - 1)/x with x = (p/mc)**2, written without cancellation.
        exact = (root - 1.0) / (root + 1.0)
        measured = (rep.schrodinger_energy - rep.kinetic_energy) / rep.schrodinger_energy
        pairs += [
            (f"momentum_n{rep.n}", rep.p_n, p, 1e-9),
            (f"energy_discrepancy_n{rep.n}", measured, exact, ENERGY_EXACT_TOL),
        ]
    return pairs


def _residual(grid_steps):
    s = wavecore.superposition_of(wavecore.boost_standing_wave(1.0, 0.6))
    omega_max = s.omega_max
    span = grid_steps * 2.0 * math.pi / omega_max / 64
    x, t = wavecore.sample_grid(omega_max, (0.0, span), (0.0, span))
    return wavecore.wave_equation_residual(s, x, t)


def _check_residual(result, grid_steps):
    return [("wave_equation_residual", result, 0.0, RESIDUAL_TOL)]


ORACLES = {
    "boost": (_boost, _check_boost),
    "beats": (_beats, _check_beats),
    "fringes": (_fringes, _check_fringes),
    "quantize": (_quantize, _check_quantize),
    "residual": (_residual, _check_residual),
}


def _run_oracle(entry, out: Path):
    return ORACLES[entry.target][0](**entry.params)


def _check_oracle(entry, result, out: Path, golden: dict) -> tuple[bool, float, str]:
    return check_closed_forms(ORACLES[entry.target][1](result, **entry.params))


#: Per workload: (timed call, check, whether the op writes files into ``out``).
OPS = {
    "cli-cold": (_run_cli, _check_cli, True),
    "pipeline-warm": (_run_pipeline, _check_pipeline, True),
    "oracle-warm": (_run_oracle, _check_oracle, False),
}
