"""Scenario orchestration: configuration, pipelines, deterministic export.

Each scenario maps a parameter block onto one physics pipeline and emits
plot-ready CSV files plus a JSON summary of predicted-vs-measured metrics.
Data files are byte-identical across repeated runs; wall-clock timing is
isolated in the summary.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import boxwell, doubleslit, qmass, wavecore
from .errors import InsufficientSpanError, InvalidConfigError, QmassError

SCHEMA_VERSION = 1

DEFAULTS: dict[str, dict] = {
    "boost": {"omega0": 1.0, "beta": 0.6},
    "doubleslit-map": {
        "d": 1.0, "wavelength": 0.05, "nx": 201, "ny": 201,
        "x_span": 5.0, "y_span": 2.5,
    },
    "doubleslit-traj": {
        "d": 1.0, "wavelength": 0.05,
        "starts": [[25.0, 0.0], [17.7, 17.7], [0.01, 0.5]],
        "max_steps": 2000,
    },
    "doubleslit-fringes": {"d": 0.5, "wavelength": 0.01, "D": 50.0, "screen": "arc"},
    "box-beat": {"W": 1.0, "omega0": 100.0, "v": 0.0627080, "probe": 0.275},
    "box-states": {"W": 1.0, "L": 0.1, "omega0": 100.0, "v": 0.0627080, "n_positions": 160},
    "box-quantize": {"W": 1.0, "omega0": 100.0, "n_max": 5},
}

#: ``boxwell.quantize`` solves its own speed for each mode and reads only W and
#: omega0 of its config; this speed only has to pass ``BoxConfig``'s range check.
_QUANTIZE_CONFIG_SPEED = 0.05

#: Radius, in slit separations, beyond which a streamline must run radially.
_FAR_FIELD_RADIUS = 20.0

#: Rows of a CSV formatted per write; bounds the text held in memory.
_CSV_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class Metric:
    """One predicted-vs-measured comparison with its tolerance."""

    name: str
    predicted: float
    measured: float
    tolerance: float
    source: str  # "formula" or "oracle"

    def __post_init__(self):
        _require(0 <= self.tolerance < 1,
                 f"metric {self.name}: tolerance must be in [0, 1), got {self.tolerance}")
        if not (math.isfinite(self.predicted) and math.isfinite(self.measured)):
            raise QmassError(f"metric {self.name}: non-finite predicted {self.predicted} "
                             f"or measured {self.measured}")

    @property
    def rel_error(self) -> float:
        if self.predicted == 0.0:
            return float(abs(self.measured))
        return float(abs(self.measured - self.predicted) / abs(self.predicted))

    @property
    def passed(self) -> bool:
        return bool(self.rel_error <= self.tolerance)


@dataclass
class RunSummary:
    """Outcome of one scenario run."""

    kind: str
    params: dict
    metrics: list[Metric] = field(default_factory=list)
    files: list[str] = field(default_factory=list)
    duration_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(m.passed for m in self.metrics)


def _write_csv(path: Path, header: str, *columns) -> None:
    """CSV of equal-length columns, every value with 17 significant digits.

    Rows are formatted ``_CSV_BLOCK_ROWS`` at a time by one ``%`` call over
    plain Python floats, so no text copy of the whole table is held in memory.
    """
    table = np.column_stack(columns)
    line = ",".join(["%.17g"] * table.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for start in range(0, len(table), _CSV_BLOCK_ROWS):
            block = table[start:start + _CSV_BLOCK_ROWS]
            fh.write(line * len(block) % tuple(block.ravel().tolist()))


def export_series(x, values, path: Path, header: str = "x,value") -> None:
    """Two-column CSV with fixed 17-significant-digit formatting."""
    _write_csv(path, header, x, values)


def export_grid(x, y, values, path: Path) -> None:
    """Row-major x,y,value CSV of a rectangular grid (values[i, j] at x[i], y[j])."""
    _write_csv(path, "x,y,value", np.repeat(x, len(y)), np.tile(y, len(x)), np.ravel(values))


def export_summary(summary: RunSummary, path: Path) -> None:
    """Stable-ordered JSON summary; optional metrics are omitted, never null."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "scenario": summary.kind,
        "params": summary.params,
        "metrics": [
            {
                "name": m.name,
                "predicted": m.predicted,
                "measured": m.measured,
                "rel_error": m.rel_error,
                "tolerance": m.tolerance,
                "source": m.source,
                "pass": m.passed,
            }
            for m in summary.metrics
        ],
        "files": summary.files,
        "pass": summary.passed,
        "duration_s": summary.duration_s,
    }
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise InvalidConfigError(message)


def _run_boost(params: dict, out: Path, summary: RunSummary) -> None:
    omega0, beta = params["omega0"], params["beta"]
    _require(omega0 > 0, f"omega0 must be positive, got {omega0}")
    _require(abs(beta) < 1, f"|beta| must be < 1, got {beta}")
    b = wavecore.boost_standing_wave(omega0, beta)
    state = qmass.mass_state_of(b)
    x = wavecore.envelope_sampling_grid(b)
    snapshot = wavecore.evaluate(wavecore.superposition_of(b), x, 0.3)
    measured_lam = wavecore.measure_envelope_wavelength(x, snapshot)
    summary.metrics += [
        Metric("quantum_rest_mass", math.sqrt(b.omega_plus * b.omega_minus),
               state.m, 1e-12, "formula"),
        Metric("group_speed", abs(beta), state.v, 1e-12, "formula"),
        Metric("envelope_wavelength",
               qmass.de_broglie_wavelength(state.m, state.v),
               measured_lam, 1e-3, "oracle"),
    ]
    export_series(x, snapshot, out / "field.csv")
    summary.files.append("field.csv")


def _slit_config(params: dict) -> doubleslit.SlitConfig:
    return doubleslit.SlitConfig(d=params["d"], omega=2.0 * math.pi / params["wavelength"])


def _run_doubleslit_fringes(params: dict, out: Path, summary: RunSummary) -> None:
    _require(params["D"] > 0, f"screen distance D must be positive, got {params['D']}")
    cfg = _slit_config(params)
    report = doubleslit.fringe_spacing_measured(cfg, params["D"], screen=params["screen"])
    summary.metrics.append(
        Metric("fringe_spacing", report.predicted, report.measured, 0.01, "oracle")
    )
    export_series(report.s, report.intensity, out / "intensity.csv")
    summary.files.append("intensity.csv")


def _run_doubleslit_map(params: dict, out: Path, summary: RunSummary) -> None:
    _require(min(params["nx"], params["ny"]) >= 2,
             f"nx and ny must be >= 2, got {params['nx']} and {params['ny']}")
    _require(min(params["x_span"], params["y_span"]) > 0,
             f"x_span and y_span must be positive, got {params['x_span']} and {params['y_span']}")
    cfg = _slit_config(params)
    x = np.linspace(0.0, params["x_span"] * cfg.d, params["nx"])
    y = np.linspace(-params["y_span"] * cfg.d, params["y_span"] * cfg.d, params["ny"])
    m = doubleslit.mass_map(cfg, x, y)
    midpoint_mass = doubleslit.weighted_local_state((0.0, 0.0), cfg).m
    axis_x = np.linspace(cfg.d / 100.0, 10.0 * cfg.d, 500)
    axis_m = doubleslit.mass_map(cfg, axis_x, np.array([0.0]))[:, 0]
    _require(np.isfinite(axis_m).all() and np.isfinite(m).any(),
             f"slit exclusion radius {cfg.exclusion_radius:g} covers an axis sample "
             "or the whole grid; lower the wavelength")
    # A step that is not a decrease or flat, NaN included, is a violation.
    increases = int(np.sum(~(np.diff(axis_m) <= 0)))
    summary.metrics += [
        Metric("midpoint_mass", cfg.omega, midpoint_mass, 1e-9, "formula"),
        Metric("grid_maximum", midpoint_mass, float(np.nanmax(m)), 1e-9, "oracle"),
        Metric("axis_monotone_violations", 0.0, float(increases), 0.0, "oracle"),
    ]
    export_grid(x, y, m, out / "mass_map.csv")
    summary.files.append("mass_map.csv")


def _run_doubleslit_traj(params: dict, out: Path, summary: RunSummary) -> None:
    _require(params["max_steps"] >= 1, f"max_steps must be >= 1, got {params['max_steps']}")
    cfg = _slit_config(params)
    for x, y in params["starts"]:
        _require(cfg.x_min <= x <= cfg.x_max and abs(y) <= cfg.y_half,
                 f"start ({x}, {y}) lies outside {cfg.x_min:g} <= x <= {cfg.x_max:g}, "
                 f"|y| <= {cfg.y_half:g}")
    trajectories = [doubleslit.integrate_trajectory(start, cfg, max_steps=params["max_steps"])
                    for start in params["starts"]]
    far_deviations = []
    for traj in trajectories:
        r = np.hypot(traj.points[:, 0], traj.points[:, 1])
        far = r > _FAR_FIELD_RADIUS * cfg.d
        if np.any(far[:-1]):
            steps = np.diff(traj.points, axis=0)
            radial = traj.points[:-1] / r[:-1, None]
            cosang = np.sum(steps * radial, axis=1) / np.hypot(steps[:, 0], steps[:, 1])
            dev = np.arccos(np.clip(cosang, -1.0, 1.0))
            far_deviations.append(float(np.max(dev[far[:-1]])))
    if not far_deviations:
        raise InsufficientSpanError(
            f"no trajectory steps beyond {_FAR_FIELD_RADIUS:g}*d, so the far-field "
            "direction cannot be measured; start farther out or raise max_steps"
        )
    summary.metrics.append(
        Metric("far_field_radial_deviation_rad", 0.0, max(far_deviations), 1e-3, "oracle")
    )
    for i, traj in enumerate(trajectories):
        name = f"trajectory_{i:03d}.csv"
        _write_csv(out / name, "x,y,value", traj.points, traj.times)
        summary.files.append(name)


def _run_box_beat(params: dict, out: Path, summary: RunSummary) -> None:
    W, probe = params["W"], params["probe"]
    _require(0 < probe < W, f"probe must lie inside the well (0, {W}), got {probe}")
    # analyze_beats never reads the cavity length; W/10 passes BoxConfig's check.
    cfg = boxwell.BoxConfig(W=W, L=W / 10.0, omega0=params["omega0"], v=params["v"])
    beats = boxwell.analyze_beats(cfg, probe)
    summary.metrics += [
        Metric("fast_frequency", cfg.omega_bar, beats.fast, 5e-3, "oracle"),
        Metric("slow_frequency", cfg.delta_omega, beats.slow, 5e-3, "oracle"),
    ]
    export_series(beats.times, beats.values, out / "probe_series.csv", header="t,value")
    summary.files.append("probe_series.csv")


def _run_box_states(params: dict, out: Path, summary: RunSummary) -> None:
    _require(params["n_positions"] >= 2,
             f"n_positions must be >= 2, got {params['n_positions']}")
    cfg = boxwell.BoxConfig(
        W=params["W"], L=params["L"], omega0=params["omega0"], v=params["v"]
    )
    trace = boxwell.trace_states_vs_position(cfg, n_positions=params["n_positions"])
    p = qmass.four_momentum_of(wavecore.boost_standing_wave(cfg.omega0, cfg.v)).p
    modulus = trace.a_cos**2 + trace.a_sin**2
    flatness = float(np.max(modulus) / np.min(modulus) - 1.0)
    summary.metrics += [
        Metric("envelope_wavenumber", p, trace.envelope_wavenumber, 5e-3, "oracle"),
        Metric("helix_modulus_flatness", 0.0, flatness, 0.02, "oracle"),
    ]
    export_series(trace.x, trace.a_cos, out / "cosine_state.csv")
    export_series(trace.x, trace.a_sin, out / "sine_state.csv")
    summary.files += ["cosine_state.csv", "sine_state.csv"]


def _run_box_quantize(params: dict, out: Path, summary: RunSummary) -> None:
    W, omega0, n_max = params["W"], params["omega0"], params["n_max"]
    _require(W > 0, f"W must be positive, got {W}")
    # Beyond p = n*pi/W = omega0 the energy gate's tolerance (p/m)**2 reaches 1.
    _require(n_max * math.pi / W < omega0,
             f"n_max*pi/W must be below omega0 = {omega0}, got {n_max * math.pi / W}")
    cfg = boxwell.BoxConfig(W=W, L=W / 10.0, omega0=omega0, v=_QUANTIZE_CONFIG_SPEED)
    reports = boxwell.quantize(cfg, n_max)
    x = np.linspace(0.0, cfg.W, 513)
    for rep in reports:
        # Exact relativistic kinetic energy sqrt(m**2 + p**2) - m of p = n*pi/W,
        # m = omega0, written without cancellation.
        x2 = (rep.p_schrodinger / cfg.omega0) ** 2
        exact = cfg.omega0 * x2 / (math.sqrt(1.0 + x2) + 1.0)
        summary.metrics += [
            Metric(f"momentum_n{rep.n}", rep.p_schrodinger, rep.p_n, 1e-9, "formula"),
            Metric(
                f"energy_n{rep.n}", rep.schrodinger_energy, rep.kinetic_energy,
                (rep.p_n / cfg.omega0) ** 2, "formula",
            ),
            Metric(f"kinetic_energy_n{rep.n}", exact, rep.kinetic_energy, 1e-7, "formula"),
        ]
        name = f"envelope_n{rep.n}.csv"
        export_series(x, boxwell.quantized_envelope(rep.p_n, x), out / name)
        summary.files.append(name)


_RUNNERS = {
    "boost": _run_boost,
    "doubleslit-map": _run_doubleslit_map,
    "doubleslit-traj": _run_doubleslit_traj,
    "doubleslit-fringes": _run_doubleslit_fringes,
    "box-beat": _run_box_beat,
    "box-states": _run_box_states,
    "box-quantize": _run_box_quantize,
}

SCENARIOS = tuple(_RUNNERS)


def _number(value):
    """``value`` as a Python int or float if it is a finite real number, else None."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        return None
    value = int(value) if isinstance(value, numbers.Integral) else float(value)
    return value if abs(value) <= sys.float_info.max else None


def _as_list(value):
    """``value`` as a list if it is a sequence or array other than a string, else None."""
    value = value.tolist() if isinstance(value, np.ndarray) else value
    ok = isinstance(value, Sequence) and not isinstance(value, (str, bytes))
    return list(value) if ok else None


def _points(value):
    """``value`` as a non-empty list of [x, y] number pairs, else None."""
    rows = [_as_list(row) for row in _as_list(value) or ()]
    if not rows or any(row is None or len(row) != 2 for row in rows):
        return None
    points = [[_number(a), _number(b)] for a, b in rows]
    return None if any(c is None for p in points for c in p) else points


def _coerce(key: str, value, default):
    """``value`` converted to the type of ``default``; InvalidConfigError if it has another."""
    if isinstance(default, list):
        coerced = _points(value)
    elif isinstance(default, str):
        coerced = value if isinstance(value, str) else None
    else:
        coerced = _number(value)
        if isinstance(default, int) and not isinstance(coerced, int):
            coerced = None
    _require(coerced is not None,
             f"parameter {key} must be of the type of its default {default!r}, "
             f"got {value!r}")
    return coerced


def run(kind: str, params: dict | None = None, out_dir=".") -> RunSummary:
    """Execute one scenario pipeline and write its data files and summary."""
    if kind not in _RUNNERS:
        raise InvalidConfigError(f"unknown scenario {kind!r}; choose from {SCENARIOS}")
    defaults, params = DEFAULTS[kind], params or {}
    unknown = set(params) - set(defaults)
    if unknown:
        raise InvalidConfigError(f"unknown parameter(s) for {kind}: {sorted(unknown)}")
    merged = dict(defaults)
    for key, value in params.items():
        merged[key] = _coerce(key, value, defaults[key])
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = RunSummary(kind=kind, params=merged)
    start = time.perf_counter()
    _RUNNERS[kind](merged, out, summary)
    summary.duration_s = time.perf_counter() - start
    export_summary(summary, out / "summary.json")
    return summary
