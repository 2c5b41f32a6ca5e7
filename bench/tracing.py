"""Spans recorded from outside qmasslab, around calls into its public functions.

``Tracer.patched()`` replaces each traced function at every module attribute
that callers look it up through, and restores the originals on exit, so an
untraced op runs the unpatched program.  Spans stay in memory and are written
out once, at the end of a process.

A span is ``[name, start, end, parent, op, count]``: ``parent`` is the index of
the enclosing span (-1 for none), ``op`` the benchmark op it belongs to and
``count`` the work it did (points, steps, bytes, ...) or None.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import time
from contextlib import contextmanager


def _size(result, arguments):
    return int(result.size)


def _evaluate_points(result, arguments):
    # Broadcast output size times the number of plane waves summed.
    return int(result.size) * len(arguments["s"].waves)


def _samples(result, arguments):
    return len(arguments["times"])


def _rk4_steps(result, arguments):
    return len(result.points) - 1


def _positions(result, arguments):
    return len(result.x)


def _exported_bytes(result, arguments):
    return os.path.getsize(arguments["path"])


# (module, function, count) for every traced function; span names are
# "<defining module>.<function>".
TRACED = [
    ("wavecore", "evaluate", _evaluate_points),
    ("wavecore", "measure_envelope_wavelength", None),
    ("wavecore", "measure_temporal_frequencies", _samples),
    ("wavecore", "wave_equation_residual", None),
    ("boxwell", "trace_states_vs_position", _positions),
    ("boxwell", "analyze_beats", None),
    ("boxwell", "quantize", None),
    ("doubleslit", "integrate_trajectory", _rk4_steps),
    ("doubleslit", "mass_map", _size),
    ("doubleslit", "fringe_spacing_measured", None),
    ("scenarios", "run", None),
    ("scenarios", "export_series", _exported_bytes),
    ("scenarios", "export_grid", _exported_bytes),
    ("scenarios", "export_summary", None),
    ("qmass", "four_momentum_of", None),
    ("qmass", "invariant_mass", None),
    ("qmass", "group_velocity", None),
    ("qmass", "de_broglie_wavelength", None),
    ("qmass", "boost_four_momentum", None),
    ("qmass", "mass_state_of", None),
]

#: Modules that hold a traced function under a module attribute of their own.
MODULES = ("wavecore", "boxwell", "doubleslit", "scenarios", "qmass", "cli")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = -1

    def _begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._begin(name)
        try:
            yield
        finally:
            self._end(idx)

    def _wrap(self, fn, name, count):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            idx = self._begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._end(idx)
            if count is not None:
                self.spans[idx][5] = count(result, signature.bind(*args, **kwargs).arguments)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self):
        """Trace every function in TRACED wherever a qmasslab module exposes it."""
        modules = [importlib.import_module(f"qmasslab.{m}") for m in MODULES]
        wrappers = {}
        for mod_name, fn_name, count in TRACED:
            fn = getattr(importlib.import_module(f"qmasslab.{mod_name}"), fn_name)
            wrappers[id(fn)] = self._wrap(fn, f"{mod_name}.{fn_name}", count)
        saved = []
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrappers and callable(value):
                    saved.append((mod, attr, value))
                    setattr(mod, attr, wrappers[id(value)])
        try:
            yield
        finally:
            for mod, attr, value in saved:
                setattr(mod, attr, value)

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.spans, fh)


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent, _, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (_, start, end, _, _, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def aggregate(spans) -> dict[str, list]:
    """Per span name: [total seconds, self seconds, calls, summed count]."""
    totals: dict[str, list] = {}
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _, _, count = span
        t = totals.setdefault(name, [0.0, 0.0, 0, 0])
        t[0] += end - start
        t[1] += own
        t[2] += 1
        t[3] += count or 0
    return totals


def merge(into: dict[str, list], other: dict[str, list]) -> dict[str, list]:
    for name, values in other.items():
        t = into.setdefault(name, [0.0, 0.0, 0, 0])
        for i, v in enumerate(values):
            t[i] += v
    return into


def import_times(stderr_text: str) -> dict[str, float]:
    """Seconds from ``python -X importtime``: qmasslab cumulative, numpy and scipy self sums."""
    out = {"import.qmasslab_s": 0.0, "import.numpy_s": 0.0, "import.scipy_s": 0.0}
    for line in stderr_text.splitlines():
        if not line.startswith("import time:") or "[us]" in line:
            continue
        self_us, cumulative_us, name = line[len("import time:"):].split("|")
        name = name.strip()
        top = name.split(".")[0]
        if name == "qmasslab":
            out["import.qmasslab_s"] = int(cumulative_us) / 1e6
        elif top in ("numpy", "scipy"):
            out[f"import.{top}_s"] += int(self_us) / 1e6
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(totals: dict[str, list], n_ops: int) -> dict[str, float]:
    """Per-layer metrics of the traced ops: seconds per op, counts as run totals."""
    # Per span name: [total seconds, self seconds, calls, summed count].
    t = lambda name: totals.get(name, (0.0, 0.0, 0, 0))
    per_op = lambda s: s / n_ops if n_ops else 0.0
    export_s = t("scenarios.export_series")[0] + t("scenarios.export_grid")[0]
    export_bytes = t("scenarios.export_series")[3] + t("scenarios.export_grid")[3]
    rk4 = t("doubleslit.integrate_trajectory")
    qmass_names = [n for n in totals if n.startswith("qmass.")]
    return {
        "cli.main.self_s": per_op(t("cli.main")[1]),
        "scenarios.run.self_s": per_op(t("scenarios.run")[1]),
        "scenarios.export_series.s": per_op(t("scenarios.export_series")[0]),
        "scenarios.export_grid.s": per_op(t("scenarios.export_grid")[0]),
        "scenarios.export_summary.s": per_op(t("scenarios.export_summary")[0]),
        "scenarios.export.bytes": export_bytes,
        "scenarios.export.bytes_per_s": _ratio(export_bytes, export_s),
        "doubleslit.integrate_trajectory.s": per_op(rk4[0]),
        "doubleslit.rk4_steps": rk4[3],
        "doubleslit.rk4_steps_per_s": _ratio(rk4[3], rk4[0]),
        "doubleslit.mass_map.s": per_op(t("doubleslit.mass_map")[0]),
        "doubleslit.mass_map.cells": t("doubleslit.mass_map")[3],
        "doubleslit.fringe_spacing_measured.s": per_op(t("doubleslit.fringe_spacing_measured")[0]),
        "boxwell.trace_states_vs_position.self_s": per_op(t("boxwell.trace_states_vs_position")[1]),
        "boxwell.trace_states_vs_position.positions": t("boxwell.trace_states_vs_position")[3],
        "boxwell.analyze_beats.self_s": per_op(t("boxwell.analyze_beats")[1]),
        "boxwell.quantize.s": per_op(t("boxwell.quantize")[0]),
        "wavecore.evaluate.s": per_op(t("wavecore.evaluate")[0]),
        "wavecore.evaluate.calls": t("wavecore.evaluate")[2],
        "wavecore.evaluate.points": t("wavecore.evaluate")[3],
        "wavecore.measure_temporal_frequencies.self_s": per_op(
            t("wavecore.measure_temporal_frequencies")[1]
        ),
        "wavecore.measure_temporal_frequencies.samples": t("wavecore.measure_temporal_frequencies")[3],
        "wavecore.measure_envelope_wavelength.s": per_op(t("wavecore.measure_envelope_wavelength")[0]),
        "wavecore.wave_equation_residual.s": per_op(t("wavecore.wave_equation_residual")[0]),
        "qmass.s": per_op(sum(t(n)[1] for n in qmass_names)),
        "qmass.calls": sum(t(n)[2] for n in qmass_names),
    }
