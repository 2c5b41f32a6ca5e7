"""Scenario orchestration: configuration, pipelines, deterministic export.

Each scenario maps a parameter block onto one physics pipeline and emits
plot-ready CSV files plus a JSON summary of predicted-vs-measured metrics.
A runner's keyword arguments are its scenario's parameters, and their
defaults are the scenario's defaults.  Each runner imports the physics modules
it calls, so a process that runs one scenario loads no other's.  Every data
file is written by ``export_series`` or ``export_grid``; data files are
byte-identical across repeated runs, and wall-clock timing is isolated in the
summary.
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

from .errors import InvalidConfigError, QmassError

SCHEMA_VERSION = 1

#: Rest frequencies the boost scenario accepts.  Its snapshot time t = 0.3 is
#: fixed, so the carrier phase omega*t that each sample rounds grows with
#: omega0 (the envelope gate fails from ~1e14), and the mass gate squares the
#: energy (it underflows below ~1e-154).  Both stay far off inside this range.
_BOOST_OMEGA0_MIN = 1e-9
_BOOST_OMEGA0_MAX = 1e9

#: ``boost``'s envelope oracle solves the snapshot on every 16th point of
#: ``field.csv``'s grid, which holds 64 per period of k+: a quarter period,
#: where k+'s cos is steepest and its root sits at 0, as the time solve's
#: stride puts the fastest tone.  On every point, near c k- spans about one
#: period of the grid and its root sits next to 2: at omega0 = 1e9,
#: beta = 0.9915305537489627 the envelope missed by 9.1e-4, and by 4.0e-11
#: strided.
_ENVELOPE_SOLVE_STRIDE = 16

#: Rows of a series CSV formatted per write; bounds the text and the number
#: kernel's temporaries (~250 B a value) held in memory.  The five traj-5x2000
#: files (2,001 rows of 3 values) write as fast in blocks of 512 or 1,024 rows
#: and ~10% slower in blocks of 2,048; a two-column series peaks at 0.54 MB
#: traced (1.0 MB with 2,048 rows).
_CSV_BLOCK_ROWS = 1024

#: Cells per block of rows that ``export_grid`` asks for at a time.  A block's
#: mass-map and kernel temporaries (~250 B a cell) stay in cache: a 401**2
#: ``doubleslit-map`` writes as fast with 4,096-cell blocks and 15-25% slower
#: with 1,024.  The run's traced peak is ~0.77 MB at any nx (1.43 MB with
#: 4,096-cell blocks) and grows by ~370 B per y column once ny exceeds ~2k.
_MAP_BLOCK_CELLS = 1 << 11

_COMMA, _NEWLINE = ord(","), ord("\n")


def _words(texts) -> np.ndarray:
    """Each ASCII text of at most 4 bytes as one little-endian word, NUL-padded."""
    return np.array([t.encode() for t in texts], dtype="S4").view("<u4")


def _digit_words() -> np.ndarray:
    """The word table of ``_render``.

    Entry ``q`` (0 <= q < 10**4) of its first three blocks of 10**4 holds the
    four digits of q with its trailing zeros NUL, with every zero kept, and
    with its leading zeros NUL.  Then come the sign words "," and ",-", the
    dot's words "", "" and "." (``_DOTS`` starts exponents below 0 at the first
    blank, the others at the second), "inf", "nan", "0." and, at
    ``_ZEROS + 10*z + d``, z zeros followed by the digit d.
    """
    quads = np.empty((3, 10, 10, 10, 10, 4), np.uint8)  # [block, d0, d1, d2, d3, byte]
    chars = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    for place in range(4):
        quads[..., place] = chars.reshape([10 if p == place else 1 for p in range(4)])
    trail, lead = quads[0], quads[2]
    trail[:, :, :, 0, 3] = trail[:, :, 0, 0, 2] = trail[:, 0, 0, 0, 1] = trail[0, 0, 0, 0, 0] = 0
    lead[0, :, :, :, 0] = lead[0, 0, :, :, 1] = lead[0, 0, 0, :, 2] = lead[0, 0, 0, 0, 3] = 0
    others = [",", ",-", "", "", ".", "inf", "nan", "0."]
    others += ["0" * z + str(d) for z in range(4) for d in range(10)]
    return np.concatenate([quads.view("<u4").ravel(), _words(others)])


_DIGIT_WORDS = _digit_words()
_TRAIL, _FULL, _LEAD, _SIGN = 0, 10**4, 2 * 10**4, 3 * 10**4
_INF, _NAN, _ZERO_DOT, _ZEROS = _SIGN + 5, _SIGN + 6, _SIGN + 7, _SIGN + 8

#: Row ``k % 20`` of these tables serves the decimal exponents -4 <= k <= 15 of
#: fixed notation.  A value's 17 digits D split into an integer part
#: ``D // _SPLIT_AT`` and a fraction ``D % _SPLIT_AT * _SHIFT``, left-aligned in
#: 16 digits; below 1 the integer part is the first digit, written after "0."
#: and -k-1 zeros.  ``_INT_WORDS`` holds the table blocks of the integer part's
#: four words (a word keeps its leading zeros when a digit stands before it),
#: and ``_DOTS`` those of the dot's word, written when a fraction digit follows
#: a non-zero integer part.
_EXPONENTS = list(range(16)) + list(range(-4, 0))
_SPLIT_AT = np.array([10 ** (16 - max(k, 0)) for k in _EXPONENTS], dtype=np.int64)
_SHIFT = np.array([10 ** max(k, 0) for k in _EXPONENTS], dtype=np.int64)
_INT_WORDS = np.array([[_LEAD, _LEAD, _ZERO_DOT, _ZEROS + 10 * (-1 - k)] if k < 0 else
                       [_FULL if k + 1 > 16 - 4 * j else _LEAD for j in range(4)]
                       for k in _EXPONENTS], dtype=np.intp)
_DOTS = np.array([_SIGN + 3 if k >= 0 else _SIGN + 2 for k in _EXPONENTS], dtype=np.intp)

#: 10**p (0 <= p <= 22, each exact) and its split into two halves of at most 26
#: significant bits, so each product of halves in ``_digits`` is exact.
_POW10 = np.array([float(10**p) for p in range(23)])
_VELTKAMP = 2.0**27 + 1.0
_POW10_HI = _POW10 * _VELTKAMP - (_POW10 * _VELTKAMP - _POW10)
_POW10_LO = _POW10 - _POW10_HI


def _digits(a, k):
    """``a * 10**(16 - k)`` rounded half to even, exactly, as int64.

    Dekker's product (no FMA): ``hi + lo`` is the exact product, ``hi`` an even
    integer above 2**53 wherever the result has 17 digits, so rounding ``lo``
    half to even rounds the sum as dtoa does.
    """
    p = 16 - k
    hi = a * _POW10.take(p)
    c = a * _VELTKAMP
    a_hi = c - (c - a)
    a_lo = a - a_hi
    p_hi, p_lo = _POW10_HI.take(p), _POW10_LO.take(p)
    lo = a_hi * p_hi
    lo -= hi
    lo += a_hi * p_lo
    lo += a_lo * p_hi
    lo += a_lo * p_lo
    d = hi.astype(np.int64)
    d += np.rint(lo, out=lo).astype(np.int64)
    return d


def _render(values, words) -> int:
    """Lay out ``"," + "%.17g" % v`` for each float64 ``v`` of ``values``.

    ``words`` is a C-contiguous ``(10, len(values))`` array of ``"<u4"``; the
    bytes of its column i, with their NULs removed, are value i's text.
    Returns how many values were formatted one at a time.

    For ``1e-4 <= |v| < 1e16``, ``%.17g`` writes ``v`` in fixed notation from its
    17-digit decimal significand D = round(|v| * 10**(16 - k)), k the decimal
    exponent.  ``_digits`` computes D exactly; where log10 put k off by one, D
    falls outside [1e16, 1e17) and is computed again.  The sign, the integer
    part (right-aligned in four words), the dot and the fraction (four words,
    trailing zeros NUL) come from ``_DIGIT_WORDS``.  0, -0, inf, -inf and nan
    are fixed texts; any other value is formatted with ``%``.
    """
    n = len(values)
    if n == 0:
        return 0
    a = np.abs(values)
    fast = None
    if not (a.min() >= 1e-4 and a.max() < 1e16):
        fast = (a >= 1e-4) & (a < 1e16)
        a = np.where(fast, a, 1.0)
    k = np.floor(np.log10(a)).astype(np.intp)
    d = _digits(a, k)
    if d.min() < 10**16 or d.max() >= 10**17:
        k += d >= 10**17
        k -= d < 10**16
        d = _digits(a, k)
    # The integer part, then the fraction's digits, in four-digit groups.
    parts = np.empty((2, n), np.int64)
    split_at = _SPLIT_AT.take(k, mode="wrap")
    np.floor_divide(d, split_at, out=parts[0])
    np.subtract(d, parts[0] * split_at, out=parts[1])
    parts[1] *= _SHIFT.take(k, mode="wrap")
    # Table indices of the ten words: sign, four integer-part words, dot, four fraction words.
    index = np.empty((2, 5, n), np.intp)
    np.add(np.signbit(values), _SIGN, out=index[0, 0])
    np.add(parts[1] != 0, _DOTS.take(k, mode="wrap"), out=index[1, 0])
    high = parts // 10**8
    parts -= high * 10**8
    quads = index[:, 1:]
    np.floor_divide(high, 10**4, out=quads[:, 0])
    np.subtract(high, quads[:, 0] * 10**4, out=quads[:, 1])
    np.floor_divide(parts, 10**4, out=quads[:, 2])
    np.subtract(parts, quads[:, 2] * 10**4, out=quads[:, 3])
    # A fraction group keeps its trailing zeros when a later group is non-zero.
    later = quads[1, 1:] != 0
    later[1] |= later[2]
    later[0] |= later[1]
    np.add(quads[1, :3], _FULL, out=quads[1, :3], where=later)
    quads[0] += _INT_WORDS.take(k, axis=0, mode="wrap").T
    if fast is not None:
        # 0, inf and nan were laid out as 1; their last integer word becomes their
        # text, and nan loses its sign.
        nan = np.isnan(values)
        for word, hit in ((_ZEROS, values == 0), (_INF, np.isinf(values)), (_NAN, nan)):
            quads[0, 3][hit] = word
            fast |= hit
        index[0, 0][nan] = _SIGN
    _DIGIT_WORDS.take(index.reshape(10, n), out=words, mode="wrap")
    slow = (d < 10**16) | (d >= 10**17)
    if fast is not None:
        slow |= ~fast
    if not slow.any():
        return 0
    texts = [(",%.17g" % v).encode().ljust(40, b"\0") for v in values[slow].tolist()]
    words[:, slow] = np.frombuffer(b"".join(texts), "<u4").reshape(len(texts), 10).T
    return len(texts)


def _texts_of(words) -> list[bytes]:
    """The value texts laid out in ``words`` by ``_render``."""
    return words.T.tobytes().translate(None, b"\0").split(b",")[1:]


def _padded_words(texts) -> np.ndarray:
    """The texts as the columns of a ``(words, len(texts))`` array, NUL-padded to whole words."""
    width = (max(map(len, texts), default=0) + 3) // 4
    words = np.frombuffer(b"".join(t.ljust(4 * width, b"\0") for t in texts), "<u4")
    return words.reshape(len(texts), width).T


def _texts(values) -> list[bytes]:
    """``b"%.17g" % v`` for each float64 ``v`` of ``values``."""
    words = np.empty((10, len(values)), "<u4")
    _render(values, words)
    return _texts_of(words)


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


def export_series(path: Path, header: str, *columns) -> str:
    """Write equal-length columns as CSV, 17 significant digits; return ``path.name``.

    A column is a 1-D array or a 2-D array of several columns.  Every number
    is written as ``"%.17g" % v`` writes it, byte for byte (``_render`` holds
    the argument).  Rows are formatted ``_CSV_BLOCK_ROWS`` at a time from a
    block stacked out of slices of the columns, so neither a copy of the whole
    table nor its text is held in memory.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0])
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns must have equal length, got {[len(c) for c in columns]}")
    with open(path, "wb") as fh:
        fh.write(header.encode())
        for start in range(0, n, _CSV_BLOCK_ROWS):
            block = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns])
            words = np.empty((10, block.size), "<u4")
            _render(np.asarray(block, dtype=float).ravel(), words)
            # Each row's first value starts a line: its separator is a newline.
            words[0].reshape(block.shape)[:, 0] ^= _COMMA ^ _NEWLINE
            fh.write(words.T.tobytes().translate(None, b"\0"))
        fh.write(b"\n")
    return path.name


def export_grid(path: Path, x, y, rows_of) -> str:
    """Write a grid as row-major x,y,value CSV, block by block; return ``path.name``.

    ``rows_of(rows)`` takes a ``slice`` of x and returns those rows' values,
    an array of shape ``(len(x[rows]), len(y))`` whose [k, j] is the value at
    (x[rows][k], y[j]); any other shape raises ``ValueError``.  The writer asks
    for blocks of about ``_MAP_BLOCK_CELLS`` cells (at least one row) in x
    order and writes each before it asks for the next, so a caller that
    computes its rows on request never holds the grid.

    Every number is written as ``"%.17g" % v`` writes it, as in
    ``export_series``, but each coordinate is formatted once: each y as the
    start ``"\\n,<y[j]>"`` of its cells, laid out beside every block's values,
    and each x, rendered with its block, after every newline of its row.
    """
    x, y = (np.asarray(a, dtype=float) for a in (x, y))
    y_words = _padded_words([b"\n," + text for text in _texts(y)])
    width = len(y_words)
    step = max(1, _MAP_BLOCK_CELLS // max(1, len(y)))
    with open(path, "wb") as fh:
        fh.write(b"x,y,value")
        for start in range(0, len(x), step):
            rows = slice(start, start + step)
            block = np.asarray(rows_of(rows), dtype=float)
            shape = (len(x[rows]), len(y))
            if block.shape != shape:
                raise ValueError(f"rows from {start} must have shape {shape}, got {block.shape}")
            # Each cell's y start and value, then the block's x values.
            words = np.empty((width + 10, block.size + shape[0]), "<u4")
            cells = words[:, :block.size].reshape(width + 10, *shape)
            cells[:width] = y_words[:, None, :]
            _render(np.concatenate([block.ravel(), x[rows]]), words[width:])
            x_texts = _texts_of(words[width:, block.size:])
            for xi, row in zip(x_texts, cells.transpose(1, 2, 0)):
                fh.write(row.tobytes().translate(None, b"\0").replace(b"\n", b"\n" + xi))
        fh.write(b"\n")
    return path.name


def export_summary(path: Path, summary: RunSummary) -> None:
    """Stable-ordered JSON summary of the run, its metrics and its files."""
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


def _run_boost(out: Path, summary: RunSummary, *, omega0=1.0, beta=0.6) -> None:
    from . import qmass, wavecore

    _require(_BOOST_OMEGA0_MIN <= omega0 <= _BOOST_OMEGA0_MAX,
             f"omega0 must be in [{_BOOST_OMEGA0_MIN:g}, {_BOOST_OMEGA0_MAX:g}], got {omega0}")
    b = wavecore.boost_standing_wave(omega0, beta)
    # field.csv's x column, pinned by the benchmark; it rejects a speed outside
    # [ENVELOPE_SPEED_MIN, ENVELOPE_SPEED_MAX).  The envelope oracle reads the
    # snapshot's two spatial tones on every _ENVELOPE_SOLVE_STRIDE-th point.
    x = wavecore.envelope_sampling_grid(b)
    field = wavecore.superposition_of(b)
    snapshot = wavecore.evaluate(field, x, 0.3)
    measured_lam = wavecore.measure_envelope_wavelength(x[::_ENVELOPE_SOLVE_STRIDE],
                                                        snapshot[::_ENVELOPE_SOLVE_STRIDE])
    # At x = 0 the two traveling tones are a unit-amplitude pair at omega_pm.
    _, hi, lo = wavecore.measure_tone_pair(field, 0.0, (b.omega_plus - b.omega_minus) / 2.0)
    summary.metrics += [
        Metric("quantum_rest_mass", omega0, math.sqrt(hi * lo), 1e-4, "oracle"),
        Metric("group_speed", abs(beta), (hi - lo) / (hi + lo), 1e-4, "oracle"),
        Metric("envelope_wavelength", qmass.de_broglie_wavelength(omega0, abs(beta)),
               measured_lam, 1e-7, "oracle"),
    ]
    summary.files.append(export_series(out / "field.csv", "x,value", x, snapshot))


def _slit_config(d: float, wavelength: float) -> doubleslit.SlitConfig:
    from . import doubleslit

    _require(wavelength > 0, f"wavelength must be positive, got {wavelength}")
    return doubleslit.SlitConfig(d=d, omega=2.0 * math.pi / wavelength)


def _run_doubleslit_fringes(out: Path, summary: RunSummary, *,
                            d=0.5, wavelength=0.01, D=50.0, screen="arc") -> None:
    from . import doubleslit

    cfg = _slit_config(d, wavelength)
    report = doubleslit.fringe_spacing_measured(cfg, D, screen=screen)
    summary.metrics.append(Metric("fringe_spacing", report.predicted, report.measured,
                                  0.01, "oracle"))
    summary.files.append(
        export_series(out / "intensity.csv", "x,value", report.s, report.intensity))


def _run_doubleslit_map(out: Path, summary: RunSummary, *, d=1.0, wavelength=0.05,
                        nx=201, ny=201, x_span=5.0, y_span=2.5) -> None:
    from . import doubleslit

    _require(min(nx, ny) >= 2, f"nx and ny must be >= 2, got {nx} and {ny}")
    cfg = _slit_config(d, wavelength)
    # The map stays inside the trajectory domain; far beyond it r**2 overflows.
    _require(0 < x_span * cfg.d <= cfg.x_max and 0 < y_span * cfg.d <= cfg.y_half,
             f"x_span must be in (0, {cfg.x_max / cfg.d:g}] and y_span in "
             f"(0, {cfg.y_half / cfg.d:g}], got {x_span} and {y_span}")
    axis_x = np.linspace(cfg.d / 100.0, 10.0 * cfg.d, 500)
    axis_m = doubleslit.mass_map(cfg, axis_x, np.array([0.0]))[:, 0]
    _require(np.isfinite(axis_m).all(),
             f"slit exclusion radius {cfg.exclusion_radius:g} covers an axis sample; "
             "lower the wavelength")
    # On the slit plane x = 0 both waves run along y, r1 = |y - h| and r2 = |y + h|
    # from the slits (h = d/2).  Between the slits they counter-propagate, so the
    # energy weights 1/r**2 give |n| = |r1**2 - r2**2|/(r1**2 + r2**2), and m is
    # omega*2*r1*r2/(r1**2 + r2**2) = omega*(h**2 - y**2)/(h**2 + y**2), omega times
    # the fringe visibility; beyond the slits both run outward, |n| = 1 and m = 0.
    # Rounding 1 - |n|**2 at |n| = 1 costs a correct map ~sqrt(2*eps)*omega.
    plane_y = np.linspace(-2.0 * cfg.d, 2.0 * cfg.d, 401)
    q = (plane_y / (cfg.d / 2.0)) ** 2
    plane_m = doubleslit.mass_map(cfg, [0.0], plane_y)[0]
    plane_error = np.nanmax(np.abs(plane_m - cfg.omega * np.maximum(1.0 - q, 0.0) / (1.0 + q)))
    # A step that is not a decrease or flat, NaN included, is a violation.
    increases = int(np.sum(~(np.diff(axis_m) <= 0)))
    summary.metrics += [
        Metric("slit_plane_mass", 0.0, float(plane_error / cfg.omega), 1e-6, "formula"),
        Metric("axis_monotone_violations", 0.0, float(increases), 0.0, "oracle"),
    ]
    # The grid is never held: each block of rows is mapped, then written.
    x = np.linspace(0.0, x_span * cfg.d, nx)
    y = np.linspace(-y_span * cfg.d, y_span * cfg.d, ny)
    summary.files.append(export_grid(out / "mass_map.csv", x, y,
                                     lambda rows: doubleslit.mass_map(cfg, x[rows], y)))


def _run_doubleslit_traj(out: Path, summary: RunSummary, *, d=1.0,
                         starts=[[25.0, 0.0], [17.7, 17.7], [0.01, 0.5]],
                         max_steps=2000) -> None:
    from . import doubleslit

    _require(max_steps >= 1, f"max_steps must be >= 1, got {max_steps}")
    # integrate_trajectory and the flux invariant read only d; omega = 1 passes
    # SlitConfig's check.
    cfg = doubleslit.SlitConfig(d=d, omega=1.0)
    # integrate_trajectory rejects a start outside the domain, so each
    # trajectory takes at least one step.
    trajectories = [doubleslit.integrate_trajectory(start, cfg, max_steps=max_steps)
                    for start in starts]
    # The momentum is the field of two equal point charges at the slits, so a
    # streamline keeps its start's Stokes flux I = (y - h)/r1 + (y + h)/r2.
    h = cfg.d / 2.0
    drift = 0.0
    for traj in trajectories:
        x, y = traj.points.T
        flux = (y - h) / np.hypot(x, y - h) + (y + h) / np.hypot(x, y + h)
        drift = max(drift, float(np.max(np.abs(flux - flux[0]))))
    summary.metrics.append(Metric("streamline_invariant_drift", 0.0, drift, 2e-5, "oracle"))
    for i, traj in enumerate(trajectories):
        summary.files.append(export_series(out / f"trajectory_{i:03d}.csv", "x,y,value",
                                           traj.points, traj.times))


def _run_box_beat(out: Path, summary: RunSummary, *,
                  W=1.0, omega0=100.0, v=0.0627080, probe=0.275) -> None:
    from . import boxwell, wavecore

    _require(0 < probe < W, f"probe must lie inside the well (0, {W}), got {probe}")
    # analyze_beats never reads the cavity length; W/10 passes BoxConfig's check.
    cfg = boxwell.BoxConfig(W=W, L=W / 10.0, omega0=omega0, v=v)
    beats = boxwell.analyze_beats(cfg, probe)
    # Over 300 random cases of the accepted range (half the probes just past
    # the node limit) the slow tone's worst miss was 1.1e-9.
    summary.metrics += [
        Metric("fast_frequency", cfg.omega_bar, beats.fast, 5e-4, "oracle"),
        Metric("slow_frequency", cfg.delta_omega, beats.slow, 5e-4, "oracle"),
    ]
    series = wavecore.evaluate(boxwell.build_field(cfg), probe, beats.times)
    summary.files.append(export_series(out / "probe_series.csv", "t,value", beats.times, series))


def _run_box_states(out: Path, summary: RunSummary, *,
                    W=1.0, L=0.1, omega0=100.0, v=0.0627080, n_positions=160) -> None:
    from . import boxwell, qmass, wavecore

    cfg = boxwell.BoxConfig(W=W, L=L, omega0=omega0, v=v)
    trace = boxwell.trace_states_vs_position(cfg, n_positions=n_positions)
    p = qmass.four_momentum_of(wavecore.boost_standing_wave(cfg.omega0, cfg.v)).p
    modulus = trace.a_cos**2 + trace.a_sin**2
    flatness = float(np.max(modulus) / np.min(modulus) - 1.0)
    summary.metrics += [
        Metric("envelope_wavenumber", p, trace.envelope_wavenumber, 5e-3, "oracle"),
        Metric("helix_modulus_flatness", 0.0, flatness, 0.02, "oracle"),
    ]
    for name, values in (("cosine_state.csv", trace.a_cos), ("sine_state.csv", trace.a_sin)):
        summary.files.append(export_series(out / name, "x,value", trace.x, values))


def _run_box_quantize(out: Path, summary: RunSummary, *, W=1.0, omega0=100.0, n_max=5) -> None:
    from . import boxwell

    well = boxwell.Well(W=W, omega0=omega0)
    # Beyond p = n*pi/W = omega0 the energy gate's tolerance (p/m)**2 reaches 1.
    _require(n_max * math.pi / W < omega0,
             f"n_max*pi/W must be below omega0 = {omega0}, got {n_max * math.pi / W}")
    reports = boxwell.quantize(well, n_max)
    x = np.linspace(0.0, W, 513)
    for rep in reports:
        summary.metrics += [
            Metric(f"momentum_n{rep.n}", rep.p_schrodinger, rep.p_n, 1e-9, "formula"),
            Metric(
                f"energy_n{rep.n}", rep.schrodinger_energy, rep.kinetic_energy,
                (rep.p_n / omega0) ** 2, "formula",
            ),
        ]
        summary.files.append(export_series(out / f"envelope_n{rep.n}.csv", "x,value",
                                           x, boxwell.quantized_envelope(rep.p_n, x)))


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

#: Each scenario's parameters and their defaults, in its runner's order.
DEFAULTS: dict[str, dict] = {kind: runner.__kwdefaults__ for kind, runner in _RUNNERS.items()}


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
    # No count above 2**53 can run (a 2**53-point axis needs 64 PiB), and numpy
    # fails on some such counts with errors other than MemoryError.
    _require(not isinstance(default, int) or coerced <= 2**53,
             f"parameter {key} must be <= 2**53, got {coerced}")
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
    _RUNNERS[kind](out, summary, **merged)
    summary.duration_s = time.perf_counter() - start
    export_summary(out / "summary.json", summary)
    return summary
