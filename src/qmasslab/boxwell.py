"""Opposed bidirectional waves in an infinite well and the quantized modes.

Superposing the +v and -v frequency pairs, phased to vanish at x = 0,
gives the closed form (unit component amplitudes, natural units c = hbar = 1)

    F(x,t) = 4*[sin(kbar*x)*cos(dk*x)*cos(wbar*t)*cos(dw*t)
               - cos(kbar*x)*sin(dk*x)*sin(wbar*t)*sin(dw*t)]

with kbar = (k+ + k-)/2 = wbar, dk = (k+ - k-)/2 = dw = gamma*m*v,
wbar = gamma*omega0, dw = gamma*omega0*v.  The slow factors cos(dk*x),
sin(dk*x) are the internal cosine/sine state envelopes; dk is the de
Broglie wavenumber of the moving cavity, and requiring the odd envelope
combination to vanish at both walls quantizes the cavity speed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError
from .wavecore import PlaneWave, Superposition, evaluate, gamma_of, measure_tone_pair

#: Minimum carrier cycles across the well, enforcing omega0*W >> 1.
MIN_CARRIER_PHASE = 20.0

#: Maximum omega0*W of every box oracle.  Beyond it the mode speeds, bisected
#: to an absolute 1e-14, miss the 1e-9 momentum gate, the margin of the sweep
#: at SWEEP_SPEED_MIN was measured only up to it, and from ~1e17 the probe
#: series of ``analyze_beats`` rounds the time phase away.
MAX_CARRIER_PHASE = 1e5

#: Cavity speeds are only searched up to this fraction of c.
BETA_MAX = 0.999


@dataclass(frozen=True, kw_only=True)
class Well:
    """Infinite well of width W holding light of rest frequency omega0 (the mass m).

    Keyword-only, as is ``BoxConfig``, whose fields follow these two.
    """

    W: float
    omega0: float

    def __post_init__(self):
        if not (math.isfinite(self.W) and math.isfinite(self.omega0)):
            raise InvalidConfigError(f"box parameters must be finite, got {self}")
        # In this range W**2 and 1/W**2 stay normal floats, and with omega0 <=
        # MAX_CARRIER_PHASE/W no cavity frequency gamma*omega0*(1 + v) overflows.
        if not 1e-100 <= self.W <= 1e100:
            raise InvalidConfigError(f"W must be positive, in [1e-100, 1e100], got {self.W}")
        if self.omega0 * self.W < MIN_CARRIER_PHASE:
            raise InvalidConfigError(f"carrier unresolved: omega0*W = {self.omega0 * self.W}")
        if self.omega0 * self.W > MAX_CARRIER_PHASE:
            raise InvalidConfigError(
                f"omega0*W must be <= {MAX_CARRIER_PHASE:g}, got {self.omega0 * self.W}")


@dataclass(frozen=True, kw_only=True)
class BoxConfig(Well):
    """A cavity of length L moving at speed v through the well."""

    L: float
    v: float

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.L <= self.W / 10.0:
            raise InvalidConfigError(
                f"cavity must satisfy 0 < L <= W/10, got L={self.L}, W={self.W}")
        if not 0 < self.v < 1.0:
            raise InvalidConfigError(f"cavity speed must be in (0, 1), got {self.v}")

    @property
    def gamma(self) -> float:
        return gamma_of(self.v)

    @property
    def omega_bar(self) -> float:
        return self.gamma * self.omega0

    @property
    def delta_omega(self) -> float:
        return self.gamma * self.omega0 * self.v


@dataclass(frozen=True)
class BeatAnalysis:
    """Fast/slow frequency pair extracted from the probe series ``values`` at ``times``."""

    fast: float
    slow: float
    times: np.ndarray
    values: np.ndarray


@dataclass(frozen=True)
class InternalStateTrace:
    """Cosine/sine internal-state amplitudes along the cavity sweep."""

    x: np.ndarray
    a_cos: np.ndarray
    a_sin: np.ndarray
    envelope_wavenumber: float


@dataclass(frozen=True)
class QuantizationReport:
    """One quantized cavity mode against the textbook infinite-well values."""

    n: int
    v_n: float
    p_n: float
    p_schrodinger: float
    kinetic_energy: float
    schrodinger_energy: float


def build_field(cfg: BoxConfig) -> Superposition:
    """Four plane waves: per-frequency standing pairs, so F(0, t) = 0."""
    waves = []
    for omega in (cfg.omega_bar + cfg.delta_omega, cfg.omega_bar - cfg.delta_omega):
        waves.append(PlaneWave(omega, (1.0, 0.0), 0.0))
        waves.append(PlaneWave(omega, (-1.0, 0.0), math.pi))
    return Superposition(tuple(waves))


def closed_form(cfg: BoxConfig, x, t):
    """Product form of the four-wave field, for pointwise cross-checks."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    kb = wb = cfg.omega_bar  # lightlike waves: k = omega
    dk = dw = cfg.delta_omega
    return 4.0 * (
        np.sin(kb * x) * np.cos(dk * x) * np.cos(wb * t) * np.cos(dw * t)
        - np.cos(kb * x) * np.sin(dk * x) * np.sin(wb * t) * np.sin(dw * t)
    )


#: Minimum per-frequency standing amplitude |sin(k*probe)| to resolve both peaks.
PROBE_AMPLITUDE_MIN = 0.02


def analyze_beats(cfg: BoxConfig, probe: float) -> BeatAnalysis:
    """Extract the fast (gamma*omega0) and slow (gamma*omega0*v) frequencies.

    At the probe the field is a two-tone signal at omega_pm, each tone
    weighted by its standing amplitude |sin(k*probe)|.  ``measure_tone_pair``
    gets their beat as configured, ``cfg.delta_omega``: (kp - km)/2 can differ
    in the last bit, and so can the series length it picks.  The series holds
    128*(1 + v)/min(v, 1 - v) samples, so under the kernel's 2**20 cap v must
    lie between about 1.2e-4 and 8191/8193 = 0.99976.
    """
    kp = cfg.omega_bar + cfg.delta_omega
    km = cfg.omega_bar - cfg.delta_omega
    if min(abs(math.sin(kp * probe)), abs(math.sin(km * probe))) < PROBE_AMPLITUDE_MIN:
        raise InvalidConfigError(f"probe {probe} sits at a node of a component standing wave")
    t, series, hi, lo = measure_tone_pair(build_field(cfg), probe, cfg.delta_omega)
    return BeatAnalysis(
        fast=(hi + lo) / 2.0,
        slow=(hi - lo) / 2.0,
        times=t,
        values=series,
    )


#: Slowest cavity the position sweep resolves.  The sample times x_c/v grow as
#: 1/v, and with them the rounding of the carrier phase; at omega0*W = 1e5 and
#: this speed the helix flatness is still ~30 times inside its gate wherever
#: SWEEP_LEVER_MIN lets the sweep run.
SWEEP_SPEED_MIN = 1e-6

#: Least envelope lever of a cavity center, in roundings of its carrier phase.
#: At t_c = x_c/v the slow time factors are cos(kbar*x_c) and sin(kbar*x_c);
#: where one all but vanishes, its envelope amplitude reaches the window's
#: field only through the window's own envelope span dk*L.  The fit divides
#: the phase rounding by the lever max(weaker factor, dk*L): over centers
#: placed at such nodes the modulus error stayed below 3 roundings per unit
#: of lever, so this bound keeps the helix flatness ~3 times inside its gate.
SWEEP_LEVER_MIN = 1e3

#: Smallest omega0*L of the cavity window.  Near the wall node the windowed
#: field shrinks with it, and below ~1e-12 the fit loses both amplitudes.
SWEEP_WINDOW_PHASE_MIN = 1e-9


def trace_states_vs_position(cfg: BoxConfig, n_positions: int = 160) -> InternalStateTrace:
    """Internal-state amplitudes as the cavity sweeps the well at speed v.

    For each cavity center x_c (reached at t = x_c/v) the field restricted
    to the cavity window (96 points) is fitted over 3 carrier periods (16
    samples each) to the local carrier model with known time factors,
    leaving the slow spatial envelope pair (cos(dk*x_c), sin(dk*x_c)).  The fitted envelope
    wavenumber equals the de Broglie wavenumber gamma*m*v.  The envelope phase
    is unwrapped between neighbouring centers, so it must advance by less than
    pi per step, and a center that meets a node of a slow time factor is
    rejected unless the window's envelope span still resolves it (see
    SWEEP_LEVER_MIN).
    """
    kb = wb = cfg.omega_bar  # lightlike waves: k = omega
    dk = dw = cfg.delta_omega
    if n_positions < 2:
        raise InvalidConfigError(f"n_positions must be >= 2, got {n_positions}")
    if cfg.v < SWEEP_SPEED_MIN:
        raise InvalidConfigError(f"cavity speed must be >= {SWEEP_SPEED_MIN:g}, got {cfg.v}")
    if cfg.omega0 * cfg.L < SWEEP_WINDOW_PHASE_MIN:
        raise InvalidConfigError(
            f"omega0*L must be >= {SWEEP_WINDOW_PHASE_MIN:g}, got {cfg.omega0 * cfg.L}")
    step = dk * (cfg.W - cfg.L) / (n_positions - 1)
    if step >= math.pi:
        raise InvalidConfigError(
            f"envelope phase step dk*(W - L)/(n_positions - 1) = {step:.3g} must be below "
            "pi; raise n_positions")
    centers = np.linspace(cfg.L / 2.0, cfg.W - cfg.L / 2.0, n_positions)
    field = build_field(cfg)
    t_span = 3 * 2.0 * math.pi / wb
    t_c = centers / cfg.v
    weaker = np.minimum(np.abs(np.cos(dw * t_c)), np.abs(np.sin(dw * t_c)))
    lever = np.maximum(weaker, dk * cfg.L) / np.spacing((wb + dw) * (t_c + t_span))
    if np.min(lever) < SWEEP_LEVER_MIN:
        i = int(np.argmin(lever))
        raise InvalidConfigError(
            f"cavity center {centers[i]:.6g} sits at a node of a slow time factor: its "
            f"envelope lever is {lever[i]:.3g} carrier-phase roundings, below "
            f"{SWEEP_LEVER_MIN:g}; change n_positions, L or v")
    n_t = 3 * 16
    a_cos = np.empty(len(centers))
    a_sin = np.empty(len(centers))
    for i, xc in enumerate(centers):
        x = np.linspace(xc - cfg.L / 2.0, xc + cfg.L / 2.0, 96)[:, None]
        t = (xc / cfg.v + np.arange(n_t) * (t_span / n_t))[None, :]
        values = evaluate(field, x, t).ravel()
        b1 = 4.0 * np.sin(kb * x) * np.cos(wb * t) * np.cos(dw * t)
        b2 = -4.0 * np.cos(kb * x) * np.sin(wb * t) * np.sin(dw * t)
        # Refer the slow envelope to the window center so the local model is
        # exact for any window length: F = cos(dk*xc)*c1 + sin(dk*xc)*c2 with
        # u = x - xc.
        cu = np.cos(dk * (x - xc))
        su = np.sin(dk * (x - xc))
        c1 = (cu * b1 + su * b2).ravel()
        c2 = (cu * b2 - su * b1).ravel()
        coeffs, *_ = np.linalg.lstsq(np.stack([c1, c2], axis=-1), values, rcond=None)
        a_cos[i], a_sin[i] = coeffs
    phase = np.unwrap(np.arctan2(a_sin, a_cos))
    slope = np.polyfit(centers, phase, 1)[0]
    return InternalStateTrace(
        x=centers, a_cos=a_cos, a_sin=a_sin, envelope_wavenumber=float(slope)
    )


def _bisect_speed(target: float, omega0: float) -> float:
    """Solve gamma(beta)*beta*omega0 = target for beta by bisection to a 1e-14 bracket."""
    f = lambda b: gamma_of(b) * b * omega0 - target
    lo, hi = 0.0, BETA_MAX
    if f(hi) < 0:
        raise InvalidConfigError(
            f"no admissible cavity speed below {BETA_MAX}c for target {target}")
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def speed_for_mode(well: Well, n: int) -> float:
    """Cavity speed whose de Broglie wavenumber satisfies dk*W = n*pi."""
    if n < 1:
        raise InvalidConfigError(f"mode index must be >= 1, got {n}")
    return _bisect_speed(n * math.pi / well.W, well.omega0)


def quantized_envelope(dk: float, x):
    """Odd combination of the two travel-direction state helices, sin(dk*x)."""
    return np.sin(dk * np.asarray(x, dtype=float))


def quantize(cfg: Well, n_max: int) -> list[QuantizationReport]:
    """Well-quantized cavity speeds and the Schrodinger correspondence check.

    For each n the speed v_n is root-solved so the superposed +-v envelope
    sin(dk*x) has nodes at both walls; the resulting momentum dk is
    compared with n*pi/W, and the relativistic kinetic energy (gamma-1)*m
    with the infinite-well n**2*pi**2/(2*m*W**2), where m = omega0.
    """
    if n_max < 1:
        raise InvalidConfigError(f"n_max must be >= 1, got {n_max}")
    m = cfg.omega0
    reports = []
    for n in range(1, n_max + 1):
        v_n = speed_for_mode(cfg, n)
        g = gamma_of(v_n)
        dk = g * cfg.omega0 * v_n
        e_kin = m * (g * v_n) ** 2 / (g + 1.0)  # (g - 1)*m without cancellation
        e_sch = n**2 * math.pi**2 / (2.0 * m * cfg.W**2)
        reports.append(
            QuantizationReport(
                n=n,
                v_n=v_n,
                p_n=dk,
                p_schrodinger=n * math.pi / cfg.W,
                kinetic_energy=e_kin,
                schrodinger_energy=e_sch,
            )
        )
    return reports
