"""Scalar plane waves: Doppler boosts, superposition, factorization, measurement.

Natural units throughout (c = hbar = 1).  All waves are lightlike scalars:
the wavenumber always equals omega and is never stored independently.
Measurement utilities (the two tones of a series by linear prediction, solved
from one Householder QR with the rank, residual and roots in closed form, with
a two-tone kernel in time and the envelope wavelength in space built on it,
and finite-difference residuals) are the numerical oracles used to
verify the closed forms elsewhere; they need numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSpanError, InvalidConfigError


def _unit2(vec) -> tuple[float, float]:
    vx, vy = float(vec[0]), float(vec[1])
    norm = math.hypot(vx, vy)
    if not 0.0 < norm < math.inf:
        raise InvalidConfigError(f"direction vector must be nonzero and finite, got {vec}")
    return (vx / norm, vy / norm)


@dataclass(frozen=True)
class PlaneWave:
    """One unit-amplitude scalar traveling wave, sin(k.x - omega*t + phase)."""

    omega: float
    direction: tuple[float, float] = (1.0, 0.0)
    phase: float = 0.0

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise InvalidConfigError(f"omega must be positive and finite, got {self.omega}")
        if not math.isfinite(self.phase):
            raise InvalidConfigError(f"phase must be finite, got {self.phase}")
        object.__setattr__(self, "direction", _unit2(self.direction))


@dataclass(frozen=True)
class Superposition:
    """Ordered, non-empty collection of plane waves; evaluates as their sum."""

    waves: tuple[PlaneWave, ...]

    def __post_init__(self):
        if len(self.waves) == 0:
            raise InvalidConfigError("superposition must contain at least one wave")
        object.__setattr__(self, "waves", tuple(self.waves))

    @property
    def omega_max(self) -> float:
        return max(w.omega for w in self.waves)


@dataclass(frozen=True)
class BidirectionalWave:
    """Counter-propagating frequency pair on one axis, omega_plus >= omega_minus.

    The axis is oriented so the net momentum points along +axis.
    """

    omega_plus: float
    omega_minus: float
    axis: tuple[float, float] = (1.0, 0.0)

    def __post_init__(self):
        if not (math.inf > self.omega_plus >= self.omega_minus > 0):
            raise InvalidConfigError(
                f"need finite omega_plus >= omega_minus > 0, got "
                f"({self.omega_plus}, {self.omega_minus})"
            )
        object.__setattr__(self, "axis", _unit2(self.axis))


@dataclass(frozen=True)
class WaveFactor:
    """One factor of a product form: wavenumber and angular frequency."""

    wavenumber: float
    omega: float

    @property
    def phase_speed(self) -> float:
        if self.wavenumber == 0.0:
            return math.inf
        return self.omega / self.wavenumber

    @property
    def wavelength(self) -> float:
        if self.wavenumber == 0.0:
            return math.inf
        return 2.0 * math.pi / abs(self.wavenumber)


@dataclass(frozen=True)
class CarrierEnvelopePair:
    """Product factorization 2 * sin(envelope) * cos(carrier) of a bidirectional wave."""

    carrier: WaveFactor
    envelope: WaveFactor


def gamma_of(beta: float) -> float:
    """Lorentz factor for a speed beta in units of c; NaN is rejected too."""
    if not abs(beta) < 1.0:
        raise InvalidConfigError(f"|beta| must be < 1, got {beta}")
    return 1.0 / math.sqrt(1.0 - beta * beta)


def doppler_boost(w: PlaneWave, beta: float) -> PlaneWave:
    """Boost a plane wave by +beta along the x-axis.

    Convention: omega' = gamma * omega * (1 + beta * d_x), the direction
    transformed by relativistic aberration.  beta = 0 returns the input
    exactly.
    """
    if beta == 0.0:
        return w
    g = gamma_of(beta)
    dx, dy = w.direction
    omega_p = g * w.omega * (1.0 + beta * dx)
    # Null four-vector transform of k = omega*d: k'_x = gamma*(k_x + beta*omega), k'_y = k_y.
    kx_p = g * (dx + beta)
    ky_p = dy
    return PlaneWave(omega_p, (kx_p, ky_p), w.phase)


def boost_standing_wave(omega0: float, beta: float) -> BidirectionalWave:
    """Frequency pair of a rest-frame standing wave seen after a boost by beta.

    omega_plus = gamma*omega0*(1+|beta|), omega_minus = gamma*omega0*(1-|beta|),
    with the axis oriented along the boost direction.  The product
    omega_plus*omega_minus equals omega0**2.
    """
    if omega0 <= 0:
        raise InvalidConfigError(f"omega0 must be positive, got {omega0}")
    if beta == 0.0:
        return BidirectionalWave(omega0, omega0)
    g = gamma_of(beta)
    axis = (1.0, 0.0) if beta > 0 else (-1.0, 0.0)
    b = abs(beta)
    return BidirectionalWave(g * omega0 * (1.0 + b), g * omega0 * (1.0 - b), axis)


def superposition_of(b: BidirectionalWave) -> Superposition:
    """Two counter-propagating plane waves realizing ``b``."""
    ax = b.axis
    return Superposition((PlaneWave(b.omega_plus, ax), PlaneWave(b.omega_minus, (-ax[0], -ax[1]))))


def evaluate(s: Superposition, x, t):
    """Field value at positions (x, 0) and times t; x and t broadcast.

    Summed in place from +0.0, which no -0.0 term changes: a zero phase is skipped.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.zeros(np.broadcast_shapes(x.shape, t.shape))
    arg = np.empty_like(out)
    for w in s.waves:
        np.multiply(t, w.omega, out=arg)
        np.subtract(w.omega * w.direction[0] * x, arg, out=arg)
        if w.phase:
            arg += w.phase
        out += np.sin(arg, out=arg)
    return out[()]  # a numpy scalar, not a 0-d array, when x and t are scalars


def factor_carrier_envelope(b: BidirectionalWave) -> CarrierEnvelopePair:
    """Factor a bidirectional wave into superluminal envelope times carrier.

    With k_pm = omega_pm the product form (x measured along the axis) is

        2 * sin(dk*x - wbar*t) * cos(kbar*x - dw*t)

    where dk = (k+ - k-)/2, wbar = (w+ + w-)/2 (the envelope factor, phase
    speed 1/v >= 1) and kbar = (k+ + k-)/2, dw = (w+ - w-)/2 (the
    carrier, phase speed v <= 1).
    """
    kp, km = b.omega_plus, b.omega_minus
    envelope = WaveFactor((kp - km) / 2.0, (b.omega_plus + b.omega_minus) / 2.0)
    carrier = WaveFactor((kp + km) / 2.0, (b.omega_plus - b.omega_minus) / 2.0)
    return CarrierEnvelopePair(carrier, envelope)


def evaluate_product(pair: CarrierEnvelopePair, x, t):
    """Evaluate the factorized form 2*sin(envelope)*cos(carrier)."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    env = np.sin(pair.envelope.wavenumber * x - pair.envelope.omega * t)
    car = np.cos(pair.carrier.wavenumber * x - pair.carrier.omega * t)
    return 2.0 * env * car


#: Speeds for which ``envelope_sampling_grid`` builds a grid.  The grid is the
#: x column of ``boost``'s ``field.csv``, whose bytes the benchmark pins, and
#: the benchmark calls it, so it and this range stay as they are; the envelope
#: oracle itself takes any uniform grid.  Slower speeds need ever longer grids.
#: Both ends sit just outside [1/128, 0.99], so that the speed recomputed from
#: a frequency pair boosted by a beta in that range passes despite rounding.
ENVELOPE_SPEED_MIN = 0.0078
ENVELOPE_SPEED_MAX = 0.992


def envelope_sampling_grid(b: BidirectionalWave) -> np.ndarray:
    """Spatial grid spanning whole envelope and (near-)whole carrier periods.

    At least 4 envelope periods, 64 points per period of omega_plus.  The
    span is a multiple of the envelope wavelength found from a ``Fraction``
    of the speed; it fixes the bytes of ``boost``'s ``field.csv``, which the
    benchmark pins.  The speed must lie in
    [ENVELOPE_SPEED_MIN, ENVELOPE_SPEED_MAX); a standing wave's 0 does not.
    """
    from fractions import Fraction

    pair = factor_carrier_envelope(b)
    beta = (b.omega_plus - b.omega_minus) / (b.omega_plus + b.omega_minus)
    if not ENVELOPE_SPEED_MIN <= beta < ENVELOPE_SPEED_MAX:
        raise InvalidConfigError(
            f"speed {beta:.3g} is outside [{ENVELOPE_SPEED_MIN}, {ENVELOPE_SPEED_MAX}): "
            "no commensurate grid")
    p = Fraction(beta).limit_denominator(256).numerator
    m = p * max(1, math.ceil(4 / p))
    span = m * pair.envelope.wavelength
    dx_target = 2.0 * math.pi / b.omega_plus / 64
    n = round(span / dx_target)
    return np.arange(n) * (span / n)


def _uniform_step(name: str, a: np.ndarray):
    """``a[1] - a[0]`` of an axis whose steps are positive and agree to 1e-9 of it."""
    step = a[1] - a[0]
    if not step > 0.0:
        raise InvalidConfigError(f"{name} step must be positive, got {step}")
    deviation = a[1:] - a[:-1]
    deviation -= step
    if np.abs(deviation, out=deviation).max() > 1e-9 * step:
        raise InvalidConfigError(f"{name} steps must be uniform")
    return step


def _triangle_singular_values(a: float, b: float, d: float) -> tuple[float, float]:
    """``(s_max, s_min)`` of the upper-triangular [[a, b], [0, d]], in closed form.

    s_max**2 + s_min**2 = a**2 + b**2 + d**2 and s_max * s_min = |a*d|, so
    s_max +- s_min = hypot(|a| +- |d|, b).  s_min is taken from the product,
    which does not cancel when it is small.
    """
    s_max = (math.hypot(abs(a) + abs(d), b) + math.hypot(abs(a) - abs(d), b)) / 2.0
    return s_max, abs(a * d) / s_max if s_max else 0.0


def measure_temporal_frequencies(times, values) -> np.ndarray:
    """Angular frequencies of a series that is a sum of two tones, highest first.

    ``times`` must be finite, uniform and increasing, ``values`` finite and
    of the same length, at least 16 samples.  A tone w obeys
    s[k-1] + s[k+1] = u*s[k] with u = 2*cos(w*dt), so a sum of two tones is
    annihilated by a monic quadratic in that neighbour sum whose roots are
    the tones' u (Prony's linear prediction).  Columns y_0 = s,
    y_1 = y_0[:-2] + y_0[2:] and y_2 = y_1[:-2] + y_1[2:], each trimmed to
    y_2's length, go into one Householder QR with the target y_2 last; R is
    the upper triangle of the transposed raw array.  Its leading 2 x 2 block
    is the columns' own, its last column the target's projections, its last
    diagonal the residual (Golub & Van Loan, Matrix Computations, 5.3).  The
    block's singular values come in closed form, the coefficients by
    back-substitution and the roots from the stable quadratic formula.  The
    raw series is used: removing its mean or differencing it would bias the
    slow tones.  A series that is not two tones raises
    ``InsufficientSpanError``: one tone leaves the columns rank deficient
    (s_min <= eps * rows * s_max, lstsq's own rule) unless its samples round
    a large phase w*t, whose noise can pass as a second tone; more tones or
    a sizeable offset leave a residual above 1e-6 of 4 * ||s||, and a root
    that is not real and inside (-2, 2) is no tone.  Each neighbour sum at
    most doubles a norm, so 4 * ||s|| bounds the target column whatever the
    tones: the residual is measured against the input, not against that
    column, which all but vanishes when the fastest tone is sampled a few
    times per period (at four, ``measure_tone_pair``'s spacing, its u is ~0).
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != v.shape:
        raise InvalidConfigError(
            f"times and values must be 1-D of one length, got {t.shape} and {v.shape}")
    top, bottom = (float(v.max()), float(v.min())) if len(v) else (0.0, 0.0)
    if not (np.isfinite(t).all() and math.isfinite(top) and math.isfinite(bottom)):
        raise InvalidConfigError("times and values must be finite")
    if len(t) < 16:
        raise InsufficientSpanError(f"series too short: {len(t)} samples")
    dt = float(_uniform_step("time", t))
    if top == bottom:
        raise InsufficientSpanError("constant series has no spectral peaks")
    v = np.ldexp(v, -math.frexp(max(top, -bottom))[1])  # exact: no norm over- or underflows
    y1 = v[:-2] + v[2:]
    cols = np.stack([v[2:-2], y1[1:-1], y1[:-2] + y1[2:]], axis=1)
    r = np.linalg.qr(cols, mode="raw")[0][:, :3].T.tolist()
    a, b, d = r[0][0], r[0][1], r[1][1]
    s_max, s_min = _triangle_singular_values(a, b, d)
    if s_min <= np.finfo(float).eps * len(cols) * s_max:
        raise InsufficientSpanError("series holds fewer than 2 tones")
    if not abs(r[2][2]) <= 1e-6 * 4.0 * math.sqrt(v @ v):
        raise InsufficientSpanError("series is not a sum of 2 tones")
    # Back-substitution gives u**2 + c1*u + c0.  q never cancels, and it is 0
    # only when both roots are.
    c1 = -r[1][2] / d
    c0 = -(r[0][2] + b * c1) / a
    discriminant = c1 * c1 - 4.0 * c0
    if discriminant < 0.0:
        raise InsufficientSpanError(f"series holds a component that is not a tone: "
                                    f"u**2 + {c1:.6g}*u + {c0:.6g} has complex roots")
    q = -(c1 + math.copysign(math.sqrt(discriminant), c1)) / 2.0
    u = [q, c0 / q if q else 0.0]
    if not all(abs(root) < 2.0 for root in u):
        raise InsufficientSpanError(f"series holds a component that is not a tone: u = {u}")
    return np.array([math.acos(root / 2.0) / dt for root in sorted(u)])


def measure_envelope_wavelength(x, values) -> float:
    """Envelope wavelength 4*pi/(k_plus - k_minus) of a bidirectional snapshot.

    A snapshot of a bidirectional wave on a uniform axis ``x`` is a sum of
    two spatial tones, k_plus and k_minus; ``measure_temporal_frequencies``
    finds both, and the envelope factor's wavenumber is their half-difference.
    """
    k_plus, k_minus = measure_temporal_frequencies(x, values)
    return float(4.0 * math.pi / (k_plus - k_minus))


#: ``measure_tone_pair`` evaluates and solves on every 4th of its 16 samples
#: per period of the fastest tone: a quarter period, where that tone's cos is
#: steepest and its root u = 2*cos(w*dt) sits at 0.  On all 16 the cos is
#: flat, the roots of close tones nearly coincide, and the solve fits 4x the
#: rows for less accuracy: over 300 random box-beat cases the slow tone missed
#: by up to 1.5e-5 on all samples and 1.1e-9 on every 4th.
_TONE_SOLVE_STRIDE = 4


def measure_tone_pair(field: Superposition, x: float, beat: float):
    """``(t, hi, lo)``: the two tones of a two-tone ``field`` at ``x``, and its time axis.

    ``t`` holds 16 samples per period of ``field.omega_max`` and spans 8
    periods of the slower of ``beat``, the tones' half-difference as the
    caller knows it, and the lower tone: over fewer periods the two tones'
    prediction columns, and near c the lower tone and a constant, grow too
    alike for ``measure_temporal_frequencies`` to tell apart.  The field is
    evaluated, and its tones solved, only on every ``_TONE_SOLVE_STRIDE``-th
    time, a quarter period of the fastest tone; ``evaluate`` is elementwise,
    so those values are bit for bit the whole series' every 4th, which a
    caller that needs it evaluates on ``t``.  A ``beat`` that is not finite
    and positive, or an axis of more than 2**20 samples, is rejected.
    """
    if not 0 < beat < math.inf:
        raise InvalidConfigError(f"beat must be positive and finite, got {beat}")
    slowest = min(beat, min(w.omega for w in field.waves))
    duration = 8.0 * 2.0 * math.pi / slowest
    dt = 2.0 * math.pi / field.omega_max / 16.0
    if duration / dt > 2**20:
        raise InvalidConfigError(f"tones up to {field.omega_max:g} over 8 periods of "
                                 f"{slowest:g} need more than 2**20 samples")
    t = np.arange(0.0, duration, dt)
    solved = t[::_TONE_SOLVE_STRIDE]
    hi, lo = measure_temporal_frequencies(solved, evaluate(field, x, solved))
    return t, hi, lo


def sample_grid(
    omega_max: float, x_span: tuple[float, float], t_span: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform space-time grid, 64 points per period of the fastest component."""
    step = 2.0 * math.pi / omega_max / 64  # dx = dt, as c = 1
    x = np.arange(x_span[0], x_span[1] + step / 2, step)
    t = np.arange(t_span[0], t_span[1] + step / 2, step)
    return x, t


#: Cells in each block of x rows whose residual ``wave_equation_residual``
#: forms at once (at least one row): a block's 128 KiB product stays in a
#: core's cache, and the memory does not grow with the grid.  On a 400x400
#: grid (min of 4 rounds of 7x30 calls, one core of a 2-vCPU Xeon) 4k, 8k,
#: 16k, 32k and 64k cells took 0.80, 0.61, 0.59, 0.58 and 0.83 ms for the
#: standing wave and 1.28, 1.23, 1.06, 1.02 and 1.27 ms for the 4-wave box
#: field, but three more rounds of 16k, 24k and 32k read 0.59-0.61,
#: 0.71-0.73 and 0.75-0.76 ms, and 1.08-1.11, 1.12-1.16 and 1.16-1.20 ms:
#: smaller blocks pay numpy's per-call cost more often, and 16k stays a step
#: below where larger ones fall out of the cache.
_RESIDUAL_BLOCK_CELLS = 16384


def _grid_axis(name: str, a):
    """``a`` and its step, for a finite, uniform, increasing axis of >= 3 points."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 1 or len(a) < 3 or not np.isfinite(a).all():
        raise InvalidConfigError(
            f"{name} must be a finite 1-D axis of at least 3 points, got shape {a.shape}")
    return a, _uniform_step(name, a)


def wave_equation_residual(field: Superposition, x, t) -> float:
    """Interior maximum of |F_tt - F_xx| by central differences, over its waves' bound.

    ``field`` is a superposition on the grid F[i, j] = F(x[i], t[j]); the
    maximum is divided by len(waves) * omega_max**2.  A unit wave's exact and
    central-difference second derivatives are at most omega**2 in size, so
    that is the largest |F_tt| or |F_xx| the field can have: the reading lies
    in [0, 2] up to rounding, is scale-free, and comes from the input, not
    from the grid, so waves that cancel on the grid do not raise it.  ``x``
    and ``t`` must be finite, uniform and increasing, with at least 3 points
    each and one step on both (to 1e-9 of it): central differences cancel
    their truncation error only on that diagonal grid, so a correct standing
    wave read 8.1e-7 at dt = 0.999*dx and 3.0e-4 at dx/2.  The step and
    ``omega_max`` must lie in [1e-150, 1e150], where every square and
    inverse square is a normal float.  Each wave
    sin(kx*x - w*t + p) is sin(a)*cos(b) - cos(a)*sin(b) with a = kx*x + p
    and b = w*t, so F = fx @ ft, with sin(a) and -cos(a) per wave in fx and
    cos(b) and sin(b) in ft.  Central differences are linear, so
    F_tt - F_xx = fx @ ft_tt - fx_xx @ ft = [fx | -fx_xx] @ [ft_tt ; ft]:
    each factor is differenced once along its own axis and stored beside
    itself, in O(nx + nt) memory.  That one product is formed a block of x
    rows at a time, so memory does not grow with the grid, and by
    ``np.einsum``, whose own loop sums each cell in the same order whatever
    rows its block holds (BLAS ``@`` does not), so the result does not depend
    on the blocks.  It does not call ``evaluate``: the factored field differs
    from it in the last bits (within 2*len(waves)*eps*(1 + |kx*x| + |w*t| +
    |p|)), which the residual does not see but the CSVs ``evaluate`` writes
    would.
    """
    x, dx = _grid_axis("x", x)
    t, dt = _grid_axis("t", t)
    if abs(dt - dx) > 1e-9 * dx:
        raise InvalidConfigError(f"t step must equal x step (c = 1), got {dt:g} and {dx:g}")
    for name, value in (("x step", dx), ("t step", dt), ("omega_max", field.omega_max)):
        if not 1e-150 <= value <= 1e150:
            raise InvalidConfigError(f"{name} must lie in [1e-150, 1e150], got {value:g}")
    # [fx | -fx_xx] and [ft_tt ; ft], filled in place.  The second differences
    # fill interior rows and columns only, and only those are read.
    n = 2 * len(field.waves)
    fx = np.empty((len(x), 2 * n))
    ft = np.empty((2 * n, len(t)))
    for k, w in enumerate(field.waves):
        a = w.omega * w.direction[0] * x + w.phase
        b = w.omega * t
        fx[:, 2 * k] = np.sin(a)
        fx[:, 2 * k + 1] = -np.cos(a)
        ft[n + 2 * k] = np.cos(b)
        ft[n + 2 * k + 1] = np.sin(b)
    fx[1:-1, n:] = (fx[2:, :n] - 2.0 * fx[1:-1, :n] + fx[:-2, :n]) / -dx**2
    ft[:n, 1:-1] = (ft[n:, 2:] - 2.0 * ft[n:, 1:-1] + ft[n:, :-2]) / dt**2
    fx_in, ft_in = fx[1:-1], ft[:, 1:-1]
    rows = max(1, _RESIDUAL_BLOCK_CELLS // len(t))
    worst = 0.0
    for i in range(0, len(x) - 2, rows):
        res = np.einsum("ik,kj->ij", fx_in[i:i + rows], ft_in)
        # np.maximum, unlike max(), keeps a NaN from any block.
        worst = np.maximum(worst, np.max(np.abs(res, out=res)))
    return float(worst / (len(field.waves) * field.omega_max**2))
