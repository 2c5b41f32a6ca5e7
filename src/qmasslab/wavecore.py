"""Scalar plane waves: Doppler boosts, superposition, factorization, measurement.

Natural units throughout (c = hbar = 1).  All waves are lightlike scalars:
the wavenumber always equals omega and is never stored independently.
Measurement utilities (zero-crossing wavelengths, the FFT analytic-signal
envelope, Brent-refined spectral peaks, finite-difference residuals) are the
numerical oracles used to verify the closed forms elsewhere; they need numpy
only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSpanError, InvalidBoostError, InvalidConfigError, InvalidWaveError


def _unit2(vec) -> tuple[float, float]:
    vx, vy = float(vec[0]), float(vec[1])
    norm = math.hypot(vx, vy)
    if not 0.0 < norm < math.inf:
        raise InvalidWaveError(f"direction vector must be nonzero and finite, got {vec}")
    return (vx / norm, vy / norm)


@dataclass(frozen=True)
class PlaneWave:
    """One unit-amplitude scalar traveling wave, sin(k.x - omega*t + phase)."""

    omega: float
    direction: tuple[float, float] = (1.0, 0.0)
    phase: float = 0.0

    def __post_init__(self):
        if not 0 < self.omega < math.inf:
            raise InvalidWaveError(f"omega must be positive and finite, got {self.omega}")
        if not math.isfinite(self.phase):
            raise InvalidWaveError(f"phase must be finite, got {self.phase}")
        object.__setattr__(self, "direction", _unit2(self.direction))


@dataclass(frozen=True)
class Superposition:
    """Ordered, non-empty collection of plane waves; evaluates as their sum."""

    waves: tuple[PlaneWave, ...]

    def __post_init__(self):
        if len(self.waves) == 0:
            raise InvalidWaveError("superposition must contain at least one wave")
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
            raise InvalidWaveError(
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
    """Lorentz factor for a speed beta in units of c."""
    if abs(beta) >= 1.0:
        raise InvalidBoostError(f"|beta| must be < 1, got {beta}")
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
        raise InvalidWaveError(f"omega0 must be positive, got {omega0}")
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
    """Field value at positions (x, 0) and times t; x and t broadcast."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.zeros(np.broadcast_shapes(x.shape, t.shape))
    for w in s.waves:
        kx = w.omega * w.direction[0]
        out = out + np.sin(kx * x - w.omega * t + w.phase)
    return out


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


def zero_crossings(x, values) -> np.ndarray:
    """Positions of sign changes, located by linear interpolation."""
    x = np.asarray(x, dtype=float)
    v = np.asarray(values, dtype=float)
    idx = np.nonzero(v[:-1] * v[1:] < 0.0)[0]
    return x[idx] - v[idx] * (x[idx + 1] - x[idx]) / (v[idx + 1] - v[idx])


def measure_spatial_wavelength(x, values) -> float:
    """Wavelength as twice the mean gap between successive zero crossings."""
    crossings = zero_crossings(x, values)
    if len(crossings) < 3:
        raise InsufficientSpanError(
            f"need at least 3 zero crossings, found {len(crossings)}"
        )
    return 2.0 * float(np.mean(np.diff(crossings)))


def _analytic_signal(v: np.ndarray) -> np.ndarray:
    """FFT analytic signal of a real series: positive frequencies doubled, negative zeroed.

    The DC bin, and for even lengths the Nyquist bin, are kept as they are,
    so the real part is ``v`` and the imaginary part its discrete Hilbert
    transform.  The half spectrum comes from the real-input ``rfft``; the
    complex ``fft`` of the same series can differ in the last bit.
    """
    n = len(v)
    spectrum = np.zeros(n, dtype=complex)
    spectrum[: n // 2 + 1] = np.fft.rfft(v)
    spectrum[1:(n + 1) // 2] *= 2.0
    return np.fft.ifft(spectrum)


def measure_envelope_wavelength(x, values) -> float:
    """Wavelength of the slow envelope of a modulated spatial signal.

    The envelope magnitude is taken from the FFT analytic signal
    (``_analytic_signal``), squared and demeaned so the zero-crossing
    estimator sees a clean oscillation at twice the envelope wavenumber; a
    tenth of the samples at each edge is trimmed against the transform's
    boundary artifacts.
    """
    x = np.asarray(x, dtype=float)
    env2 = np.abs(_analytic_signal(np.asarray(values, dtype=float))) ** 2
    n = len(x) // 10
    sl = slice(n, len(x) - n)
    sig = env2[sl] - env2[sl].mean()
    return 2.0 * measure_spatial_wavelength(x[sl], sig)


def envelope_sampling_grid(b: BidirectionalWave) -> np.ndarray:
    """Spatial grid spanning whole envelope and (near-)whole carrier periods.

    At least 4 envelope periods, 64 points per period of omega_plus.  The
    snapshot of a bidirectional wave holds the spatial frequencies
    k_plus and k_minus; choosing the span commensurate with both keeps the
    FFT-based analytic signal free of boundary artifacts.  A speed below
    about 1/128, a standing wave's 0 included, has no such span with a
    denominator of at most 64.
    """
    from fractions import Fraction

    pair = factor_carrier_envelope(b)
    beta = (b.omega_plus - b.omega_minus) / (b.omega_plus + b.omega_minus)
    p = Fraction(beta).limit_denominator(64).numerator
    if p == 0:
        raise InvalidConfigError(f"speed {beta:.3g} is below about 1/128: no commensurate grid")
    m = p * max(1, math.ceil(4 / p))
    span = m * pair.envelope.wavelength
    dx_target = 2.0 * math.pi / b.omega_plus / 64
    n = round(span / dx_target)
    return np.arange(n) * (span / n)


_SQRT_EPS = math.sqrt(2.2e-16)
_GOLDEN = 0.5 * (3.0 - math.sqrt(5.0))
_BRENT_MAXFUN = 500


def _minimize_bounded(f, a: float, b: float, xatol: float):
    """Minimum of a scalar function on [a, b] by Brent's bounded method.

    Golden-section steps, replaced by a parabolic step through the three best
    points whenever that step falls inside the bracket and shrinks fast
    enough.  It stops once the bracket around the best point is within
    ``2*tol1``, ``tol1 = sqrt(eps)*|x| + xatol/3``, or after
    ``_BRENT_MAXFUN`` evaluations.  This is fmin of Forsythe, Malcolm and
    Moler step for step, with the constants and tolerance update of the
    widely used bounded ``minimize_scalar``, so it returns that routine's
    point after the same evaluations (``tests/test_wavecore.py`` pins this).
    Returns ``(x, f(x), evaluations)``.
    """
    # xf is the best point so far, nfc the second best and fulc the third.
    fulc = a + _GOLDEN * (b - a)
    nfc = xf = fulc
    rat = e = 0.0
    fx = float(f(xf))
    num = 1
    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1
    while abs(xf - xm) > tol2 - 0.5 * (b - a):
        golden = True
        if abs(e) > tol1:
            golden = False
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r = e
            e = rat
            if abs(p) < abs(0.5 * q * r) and q * (a - xf) < p < q * (b - xf):
                rat = p / q
                x = xf + rat
                if x - a < tol2 or b - x < tol2:
                    rat = tol1 if xm >= xf else -tol1
            else:
                golden = True
        if golden:
            e = (a if xf >= xm else b) - xf
            rat = _GOLDEN * e
        x = xf + (1.0 if rat >= 0.0 else -1.0) * max(abs(rat), tol1)
        fu = float(f(x))
        num += 1
        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if fu <= fnfc or nfc == xf:
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif fu <= ffulc or fulc == xf or fulc == nfc:
                fulc, ffulc = x, fu
        xm = 0.5 * (a + b)
        tol1 = _SQRT_EPS * abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1
        if num >= _BRENT_MAXFUN:
            break
    return xf, fx, num


def _refine_peak(times, windowed, omega_lo, omega_hi) -> tuple[float, float]:
    """Maximize the windowed DTFT magnitude inside a bracket by bounded Brent."""

    def neg_mag(om):
        return -abs(np.dot(windowed, np.exp(-1j * om * times)))

    om, fun, _ = _minimize_bounded(neg_mag, omega_lo, omega_hi, (omega_hi - omega_lo) * 1e-10)
    return om, -fun


def measure_temporal_frequencies(times, values, count: int) -> np.ndarray:
    """Angular frequencies of the strongest spectral peaks, refined past bin width.

    Peaks are picked from a Hann-windowed FFT magnitude and each refined by
    maximizing the windowed DTFT magnitude between its neighbouring bins
    with bounded Brent (``_minimize_bounded``).  Returned sorted by descending
    peak magnitude; fewer than ``count`` entries if fewer distinct peaks exist.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if len(t) < 16:
        raise InsufficientSpanError(f"series too short: {len(t)} samples")
    dt = t[1] - t[0]
    if not np.allclose(np.diff(t), dt, rtol=1e-9, atol=0.0):
        raise InsufficientSpanError("time steps must be uniform")
    v = v - v.mean()
    if np.max(np.abs(v)) < 1e-300:
        raise InsufficientSpanError("constant series has no spectral peaks")
    window = np.hanning(len(v))
    wv = window * v
    mags = np.abs(np.fft.rfft(wv))
    omegas = 2.0 * math.pi * np.fft.rfftfreq(len(v), dt)
    interior = np.arange(1, len(mags) - 1)
    is_peak = (mags[interior] >= mags[interior - 1]) & (mags[interior] > mags[interior + 1])
    peak_idx = interior[is_peak & (mags[interior] > 1e-6 * mags.max())]
    if len(peak_idx) == 0:
        raise InsufficientSpanError("no spectral peaks found")
    peak_idx = peak_idx[np.argsort(mags[peak_idx])[::-1][:count]]
    refined = [_refine_peak(t, wv, omegas[i - 1], omegas[i + 1]) for i in peak_idx]
    refined.sort(key=lambda om_mag: -om_mag[1])
    return np.array([om for om, _ in refined])


def sample_grid(
    omega_max: float, x_span: tuple[float, float], t_span: tuple[float, float]
) -> tuple[np.ndarray, np.ndarray]:
    """Uniform space-time grid, 64 points per period of the fastest component."""
    step = 2.0 * math.pi / omega_max / 64  # dx = dt, as c = 1
    x = np.arange(x_span[0], x_span[1] + step / 2, step)
    t = np.arange(t_span[0], t_span[1] + step / 2, step)
    return x, t


def wave_equation_residual(field: Superposition, x: np.ndarray, t: np.ndarray) -> float:
    """Normalized interior maximum of |F_tt - F_xx| by central differences.

    ``field`` is a superposition evaluated on the grid F[i, j] = F(x[i], t[j]);
    the maximum is normalized by max|F| * omega_max**2.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    F = evaluate(field, x[:, None], t[None, :])
    dx = x[1] - x[0]
    dt = t[1] - t[0]
    ftt = (F[:, 2:] - 2.0 * F[:, 1:-1] + F[:, :-2]) / dt**2
    fxx = (F[2:, :] - 2.0 * F[1:-1, :] + F[:-2, :]) / dx**2
    res = ftt[1:-1, :] - fxx[:, 1:-1]
    return float(np.max(np.abs(res)) / (np.max(np.abs(F)) * field.omega_max**2))
