"""Two-slit interference in 2D: local mass field, trajectories, fringe spacing.

Slits sit at (0, +d/2) and (0, -d/2) and radiate with a 1/r amplitude law.
At each point the two wave vectors intersect at an angle theta, giving (in
natural units, c = hbar = 1) the local quantum rest mass
m = omega*sin(theta/2) and the local speed cos(theta/2) along the bisector.
The fringe-spacing oracle integrates nothing of that: it locates maxima of
the exact two-source intensity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSpanError, InvalidConfigError, require_count


@dataclass(frozen=True)
class SlitConfig:
    """Two-slit scenario: slit separation d and source frequency omega.

    Trajectories stay inside x_min <= x <= x_max, |y| <= y_half; mass maps
    blank out a disc of radius ``exclusion_radius`` about each slit.
    """

    d: float
    omega: float

    def __post_init__(self):
        # In this range r*r and 1/(r*r) stay normal floats for 1e-12*d <= r <= 71*d.
        if not 1e-100 <= self.d <= 1e100:
            raise InvalidConfigError(
                f"slit separation must be positive, in [1e-100, 1e100], got {self.d}")
        if not 0 < self.omega < math.inf:
            raise InvalidConfigError(f"omega must be positive and finite, got {self.omega}")

    @property
    def wavelength(self) -> float:
        return 2.0 * math.pi / self.omega

    @property
    def slits(self) -> np.ndarray:
        return np.array([[0.0, self.d / 2.0], [0.0, -self.d / 2.0]])

    @property
    def x_min(self) -> float:
        return 1e-3 * self.d

    @property
    def x_max(self) -> float:
        return 50.0 * self.d

    @property
    def y_half(self) -> float:
        return 50.0 * self.d

    @property
    def exclusion_radius(self) -> float:
        return self.wavelength / 2.0


@dataclass(frozen=True)
class LocalInterferenceState:
    """Per-point kinematics of the two-slit field."""

    m: float
    v: np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Streamline of the local velocity field, arc-length parameterized.

    ``termination`` is ``"boundary"`` (the last point left the domain) or
    ``"max_steps"``.
    """

    points: np.ndarray
    times: np.ndarray
    termination: str


@dataclass(frozen=True)
class FringeReport:
    """Predicted versus measured bright-fringe spacing on a screen.

    ``intensity`` is sampled at ``s``, the arc length (arc screen) or the
    height (line screen) measured from the axis.
    """

    predicted: float
    measured: float
    maxima: np.ndarray
    s: np.ndarray
    intensity: np.ndarray


def _point(p) -> tuple[float, float]:
    """``p`` as a pair of plain floats; ``InvalidConfigError`` unless both are finite."""
    x, y = map(float, p)
    if not (math.isfinite(x) and math.isfinite(y)):
        raise InvalidConfigError(f"point must be finite, got {p}")
    return x, y


def _momentum(z: complex, ih: complex) -> complex:
    """Unit momentum n = (w1*u1 + w2*u2)/(w1 + w2) at z = x + iy, slits at +-ih.

    u_i is the unit vector from slit i to the point and w_i = 1/r_i**2 its
    energy weight, with r_i = abs(z -+ ih), libm ``hypot``.  For x > 0 each
    complex sum, product with a real and quotient by a real rounds exactly as
    its two real components do (the zero terms of the real's r + 0j leave a
    nonzero component alone, and x and the real part of n stay positive), so
    this is bit for bit the plain-float kernel on (x, y) whose operation order
    the trajectory digests of ``tests/test_golden.py`` pin.  No slit check:
    ``integrate_trajectory``'s domain keeps x >= 1e-3*d, and
    ``weighted_local_state`` checks its point first.
    """
    z1, z2 = z - ih, z + ih
    r1, r2 = abs(z1), abs(z2)
    w1, w2 = 1.0 / (r1 * r1), 1.0 / (r2 * r2)
    return (w1 * (z1 / r1) + w2 * (z2 / r2)) / (w1 + w2)


def intersection_angle(p, cfg: SlitConfig) -> float:
    """Angle in [0, pi] between the two wave vectors meeting at p.

    Built from its own unit vectors, so tests can check ``weighted_local_state``
    against it; BLAS ``np.dot`` rounds unlike a*b + c*d.
    """
    rel = np.array(_point(p)) - cfg.slits
    r = np.hypot(rel[:, 0], rel[:, 1])
    if r.min() < 1e-12 * cfg.d:
        raise InvalidConfigError(f"point {p} coincides with a slit")
    u1, u2 = rel / r[:, None]
    return math.acos(min(max(float(np.dot(u1, u2)), -1.0), 1.0))


def local_mass(theta: float, omega: float) -> float:
    """Local quantum rest mass omega*sin(theta/2)."""
    return omega * math.sin(theta / 2.0)


def local_speed(theta: float) -> float:
    """Local group speed cos(theta/2); zero for the standing case theta = pi."""
    return math.cos(theta / 2.0)


def weighted_local_state(p, cfg: SlitConfig) -> LocalInterferenceState:
    """Amplitude-weighted local kinematics, valid near the slits and far from them.

    With energy weights w_i = a_i**2 the normalized momentum is
    n = (w1*u1 + w2*u2)/(w1 + w2); then v = n and m = omega*sqrt(1 - |n|**2).
    Equal weights reduce to the sin/cos forms of ``local_mass`` and
    ``local_speed``; a vanishing weight gives a massless radial wave.
    """
    x, y = _point(p)
    z, ih = complex(x, y), complex(0.0, cfg.d / 2.0)
    if min(abs(z - ih), abs(z + ih)) < 1e-12 * cfg.d:
        raise InvalidConfigError(f"point {p} coincides with a slit")
    n = _momentum(z, ih)
    m = cfg.omega * math.sqrt(max(0.0, 1.0 - abs(n)**2))
    return LocalInterferenceState(m=m, v=np.array([n.real, n.imag]))


def integrate_trajectory(start, cfg: SlitConfig, max_steps: int) -> Trajectory:
    """Fixed-step RK4 streamline of the local velocity direction field.

    Arc-length parameterized with step d/100; elapsed time accumulates as
    step/|v|.  Terminates at the domain boundary or at ``max_steps``.  A start
    outside x_min <= x <= x_max, |y| <= y_half, a non-finite one or a
    ``max_steps`` that is not a non-negative int raises ``InvalidConfigError``.
    Each RK4 stage's direction has a positive x, so x only grows from
    x_min = 1e-3*d: no stage reaches a slit, and |v| >= x/max(r1, r2) > 1e-5
    keeps every stage off a stagnation point.  The RK4 runs on complex points,
    one ``_momentum`` call per stage, bit for bit the plain-float loop on (x, y).
    """
    x, y = _point(start)
    x_min, x_max, y_half = cfg.x_min, cfg.x_max, cfg.y_half
    if not (x_min <= x <= x_max and abs(y) <= y_half):
        raise InvalidConfigError(f"start ({x}, {y}) lies outside {x_min:g} <= x <= {x_max:g}, "
                                 f"|y| <= {y_half:g}")
    require_count("max_steps", max_steps, 0)
    # A numpy d would make each product with the step numpy complex arithmetic,
    # whose quotient by a real rounds twice (it multiplies by the reciprocal).
    step = float(cfg.d) / 100.0
    half, sixth = 0.5 * step, step / 6.0
    z, ih = complex(x, y), complex(0.0, cfg.d / 2.0)
    points, times = [z], [0.0]
    t = 0.0
    termination = "max_steps"
    for _ in range(max_steps):
        n = _momentum(z, ih)
        n_mag = abs(n)
        a = n / n_mag
        n = _momentum(z + half * a, ih)
        b = n / abs(n)
        n = _momentum(z + half * b, ih)
        c = n / abs(n)
        n = _momentum(z + step * c, ih)
        z = z + sixth * (a + 2.0 * b + 2.0 * c + n / abs(n))
        t = t + step / n_mag
        points.append(z)
        times.append(t)
        if not (x_min <= z.real <= x_max and abs(z.imag) <= y_half):
            termination = "boundary"
            break
    points = np.array(points)
    return Trajectory(np.column_stack((points.real, points.imag)), np.array(times), termination)


def fringe_gap_predicted(cfg: SlitConfig, D: float, screen: str = "arc") -> float:
    """Mean gap of the 5 central maxima (orders -2 to 2) on the arc or line screen.

    The 2nd-order maximum lies where the path difference r2 - r1 is
    Delta = 2*lambda: on the arc of radius D at the angle
    asin(Delta*sqrt(4*D**2 + d**2 - Delta**2)/(2*D*d)), on the line x = D where
    that hyperbola crosses it.  The gap is half its arc length or height.
    Needs Delta < d, and on the arc D >= Delta/2; any other input raises
    ``InvalidConfigError``.  For D >> d and lambda << d both tend to D*lambda/d.
    """
    delta = 2.0 * cfg.wavelength
    d = cfg.d
    if screen not in ("arc", "line"):
        raise InvalidConfigError(f"unknown screen kind {screen!r}; choose 'arc' or 'line'")
    if not (delta < d and (screen == "line" or D >= delta / 2.0)):
        raise InvalidConfigError(f"no 2nd-order maximum at D = {D:g} for d = {d:g} and "
                                 f"wavelength = {cfg.wavelength:g}")
    if screen == "arc":
        return D * math.asin(delta * math.sqrt(4.0 * D**2 + d**2 - delta**2) / (2.0 * D * d)) / 2.0
    return delta / (4.0 * d) * math.sqrt((4.0 * D**2 + d**2 - delta**2) / (1.0 - (delta / d) ** 2))


def screen_intensity(cfg: SlitConfig, points) -> np.ndarray:
    """Time-averaged intensity at (x, y) points, 1/r amplitudes, r = hypot(x, y -+ d/2)."""
    points = np.asarray(points, dtype=float)
    x, y, h = points[..., 0], points[..., 1], cfg.d / 2.0
    r1, r2 = np.hypot(x, y - h), np.hypot(x, y + h)
    a1, a2 = 1.0 / r1, 1.0 / r2
    return a1**2 + a2**2 + 2.0 * a1 * a2 * np.cos(cfg.omega * (r1 - r2))


#: Far-field fringe spacings D*lambda/d spanned by the fringe-spacing oracle's screen.
SCREEN_FRINGES = 7.0

#: Largest screen phase omega*D the fringe-spacing oracle accepts.
#: ``screen_intensity`` rounds r1 - r2 at radius D, so the phase carries noise
#: of about omega*eps*D; a sweep over d, lambda/d and both screens saw the
#: spacing gate first fail between omega*D = 3e14 and 1e15, ~300x above this.
MAX_SCREEN_PHASE = 1e12

#: Least screen distance D/d the fringe-spacing oracle accepts.  Nearer, the
#: slits' unequal 1/r amplitudes move the maxima off ``fringe_gap_predicted``
#: on the arc (worst over lambda/d < pi/7: 7.7e-3 at D/d = 2, 1.5e-2 at 1.5).
MIN_SCREEN_DISTANCE = 2.0

#: Largest lambda/d the flat (line) screen accepts.  Along it the 1/r**2
#: fall-off moves the maxima off ``fringe_gap_predicted`` (1.1e-2 at 0.25),
#: and near 0.44 the 2nd-order maxima leave the screen.
MAX_LINE_WAVELENGTH = 0.2


def fringe_spacing_measured(cfg: SlitConfig, D: float, screen: str = "arc") -> FringeReport:
    """Independent fringe-spacing oracle: locate intensity maxima on a screen.

    The screen is an arc of radius D about the midpoint (default) or the
    vertical line x = D, spans SCREEN_FRINGES far-field spacings D*lambda/d and
    is sampled 64 times per spacing.  Maxima are refined by quadratic
    interpolation and the spacing is the mean gap of the 5 maxima nearest the
    axis, predicted by ``fringe_gap_predicted``.  The arc spans
    SCREEN_FRINGES/2*lambda/d radians either side of the axis, so lambda/d
    must stay below pi/SCREEN_FRINGES, in front of the slit plane; the line
    screen needs lambda/d <= MAX_LINE_WAVELENGTH.  Both need
    D >= MIN_SCREEN_DISTANCE*d and omega*D <= MAX_SCREEN_PHASE.
    """
    ratio = cfg.wavelength / cfg.d
    if SCREEN_FRINGES / 2.0 * ratio >= math.pi / 2.0:
        raise InvalidConfigError(
            f"wavelength/d = {ratio:.3g} must be below "
            f"pi/{SCREEN_FRINGES:g}: the screen would reach behind the slits")
    if screen == "line" and ratio > MAX_LINE_WAVELENGTH:
        raise InvalidConfigError(
            f"wavelength/d = {ratio:.3g} must be <= {MAX_LINE_WAVELENGTH:g} on the line "
            "screen: its 1/r**2 fall-off moves the maxima")
    if not D >= MIN_SCREEN_DISTANCE * cfg.d:
        raise InvalidConfigError(
            f"D/d = {D / cfg.d:.3g} must be >= {MIN_SCREEN_DISTANCE:g}: nearer, the "
            "unequal slit amplitudes move the maxima")
    spacing = D * cfg.wavelength / cfg.d  # the far-field spacing, the screen's unit
    if not math.isfinite(spacing):
        raise InvalidConfigError(f"fringe spacing D*lambda/d overflows for D = {D}")
    if not cfg.omega * D <= MAX_SCREEN_PHASE:
        raise InvalidConfigError(
            f"omega*D = {cfg.omega * D:.3g} exceeds {MAX_SCREEN_PHASE:g}: the screen "
            "intensity cannot resolve r1 - r2 at that distance")
    predicted = fringe_gap_predicted(cfg, D, screen)  # rejects an unknown screen
    half_span = SCREEN_FRINGES / 2.0 * spacing
    n = int(SCREEN_FRINGES * 64) | 1
    s = np.linspace(-half_span, half_span, n)
    if screen == "arc":
        phi = s / D
        pts = np.stack([D * np.cos(phi), D * np.sin(phi)], axis=-1)
    else:
        pts = np.stack([np.full_like(s, D), s], axis=-1)
    intensity = screen_intensity(cfg, pts)
    i = np.arange(1, n - 1)
    mask = (intensity[i] > intensity[i - 1]) & (intensity[i] >= intensity[i + 1])
    peaks = i[mask]
    if len(peaks) < 3:
        raise InsufficientSpanError(f"only {len(peaks)} maxima on screen")
    # Quadratic vertex through each maximum and its neighbours.
    ds = s[1] - s[0]
    y0, y1, y2 = intensity[peaks - 1], intensity[peaks], intensity[peaks + 1]
    offset = 0.5 * (y0 - y2) / (y0 - 2.0 * y1 + y2)
    maxima = s[peaks] + offset * ds
    central = maxima[np.argsort(np.abs(maxima))[:5]]
    central.sort()
    measured = float(np.mean(np.diff(central)))
    return FringeReport(
        predicted=predicted,
        measured=measured,
        maxima=maxima,
        s=s,
        intensity=intensity,
    )


def mass_map(cfg: SlitConfig, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Local quantum rest mass on a grid; NaN inside the slit exclusion radius.

    Returns an array of shape (len(x), len(y)) with [i, j] = m(x[i], y[j]).
    Every cell is the same elementwise IEEE result whatever else is on the
    grid, so mapping a grid one block of rows per call, as the
    ``doubleslit-map`` scenario streams it to its CSV, gives the same bits.
    Axes that are not finite are rejected.
    """
    X, y = np.asarray(x, float)[:, None], np.asarray(y, float)
    if not (np.isfinite(X).all() and np.isfinite(y).all()):
        raise InvalidConfigError("map axes must be finite")
    y1, y2 = y - cfg.d / 2.0, y + cfg.d / 2.0
    r1 = np.hypot(X, y1)
    r2 = np.hypot(X, y2)
    excluded = (r1 < cfg.exclusion_radius) | (r2 < cfg.exclusion_radius)
    r1 = np.where(excluded, np.nan, r1)
    r2 = np.where(excluded, np.nan, r2)
    w1, w2 = 1.0 / r1**2, 1.0 / r2**2
    nx = (w1 * X / r1 + w2 * X / r2) / (w1 + w2)
    ny = (w1 * y1 / r1 + w2 * y2 / r2) / (w1 + w2)
    n2 = np.clip(nx**2 + ny**2, 0.0, 1.0)
    return cfg.omega * np.sqrt(1.0 - n2)
