"""Two-slit interference in 2D: local mass field, trajectories, fringe spacing.

Slits sit at (0, +d/2) and (0, -d/2) and radiate with a 1/r amplitude law.
At each point the two wave vectors intersect at an angle theta, giving (in
natural units, c = hbar = 1) the local quantum rest mass
m = omega*sin(theta/2) and the local speed cos(theta/2) along the bisector.
The fringe-spacing oracle integrates nothing of that: it locates maxima of
the exact two-source intensity.
"""

from __future__ import annotations

import enum
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import InsufficientSpanError, InvalidConfigError, SingularPointError


class Region(enum.Enum):
    NEAR_SLIT_1 = "near_slit_1"
    NEAR_SLIT_2 = "near_slit_2"
    BALANCED = "balanced"
    TRANSITION = "transition"


#: Amplitude ratio min(a_i)/max(a_i) at or above which a point is balanced.
BALANCED_THRESHOLD = 0.9
#: Amplitude ratio at or below which a point is near the stronger slit.
NEAR_THRESHOLD = 0.1


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
    """Streamline of the local velocity field, arc-length parameterized."""

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


def _hypot(x: float, y: float) -> float:
    """libm ``hypot``, the one ``np.hypot`` calls; ``math.hypot`` differs in the last bit."""
    return abs(complex(x, y))


def _point_state(p, cfg: SlitConfig):
    """Distances r and unit vectors u from each slit to p, and the unit momentum n.

    n = (w1*u1 + w2*u2)/(w1 + w2) with energy weights w_i = 1/r_i**2, in plain
    floats that repeat the numpy form's operation order bit for bit.
    """
    x, y = p
    h = cfg.d / 2.0
    y1, y2 = y - h, y + h
    r1, r2 = _hypot(x, y1), _hypot(x, y2)
    if r1 < 1e-12 * cfg.d or r2 < 1e-12 * cfg.d:
        raise SingularPointError(f"point {p} coincides with a slit")
    u1x, u1y, u2x, u2y = x / r1, y1 / r1, x / r2, y2 / r2
    w1, w2 = 1.0 / (r1 * r1), 1.0 / (r2 * r2)
    w = w1 + w2
    n = ((w1 * u1x + w2 * u2x) / w, (w1 * u1y + w2 * u2y) / w)
    return (r1, r2), ((u1x, u1y), (u2x, u2y)), n


def _theta(u) -> float:
    """Angle between the unit vectors u[0], u[1]; BLAS ``np.dot`` rounds unlike a*b + c*d."""
    return math.acos(min(max(float(np.dot(*u)), -1.0), 1.0))


def _region(r) -> Region:
    a1, a2 = 1.0 / r[0], 1.0 / r[1]
    ratio = min(a1, a2) / max(a1, a2)
    if ratio >= BALANCED_THRESHOLD:
        return Region.BALANCED
    if ratio <= NEAR_THRESHOLD:
        return Region.NEAR_SLIT_1 if a1 > a2 else Region.NEAR_SLIT_2
    return Region.TRANSITION


def intersection_angle(p, cfg: SlitConfig) -> float:
    """Angle in [0, pi] between the two wave vectors meeting at p."""
    return _theta(_point_state(p, cfg)[1])


def local_mass(theta: float, omega: float) -> float:
    """Local quantum rest mass omega*sin(theta/2)."""
    return omega * math.sin(theta / 2.0)


def local_speed(theta: float) -> float:
    """Local group speed cos(theta/2); zero for the standing case theta = pi."""
    return math.cos(theta / 2.0)


def classify_region(p, cfg: SlitConfig) -> Region:
    """Amplitude-ratio label with a_i = 1/r_i and the module thresholds."""
    return _region(_point_state(p, cfg)[0])


def weighted_local_state(p, cfg: SlitConfig) -> LocalInterferenceState:
    """Amplitude-weighted local kinematics, valid through all regions.

    With energy weights w_i = a_i**2 the normalized momentum is
    n = (w1*u1 + w2*u2)/(w1 + w2); then v = n and m = omega*sqrt(1 - |n|**2).
    Equal weights reduce to the balanced-region sin/cos forms; a vanishing
    weight gives a massless radial wave.
    """
    n = _point_state(p, cfg)[2]
    speed = _hypot(*n)
    m = cfg.omega * math.sqrt(max(0.0, 1.0 - speed**2))
    return LocalInterferenceState(m=m, v=np.array(n))


#: Stagnation threshold on |v| for trajectory termination.
STAGNATION_SPEED = 1e-6


def _flow_direction(x: float, y: float, cfg: SlitConfig):
    """Unit direction and speed of the weighted velocity field; raises where it stagnates."""
    nx, ny = _point_state((x, y), cfg)[2]
    n_mag = _hypot(nx, ny)
    if n_mag < STAGNATION_SPEED:
        raise SingularPointError(f"flow stagnates at {(x, y)}: |v| = {n_mag:.3g}")
    return nx / n_mag, ny / n_mag, n_mag


def integrate_trajectory(start, cfg: SlitConfig, max_steps: int = 10_000) -> Trajectory:
    """Fixed-step RK4 streamline of the local velocity direction field.

    Arc-length parameterized with step d/100; elapsed time accumulates as
    step/|v|.  Terminates at the domain boundary, on stagnation
    (|v| < 1e-6, or an RK4 stage at a slit) or at ``max_steps``.
    """
    step = cfg.d / 100.0
    half, sixth = 0.5 * step, step / 6.0
    x, y = map(float, start)
    _point_state((x, y), cfg)  # raises at a slit
    x_min, x_max, y_half = cfg.x_min, cfg.x_max, cfg.y_half
    points = [(x, y)]
    times = [0.0]
    termination = "max_steps"
    for _ in range(max_steps):
        try:
            ax, ay, n_mag = _flow_direction(x, y, cfg)
            bx, by, _ = _flow_direction(x + half * ax, y + half * ay, cfg)
            cx, cy, _ = _flow_direction(x + half * bx, y + half * by, cfg)
            dx, dy, _ = _flow_direction(x + step * cx, y + step * cy, cfg)
        except SingularPointError:
            termination = "stagnation"
            break
        x = x + sixth * (ax + 2.0 * bx + 2.0 * cx + dx)
        y = y + sixth * (ay + 2.0 * by + 2.0 * cy + dy)
        points.append((x, y))
        times.append(times[-1] + step / n_mag)
        if not (x_min <= x <= x_max and abs(y) <= y_half):
            termination = "boundary"
            break
    return Trajectory(np.array(points), np.array(times), termination)


def fringe_spacing_predicted(cfg: SlitConfig, D: float) -> float:
    """Far-field bright-fringe spacing D*lambda/d."""
    if D / cfg.d < 20.0:
        warnings.warn(
            f"far-field approximation weak: D/d = {D / cfg.d:.1f} < 20",
            stacklevel=2,
        )
    return D * cfg.wavelength / cfg.d


def screen_intensity(cfg: SlitConfig, points) -> np.ndarray:
    """Time-averaged two-source intensity with the 1/r amplitude law."""
    rel = np.asarray(points, dtype=float)[..., None, :] - cfg.slits
    r1, r2 = np.moveaxis(np.hypot(rel[..., 0], rel[..., 1]), -1, 0)
    a1, a2 = 1.0 / r1, 1.0 / r2
    return a1**2 + a2**2 + 2.0 * a1 * a2 * np.cos(cfg.omega * (r1 - r2))


#: Predicted fringe spacings spanned by the fringe-spacing oracle's screen.
SCREEN_FRINGES = 7.0


def fringe_spacing_measured(cfg: SlitConfig, D: float, screen: str = "arc") -> FringeReport:
    """Independent fringe-spacing oracle: locate intensity maxima on a screen.

    The screen is an arc of radius D about the midpoint (default) or the
    vertical line x = D, spans SCREEN_FRINGES predicted spacings and is
    sampled 64 times per spacing.  Maxima are refined by quadratic
    interpolation and the spacing is the mean gap of the 5 maxima nearest
    the axis.
    """
    predicted = fringe_spacing_predicted(cfg, D)
    if not math.isfinite(predicted):
        raise InvalidConfigError(f"fringe spacing D*lambda/d overflows for D = {D}")
    half_span = SCREEN_FRINGES / 2.0 * predicted
    n = int(SCREEN_FRINGES * 64) | 1
    s = np.linspace(-half_span, half_span, n)
    if screen == "arc":
        phi = s / D
        pts = np.stack([D * np.cos(phi), D * np.sin(phi)], axis=-1)
    elif screen == "line":
        pts = np.stack([np.full_like(s, D), s], axis=-1)
    else:
        raise InvalidConfigError(f"unknown screen kind {screen!r}; choose 'arc' or 'line'")
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
    """
    X, Y = np.meshgrid(np.asarray(x, float), np.asarray(y, float), indexing="ij")
    y1, y2 = cfg.d / 2.0, -cfg.d / 2.0
    r1 = np.hypot(X, Y - y1)
    r2 = np.hypot(X, Y - y2)
    excluded = (r1 < cfg.exclusion_radius) | (r2 < cfg.exclusion_radius)
    r1 = np.where(excluded, np.nan, r1)
    r2 = np.where(excluded, np.nan, r2)
    w1, w2 = 1.0 / r1**2, 1.0 / r2**2
    nx = (w1 * X / r1 + w2 * X / r2) / (w1 + w2)
    ny = (w1 * (Y - y1) / r1 + w2 * (Y - y2) / r2) / (w1 + w2)
    n2 = np.clip(nx**2 + ny**2, 0.0, 1.0)
    return cfg.omega * np.sqrt(1.0 - n2)
