import math

import numpy as np
import pytest

from qmasslab import doubleslit as ds
from qmasslab import qmass as qm
from qmasslab import scenarios
from qmasslab.errors import InsufficientSpanError, InvalidConfigError


@pytest.fixture
def cfg():
    return ds.SlitConfig(d=1.0, omega=2 * math.pi / 0.05)


class TestIntersectionAngle:
    def test_equilateral_geometry(self):
        cfg = ds.SlitConfig(d=2.0, omega=10.0)
        theta = ds.intersection_angle((math.sqrt(3.0), 0.0), cfg)
        assert theta == pytest.approx(math.pi / 3, rel=1e-12)

    def test_between_slits_antiparallel(self, cfg):
        assert ds.intersection_angle((0.0, 0.1), cfg) == pytest.approx(math.pi)

    def test_far_field_small_angle(self, cfg):
        D = 500.0
        theta = ds.intersection_angle((D, 0.0), cfg)
        assert math.sin(theta / 2) == pytest.approx(cfg.d / (2 * D), rel=1e-4)

    def test_slit_position_singular(self, cfg):
        with pytest.raises(InvalidConfigError, match="coincides with a slit"):
            ds.intersection_angle((0.0, 0.5), cfg)

    def test_y_reflection_symmetry(self, cfg):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x, y = rng.uniform(0.1, 10.0), rng.uniform(-5.0, 5.0)
            assert ds.intersection_angle((x, y), cfg) == pytest.approx(
                ds.intersection_angle((x, -y), cfg), abs=1e-14
            )


class TestLocalKinematics:
    def test_standing_limit(self):
        assert ds.local_mass(math.pi, 1.0) == pytest.approx(1.0)
        assert ds.local_speed(math.pi) == pytest.approx(0.0, abs=1e-15)

    def test_free_limit(self):
        assert ds.local_mass(0.0, 1.0) == 0.0
        assert ds.local_speed(0.0) == 1.0

    def test_sixty_degree_values(self):
        assert ds.local_mass(math.pi / 3, 1.0) == pytest.approx(0.5, rel=1e-12)
        assert ds.local_speed(math.pi / 3) == pytest.approx(
            math.cos(math.pi / 6), rel=1e-12
        )

    def test_mass_against_four_momentum_route(self):
        # two half-photons with directions at angle theta
        theta = math.pi / 3
        omega = 1.0
        P = qm.FourMomentum(
            omega,
            omega / 2 * (1 + math.cos(theta)),
            omega / 2 * math.sin(theta),
        )
        assert ds.local_mass(theta, omega) == pytest.approx(
            qm.invariant_mass(P), rel=1e-12
        )
        v = qm.group_velocity(P)
        assert ds.local_speed(theta) == pytest.approx(np.hypot(*v), rel=1e-12)


class TestWeightedLocalState:
    def test_equal_weights_match_closed_forms(self, cfg):
        rng = np.random.default_rng(13)
        for _ in range(100):
            x = rng.uniform(0.5, 10.0)
            p = (x, 0.0)  # axis: equal distances
            st = ds.weighted_local_state(p, cfg)
            theta = ds.intersection_angle(p, cfg)
            assert st.m == pytest.approx(
                ds.local_mass(theta, cfg.omega), rel=1e-12
            )
            assert np.hypot(*st.v) == pytest.approx(
                ds.local_speed(theta), rel=1e-12
            )

    def test_single_wave_limit(self, cfg):
        st = ds.weighted_local_state((1e-4, 0.5), cfg)
        assert st.m < 1e-3 * cfg.omega
        assert np.hypot(*st.v) > 1.0 - 1e-6

    def test_midpoint_standing(self, cfg):
        st = ds.weighted_local_state((0.0, 0.0), cfg)
        assert st.m == pytest.approx(cfg.omega, rel=1e-12)
        assert np.hypot(*st.v) == pytest.approx(0.0, abs=1e-12)


class TestTrajectories:
    def test_axis_trajectory_stays_on_axis(self, cfg):
        traj = ds.integrate_trajectory((2.0, 0.0), cfg, max_steps=300)
        assert np.max(np.abs(traj.points[:, 1])) < 1e-12

    def test_step_spacing_and_monotone_times(self, cfg):
        traj = ds.integrate_trajectory((5.0, 1.0), cfg, max_steps=200)
        gaps = np.hypot(*np.diff(traj.points, axis=0).T)
        assert np.all(np.abs(gaps - cfg.d / 100.0) < 0.01 * cfg.d / 100.0)
        assert np.all(np.diff(traj.times) > 0)

    def test_far_field_radial(self, cfg):
        start = np.array([25.0 * math.cos(0.5), 25.0 * math.sin(0.5)])
        traj = ds.integrate_trajectory(start, cfg, max_steps=400)
        steps = np.diff(traj.points, axis=0)
        r = np.hypot(*traj.points[:-1].T)
        radial = traj.points[:-1] / r[:, None]
        cosang = np.sum(steps * radial, axis=1) / np.hypot(*steps.T)
        dev = np.arccos(np.clip(cosang, -1.0, 1.0))
        assert np.max(dev) < 1e-3

    def test_near_slit_radial(self, cfg):
        slit = np.array([0.0, 0.5])
        start = slit + 0.01 * np.array([math.cos(-0.4), math.sin(-0.4)])
        traj = ds.integrate_trajectory(start, cfg, max_steps=5)
        first = traj.points[1] - traj.points[0]
        radial = (traj.points[0] - slit) / np.hypot(*(traj.points[0] - slit))
        ang = math.acos(
            float(np.clip(np.dot(first / np.hypot(*first), radial), -1, 1))
        )
        assert ang < 1e-2

    def test_boundary_termination(self, cfg):
        traj = ds.integrate_trajectory((49.9, 0.0), cfg, max_steps=10_000)
        assert traj.termination == "boundary"

    def test_midpoint_start_rejected(self, cfg):
        # The two equal-weight unit vectors cancel on the slit midpoint, which
        # lies behind the domain's x >= 1e-3*d.
        with pytest.raises(InvalidConfigError, match="lies outside"):
            ds.integrate_trajectory((0.0, 0.0), cfg)

    def test_start_at_slit_rejected(self, cfg):
        with pytest.raises(InvalidConfigError, match="lies outside"):
            ds.integrate_trajectory((0.0, 0.5), cfg)

    @pytest.mark.parametrize("start", [(100.0, 0.5), (-1.0, 0.0), (5e-4, 0.2), (1.0, -50.5),
                                       (0.0, 0.0)])
    def test_start_outside_domain_rejected(self, start, cfg):
        # (100.0, 0.5) once came back as a 2-point "boundary" trajectory.
        with pytest.raises(InvalidConfigError, match="lies outside"):
            ds.integrate_trajectory(start, cfg, max_steps=5)

    def test_start_on_domain_edge_accepted(self, cfg):
        for start in [(cfg.x_min, 0.0), (cfg.x_max, cfg.y_half), (cfg.x_min, -cfg.y_half)]:
            assert len(ds.integrate_trajectory(start, cfg, max_steps=1).points) == 2

    @pytest.mark.parametrize("max_steps", [2.5, -3, "10", None, True])
    def test_bad_max_steps_rejected(self, max_steps, cfg):
        # 2.5 once raised a bare TypeError, -3 returned the start alone.
        with pytest.raises(InvalidConfigError, match="max_steps"):
            ds.integrate_trajectory((2.0, 0.5), cfg, max_steps=max_steps)

    def test_zero_steps_return_the_start(self, cfg):
        traj = ds.integrate_trajectory((2.0, 0.5), cfg, max_steps=np.int32(0))
        assert traj.points.tolist() == [[2.0, 0.5]] and traj.times.tolist() == [0.0]
        assert traj.termination == "max_steps"


def _momentum_reference(x, y, h, r_min):
    """The plain-float kernel that the complex ``_momentum`` replaced, verbatim."""
    y1, y2 = y - h, y + h
    r1, r2 = abs(complex(x, y1)), abs(complex(x, y2))
    if r1 < r_min or r2 < r_min:
        raise InvalidConfigError(f"point {(x, y)} coincides with a slit")
    w1, w2 = 1.0 / (r1 * r1), 1.0 / (r2 * r2)
    w = w1 + w2
    return (w1 * (x / r1) + w2 * (x / r2)) / w, (w1 * (y1 / r1) + w2 * (y2 / r2)) / w


def _trajectory_reference(start, cfg, max_steps):
    """The plain-float RK4 loop that the complex one replaced, verbatim.

    Its slit test and stagnation stop are kept, so a sweep that matches its
    terminations shows that neither fires inside the domain.
    """
    d = cfg.d
    h, r_min = d / 2.0, 1e-12 * d
    step = d / 100.0
    half, sixth = 0.5 * step, step / 6.0

    def direction(x, y):
        nx, ny = _momentum_reference(x, y, h, r_min)
        n_mag = abs(complex(nx, ny))
        if n_mag < 1e-6:
            raise InvalidConfigError(f"flow stagnates at {(x, y)}: |v| = {n_mag:.3g}")
        return nx / n_mag, ny / n_mag, n_mag

    x, y = map(float, start)
    x_min, x_max, y_half = cfg.x_min, cfg.x_max, cfg.y_half
    xs, ys, times = [x], [y], [0.0]
    t = 0.0
    termination = "max_steps"
    for _ in range(max_steps):
        try:
            ax, ay, n_mag = direction(x, y)
            bx, by, _ = direction(x + half * ax, y + half * ay)
            cx, cy, _ = direction(x + half * bx, y + half * by)
            dx, dy, _ = direction(x + step * cx, y + step * cy)
        except InvalidConfigError:
            termination = "stagnation"
            break
        x = x + sixth * (ax + 2.0 * bx + 2.0 * cx + dx)
        y = y + sixth * (ay + 2.0 * by + 2.0 * cy + dy)
        t = t + step / n_mag
        xs.append(x)
        ys.append(y)
        times.append(t)
        if not (x_min <= x <= x_max and abs(y) <= y_half):
            termination = "boundary"
            break
    return ds.Trajectory(np.column_stack((xs, ys)), np.array(times), termination)


def _assert_same_bits(traj, ref):
    assert traj.termination == ref.termination
    assert traj.points.shape == ref.points.shape
    assert traj.points.tobytes() == ref.points.tobytes()
    assert traj.times.tobytes() == ref.times.tobytes()
    assert np.array_equal(np.signbit(traj.points), np.signbit(ref.points))


def _swept_starts(rng, d):
    """Seeded starts at separation d: near a slit, on the axis, at x_min and at the corners."""
    cfg = ds.SlitConfig(d=d, omega=1.0)
    starts = []
    for _ in range(4):
        r = d * 10.0 ** rng.uniform(-3.0, -1.0)  # 1e-3*d to 0.1*d from a slit
        angle = rng.uniform(-1.0, 1.0) * math.acos(cfg.x_min / r)
        slit = rng.choice([-0.5, 0.5]) * d
        starts.append((r * math.cos(angle), slit + r * math.sin(angle)))
    starts.append((rng.uniform(1e-3, 50.0) * d, 0.0))
    starts.append((rng.uniform(1e-3, 50.0) * d, -0.0))
    starts.append((cfg.x_min, rng.uniform(-50.0, 50.0) * d))
    starts += [(x, y) for x in (cfg.x_min, cfg.x_max) for y in (-cfg.y_half, cfg.y_half)]
    return cfg, [(max(x, cfg.x_min), y) for x, y in starts]


def test_trajectory_is_the_plain_float_loop_bit_for_bit():
    # d alternates between a Python float and a numpy one.
    rng = np.random.default_rng(41)
    for i, log_d in enumerate(np.linspace(-50.0, 50.0, 11)):
        d = 10.0**log_d
        cfg, starts = _swept_starts(rng, float(d) if i % 2 else d)
        for start in starts:
            _assert_same_bits(ds.integrate_trajectory(start, cfg, max_steps=300),
                              _trajectory_reference(start, cfg, 300))


@pytest.mark.parametrize("params", [
    {"starts": [[25.0, 0.0]], "max_steps": 3000},
    {"max_steps": 2500},
    {"starts": [[25.0, 0.0], [17.7, 17.7], [0.01, 0.5], [10.0, -3.0], [5.0, 1.0]],
     "max_steps": 2000},
], ids=["traj-1x3000", "traj-3x2500", "traj-5x2000"])
def test_benchmark_trajectories_are_the_plain_float_loop_bit_for_bit(params, tmp_path,
                                                                     monkeypatch):
    integrate, runs = ds.integrate_trajectory, []

    def recorded(start, cfg, max_steps):
        runs.append((start, cfg, max_steps, integrate(start, cfg, max_steps)))
        return runs[-1][-1]

    monkeypatch.setattr(ds, "integrate_trajectory", recorded)
    assert scenarios.run("doubleslit-traj", params, tmp_path).passed
    assert len(runs) == len(params.get("starts", scenarios.DEFAULTS["doubleslit-traj"]["starts"]))
    for start, cfg, max_steps, traj in runs:
        _assert_same_bits(traj, _trajectory_reference(start, cfg, max_steps))


@pytest.mark.parametrize("point", [(math.nan, 0.0), (1.0, math.inf), (-math.inf, math.nan)])
@pytest.mark.parametrize("call", [
    lambda p, cfg: ds.integrate_trajectory(p, cfg, max_steps=5),
    ds.weighted_local_state,
    ds.intersection_angle,
], ids=["integrate_trajectory", "weighted_local_state", "intersection_angle"])
def test_non_finite_point_rejected(call, point, cfg):
    with pytest.raises(InvalidConfigError, match="point must be finite"):
        call(point, cfg)


def _screen_intensity_reference(cfg, points):
    """``screen_intensity`` through the slit array, one broadcast over both slits."""
    rel = np.asarray(points, dtype=float)[..., None, :] - cfg.slits
    r1, r2 = np.moveaxis(np.hypot(rel[..., 0], rel[..., 1]), -1, 0)
    a1, a2 = 1.0 / r1, 1.0 / r2
    return a1**2 + a2**2 + 2.0 * a1 * a2 * np.cos(cfg.omega * (r1 - r2))


class TestFringeSpacing:
    def test_predicted_reference(self):
        # D*lambda/d = 1 at the scenario defaults; the path-difference form adds
        # 2.8e-4 on the arc and 8.1e-4 on the line.
        cfg = ds.SlitConfig(d=0.5, omega=2 * math.pi / 0.01)
        assert ds.fringe_gap_predicted(cfg, 50.0, "arc") == pytest.approx(1.0, rel=3e-4)
        assert ds.fringe_gap_predicted(cfg, 50.0, "line") == pytest.approx(1.0, rel=9e-4)

    @pytest.mark.parametrize("screen", ["arc", "line"])
    def test_gap_tends_to_far_field_spacing(self, screen):
        # For D >> d and lambda << d both screens tend to the textbook D*lambda/d.
        errors = []
        for scale in (1e1, 1e2, 1e3, 1e4):
            cfg = ds.SlitConfig(d=0.5, omega=2 * math.pi * scale / 0.5)  # lambda = d/scale
            D = scale * cfg.d
            far_field = D * cfg.wavelength / cfg.d
            errors.append(abs(ds.fringe_gap_predicted(cfg, D, screen) / far_field - 1.0))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-7

    @pytest.mark.parametrize("wavelength, D, screen", [
        (0.01, 50.0, "foo"),  # neither screen: the line formula gave 2.0102
        (0.25, 50.0, "line"),  # 2*lambda = d: ZeroDivisionError
        (0.3, 50.0, "line"),  # 2*lambda > d: math domain error
        (0.3, 50.0, "arc"),
        (0.01, 0.0099, "arc"),  # the arc of radius D < lambda meets no 2nd order
        (0.01, 0.0, "arc"),
    ])
    def test_predicted_rejects_what_it_cannot_compute(self, wavelength, D, screen):
        cfg = ds.SlitConfig(d=0.5, omega=2 * math.pi / wavelength)
        with pytest.raises(InvalidConfigError):
            ds.fringe_gap_predicted(cfg, D, screen)

    def test_predicted_on_the_smallest_arc(self):
        # At D = lambda the arc meets the 2nd-order hyperbola at its vertex on the
        # slit plane, pi/2 off the axis.
        cfg = ds.SlitConfig(d=0.5, omega=2 * math.pi / 0.01)
        assert ds.fringe_gap_predicted(cfg, 0.01, "arc") == pytest.approx(0.01 * math.pi / 4)

    def test_near_screen_rejected(self, cfg):
        # Nearer than 2d the unequal slit amplitudes move the maxima off the prediction.
        with pytest.raises(InvalidConfigError, match="D/d"):
            ds.fringe_spacing_measured(cfg, 1.9 * cfg.d)
        report = ds.fringe_spacing_measured(cfg, 2.0 * cfg.d)
        assert report.measured == pytest.approx(report.predicted, rel=0.01)

    def test_infinite_screen_distance_rejected(self, cfg):
        with pytest.raises(InvalidConfigError, match="overflows for D = inf"):
            ds.fringe_spacing_measured(cfg, math.inf)

    def test_gap_tends_to_arc_far_field_limit(self):
        # As D/d grows the path-difference form tends to D*asin(2*lambda/d)/2 on the arc,
        # which exceeds D*lambda/d by 2.9% at lambda/d = 0.2.
        cfg = ds.SlitConfig(d=0.5, omega=2 * math.pi / 0.1)
        errors = [abs(ds.fringe_gap_predicted(cfg, D) / (D * math.asin(0.4) / 2.0) - 1.0)
                  for D in (1.0, 10.0, 100.0, 1000.0)]
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 1e-7

    def test_measured_reference(self):
        cfg = ds.SlitConfig(d=0.5, omega=2 * math.pi / 0.01)
        report = ds.fringe_spacing_measured(cfg, 50.0)
        assert report.measured == pytest.approx(report.predicted, rel=0.01)
        # central maximum on the axis
        assert np.min(np.abs(report.maxima)) < 0.01 * report.predicted

    def test_halving_d_doubles_spacing(self):
        wavelength = 0.01
        r1 = ds.fringe_spacing_measured(
            ds.SlitConfig(d=0.5, omega=2 * math.pi / wavelength), 50.0
        )
        r2 = ds.fringe_spacing_measured(
            ds.SlitConfig(d=0.25, omega=2 * math.pi / wavelength), 50.0
        )
        assert r2.measured == pytest.approx(2 * r1.measured, rel=0.01)

    def test_line_screen(self):
        cfg = ds.SlitConfig(d=0.5, omega=2 * math.pi / 0.01)
        report = ds.fringe_spacing_measured(cfg, 50.0, screen="line")
        assert report.measured == pytest.approx(report.predicted, rel=0.01)

    @pytest.mark.parametrize("screen", ["arc", "line"])
    def test_intensity_matches_the_slit_array_form_bit_for_bit(self, screen):
        # hypot(x, y -+ d/2) directly: y - (-d/2) is y + d/2, and hypot ignores
        # the sign of x - 0.0, so the screen intensity keeps every bit.
        rng = np.random.default_rng(37)
        for _ in range(50):
            d = 10.0 ** rng.uniform(-6.0, 6.0)
            ratio = rng.uniform(1e-3, 0.2 if screen == "line" else 0.44)
            cfg = ds.SlitConfig(d=d, omega=2.0 * math.pi / (ratio * d))
            D = d * rng.uniform(2.0, 200.0)
            report = ds.fringe_spacing_measured(cfg, D, screen=screen)
            s = report.s
            if screen == "arc":
                pts = np.stack([D * np.cos(s / D), D * np.sin(s / D)], axis=-1)
            else:
                pts = np.stack([np.full_like(s, D), s], axis=-1)
            assert np.array_equal(report.intensity, _screen_intensity_reference(cfg, pts))
            pts = d * rng.standard_normal((3, 5, 2))
            pts[0, :, 0] = [0.0, -0.0, 0.0, -0.0, 1.0]
            assert np.array_equal(ds.screen_intensity(cfg, pts),
                                  _screen_intensity_reference(cfg, pts))

    def test_too_small_screen_errors(self, monkeypatch):
        cfg = ds.SlitConfig(d=0.5, omega=2 * math.pi / 0.01)
        monkeypatch.setattr(ds, "SCREEN_FRINGES", 1.0)
        with pytest.raises(InsufficientSpanError):
            ds.fringe_spacing_measured(cfg, 50.0)


class TestMassMap:
    def test_midpoint_is_global_maximum(self, cfg):
        x = np.linspace(0.0, 5.0, 101)
        y = np.linspace(-2.5, 2.5, 101)
        m = ds.mass_map(cfg, x, y)
        assert m[0, 50] == pytest.approx(cfg.omega, rel=1e-12)
        assert np.nanmax(m) <= m[0, 50] * (1 + 1e-12)

    @pytest.mark.parametrize("x, y", [
        ([math.inf], [0.0]), ([0.0], [math.nan]), ([1.0, -math.inf], [0.0, 1.0])])
    def test_non_finite_axes_rejected(self, cfg, x, y):
        with pytest.raises(InvalidConfigError, match="map axes must be finite"):
            ds.mass_map(cfg, x, y)

    def test_axis_monotone_decay(self, cfg):
        x = np.linspace(0.01, 10.0, 500)
        m = ds.mass_map(cfg, x, np.array([0.0]))[:, 0]
        assert np.all(np.diff(m) < 0)

    def test_near_slit_mass_vanishes(self, cfg):
        # point close to slit 1 but outside the exclusion radius
        val = ds.mass_map(cfg, np.array([0.04]), np.array([0.5]))[0, 0]
        assert val < 0.1 * cfg.omega

    def test_exclusion_radius_masks(self, cfg):
        m = ds.mass_map(cfg, np.array([0.001]), np.array([0.5]))
        assert np.isnan(m[0, 0])

    def test_matches_point_state_at_every_finite_cell(self):
        # The map and the RK4 point state round 1 - |n|**2 apart, by at most
        # ~sqrt(2*eps) of omega where |n| -> 1.
        rng = np.random.default_rng(16)
        for _ in range(200):
            d = 10.0 ** rng.uniform(-3.0, 3.0)
            cfg = ds.SlitConfig(d=d, omega=2 * math.pi / (d * 10.0 ** rng.uniform(-3.0, 0.0)))
            x = np.concatenate([[0.0], rng.uniform(0.0, 5.0 * d, 14)])
            y = rng.uniform(-5.0 * d, 5.0 * d, 15)
            m = ds.mass_map(cfg, x, y)
            for i, j in zip(*np.nonzero(np.isfinite(m))):
                point = ds.weighted_local_state((x[i], y[j]), cfg).m
                assert abs(m[i, j] - point) <= 1e-6 * cfg.omega, (d, cfg.omega, x[i], y[j])

    def test_theta_reflection_symmetry(self, cfg):
        x = np.linspace(0.2, 4.0, 21)
        y = np.linspace(-2.0, 2.0, 21)
        m = ds.mass_map(cfg, x, y)
        assert np.allclose(m, m[:, ::-1], equal_nan=True)
