import math

import numpy as np
import pytest

from qmasslab import doubleslit as ds
from qmasslab import qmass as qm
from qmasslab.errors import InsufficientSpanError, SingularPointError


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
        with pytest.raises(SingularPointError):
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


class TestClassifyRegion:
    def test_axis_is_balanced(self, cfg):
        assert ds.classify_region((3.0, 0.0), cfg) is ds.Region.BALANCED

    def test_near_slit(self, cfg):
        assert ds.classify_region((0.01, 0.5), cfg) is ds.Region.NEAR_SLIT_1
        assert ds.classify_region((0.01, -0.5), cfg) is ds.Region.NEAR_SLIT_2

    def test_transition(self, cfg):
        # r1/r2 = 0.5 on the y-axis above both slits
        p = (0.0, 1.5)  # r1 = 1, r2 = 2
        assert ds.classify_region(p, cfg) is ds.Region.TRANSITION

    def test_partition_and_reflection_symmetry(self, cfg):
        rng = np.random.default_rng(9)
        swap = {
            ds.Region.NEAR_SLIT_1: ds.Region.NEAR_SLIT_2,
            ds.Region.NEAR_SLIT_2: ds.Region.NEAR_SLIT_1,
            ds.Region.BALANCED: ds.Region.BALANCED,
            ds.Region.TRANSITION: ds.Region.TRANSITION,
        }
        for _ in range(200):
            p = (rng.uniform(0.01, 5.0), rng.uniform(-3.0, 3.0))
            label = ds.classify_region(p, cfg)
            assert label in ds.Region
            assert ds.classify_region((p[0], -p[1]), cfg) is swap[label]


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

    def test_midpoint_start_stagnates(self, cfg):
        # The two equal-weight unit vectors cancel on the slit midpoint.
        traj = ds.integrate_trajectory((0.0, 0.0), cfg)
        assert traj.termination == "stagnation"
        assert len(traj.points) == 1

    def test_start_at_slit_rejected(self, cfg):
        with pytest.raises(SingularPointError):
            ds.integrate_trajectory((0.0, 0.5), cfg)


class TestFringeSpacing:
    def test_predicted_reference(self):
        cfg = ds.SlitConfig(d=0.5, omega=2 * math.pi / 0.01)
        assert ds.fringe_spacing_predicted(cfg, 50.0) == pytest.approx(1.0)

    def test_predicted_linear_in_D(self, cfg):
        assert ds.fringe_spacing_predicted(cfg, 100.0) == pytest.approx(
            2 * ds.fringe_spacing_predicted(cfg, 50.0)
        )

    def test_near_screen_warns(self, cfg):
        with pytest.warns(UserWarning):
            ds.fringe_spacing_predicted(cfg, 10.0)

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

    def test_theta_reflection_symmetry(self, cfg):
        x = np.linspace(0.2, 4.0, 21)
        y = np.linspace(-2.0, 2.0, 21)
        m = ds.mass_map(cfg, x, y)
        assert np.allclose(m, m[:, ::-1], equal_nan=True)
