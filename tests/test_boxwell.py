import math

import numpy as np
import pytest

from qmasslab import boxwell as bw
from qmasslab import wavecore as wc
from qmasslab.errors import (
    ConditioningError,
    DegenerateProbeError,
    InvalidConfigError,
    ModeOutOfRangeError,
)


@pytest.fixture
def cfg():
    # speed chosen so dk*W = 2*pi (second well mode)
    v = bw.speed_for_mode(1.0, 100.0, 2)
    return bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=v)


class TestBoxConfig:
    def test_derived_quantities(self, cfg):
        g = 1.0 / math.sqrt(1.0 - cfg.v**2)
        assert cfg.gamma == pytest.approx(g, rel=1e-14)
        assert cfg.omega_bar == pytest.approx(g * 100.0, rel=1e-14)
        assert cfg.delta_omega == pytest.approx(g * 100.0 * cfg.v, rel=1e-14)
        assert cfg.delta_omega == pytest.approx(2 * math.pi, rel=1e-12)

    def test_forward_pair_product(self, cfg):
        pair = wc.boost_standing_wave(cfg.omega0, cfg.v)
        assert pair.omega_plus * pair.omega_minus == pytest.approx(
            100.0**2, rel=1e-12
        )

    def test_cavity_too_large(self):
        with pytest.raises(InvalidConfigError):
            bw.BoxConfig(W=1.0, L=0.2, omega0=100.0, v=0.1)

    def test_invalid_speed(self):
        with pytest.raises(InvalidConfigError):
            bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=0.0)
        with pytest.raises(InvalidConfigError):
            bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=1.5)

    def test_unresolved_carrier(self):
        with pytest.raises(InvalidConfigError):
            bw.BoxConfig(W=1.0, L=0.1, omega0=10.0, v=0.1)


class TestBuildField:
    def test_matches_closed_form(self, cfg):
        rng = np.random.default_rng(41)
        field = bw.build_field(cfg)
        x = rng.uniform(0.0, cfg.W, 200)
        for t in rng.uniform(0.0, 5.0, 5):
            assert np.allclose(
                wc.evaluate(field, x, t), bw.closed_form(cfg, x, t), atol=1e-10
            )

    def test_origin_node(self, cfg):
        field = bw.build_field(cfg)
        t = np.linspace(0.0, 3.0, 400)
        assert np.max(np.abs(wc.evaluate(field, 0.0, t))) < 1e-12

    def test_slow_speed_approaches_standing(self):
        v = bw.speed_for_mode(1.0, 1000.0, 1)
        cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=1000.0, v=v)
        x = np.linspace(0.0, 1.0, 300)
        got = bw.closed_form(cfg, x, 0.0)
        standing = 4.0 * np.sin(cfg.omega_bar * x) * np.cos(cfg.delta_omega * x)
        assert np.allclose(got, standing, atol=1e-12)


class TestAnalyzeBeats:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_recovers_both_frequencies(self, n):
        v = bw.speed_for_mode(1.0, 100.0, n)
        cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=v)
        out = bw.analyze_beats(cfg, probe=0.275)
        assert out.fast == pytest.approx(cfg.omega_bar, rel=5e-3)
        assert out.slow == pytest.approx(cfg.delta_omega, rel=5e-3)

    def test_degenerate_probe_rejected(self, cfg):
        # a node of the forward-frequency standing component
        node = math.pi / (cfg.omega_bar + cfg.delta_omega)
        with pytest.raises(DegenerateProbeError):
            bw.analyze_beats(cfg, probe=node)


class TestInternalStateProjection:
    def test_initial_snapshot(self, cfg):
        a_c, a_s = bw.project_internal_states(cfg, 0.0)
        assert a_c == pytest.approx(4.0, rel=1e-10)
        assert a_s == pytest.approx(0.0, abs=1e-9)

    def test_quarter_slow_period(self, cfg):
        t = math.pi / (2.0 * cfg.delta_omega)
        a_c, _ = bw.project_internal_states(cfg, t)
        assert abs(a_c) < 5e-3 * 4.0

    def test_basis_orthogonality(self, cfg):
        kb, dk = 10 * math.pi, 2 * math.pi
        # The integrand has period 1 on [0, 1], so the trapezoid rule over 4096
        # equal steps is exact for its trigonometric terms up to rounding.
        x = np.arange(4096) / 4096
        f = np.sin(kb * x) * np.cos(dk * x) * np.cos(kb * x) * np.sin(dk * x)
        overlap = float(np.mean(f))
        assert abs(overlap) < 1e-10

    def test_conditioning_guard(self):
        v = bw._bisect_speed(0.01, 100.0)
        cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=v)
        with pytest.raises(ConditioningError):
            bw.project_internal_states(cfg, 0.0)


class TestTraceStatesVsPosition:
    def test_envelope_wavenumber_and_flatness(self, cfg):
        trace = bw.trace_states_vs_position(cfg)
        assert trace.envelope_wavenumber == pytest.approx(cfg.delta_omega, rel=1e-9)
        r = np.hypot(trace.a_cos, trace.a_sin)
        assert (np.max(r) - np.min(r)) / np.mean(r) < 1e-9

    def test_amplitudes_follow_envelope_phases(self, cfg):
        trace = bw.trace_states_vs_position(cfg, n_positions=40)
        scale = np.mean(np.hypot(trace.a_cos, trace.a_sin))
        assert np.allclose(trace.a_cos, scale * np.cos(cfg.delta_omega * trace.x), atol=1e-8)
        assert np.allclose(trace.a_sin, scale * np.sin(cfg.delta_omega * trace.x), atol=1e-8)

    def test_short_window_resolves_envelope(self):
        # L*dk = 0.02: the window spans a fiftieth of an envelope radian.
        v = bw._bisect_speed(0.2, 100.0)
        cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=v)
        trace = bw.trace_states_vs_position(cfg, n_positions=24)
        assert trace.envelope_wavenumber == pytest.approx(cfg.delta_omega, rel=1e-6)


class TestQuantization:
    def test_mode_speeds_solve_the_condition(self):
        for n in (1, 3, 5):
            v = bw.speed_for_mode(1.0, 100.0, n)
            g = 1.0 / math.sqrt(1.0 - v**2)
            assert g * v * 100.0 == pytest.approx(n * math.pi, rel=1e-12)

    def test_momentum_ladder(self):
        cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=0.05)
        reports = bw.quantize(cfg, 5)
        p1 = reports[0].p_n
        for rep in reports:
            assert rep.p_n == pytest.approx(rep.n * p1, rel=1e-9)
            assert rep.p_n == pytest.approx(rep.p_schrodinger, rel=1e-9)

    def test_envelope_nodes_at_walls(self):
        cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=0.05)
        for rep in bw.quantize(cfg, 5):
            assert abs(bw.quantized_envelope(rep.p_n, 0.0)) < 1e-12
            assert abs(bw.quantized_envelope(rep.p_n, cfg.W)) < 1e-9
            # n - 1 interior nodes
            x = np.linspace(0.0, cfg.W, 4001)
            env = bw.quantized_envelope(rep.p_n, x)
            interior = wc.zero_crossings(x, env)
            assert len(interior[(interior > 1e-6) & (interior < cfg.W - 1e-6)]) == (
                rep.n - 1
            )

    def test_energy_matches_within_relativistic_correction(self):
        cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=0.05)
        for rep in bw.quantize(cfg, 5):
            discrepancy = abs(rep.kinetic_energy - rep.schrodinger_energy) / rep.schrodinger_energy
            assert discrepancy < (rep.p_n / cfg.omega0) ** 2

    def test_measured_envelope_wavelength(self):
        # mode 4 leaves enough interior crossings for the spatial oracle
        v = bw.speed_for_mode(1.0, 100.0, 4)
        cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=v)
        x = np.linspace(0.0, 1.0, 2001)
        env = bw.quantized_envelope(cfg.delta_omega, x)
        lam = wc.measure_spatial_wavelength(x, env)
        assert lam == pytest.approx(2 * math.pi / cfg.delta_omega, rel=1e-3)

    def test_mode_out_of_range(self):
        with pytest.raises(ModeOutOfRangeError):
            bw.speed_for_mode(1.0, 100.0, 10_000)

    def test_bad_mode_index(self):
        cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=0.05)
        with pytest.raises(InvalidConfigError):
            bw.speed_for_mode(1.0, 100.0, 0)
        with pytest.raises(InvalidConfigError):
            bw.quantize(cfg, 0)
