import math
import re

import numpy as np
import pytest

from qmasslab import boxwell as bw
from qmasslab import wavecore as wc
from qmasslab.errors import InvalidConfigError

#: The well of the box scenarios' defaults.
WELL = bw.Well(W=1.0, omega0=100.0)


@pytest.fixture
def cfg():
    # speed chosen so dk*W = 2*pi (second well mode)
    v = bw.speed_for_mode(WELL, 2)
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

    def test_carrier_phase_above_cap(self):
        bw.BoxConfig(W=2.0, L=0.1, omega0=bw.MAX_CARRIER_PHASE / 2.0, v=0.1)
        with pytest.raises(InvalidConfigError, match=r"omega0\*W must be <= 100000, got 200000"):
            bw.BoxConfig(W=2.0, L=0.1, omega0=bw.MAX_CARRIER_PHASE, v=0.1)

    @pytest.mark.parametrize("W, omega0, message", [
        (1.0, 19.999, "carrier unresolved: omega0*W = 19.999"),
        (2.0, 10.0, None),
        (2.0, 5e4, None),
        (2.0, 50000.5, "omega0*W must be <= 100000, got 100001.0"),
        (math.inf, 100.0, "box parameters must be finite, got "),
        (1.0, math.nan, "box parameters must be finite, got "),
    ])
    def test_well_rejects_what_box_config_rejects(self, W, omega0, message):
        # Both give the same message for the same (W, omega0).
        for make in (lambda: bw.Well(W=W, omega0=omega0),
                     lambda: bw.BoxConfig(W=W, L=0.1, omega0=omega0, v=0.05)):
            if message is None:
                make()
            else:
                with pytest.raises(InvalidConfigError, match=re.escape(message)):
                    make()

    def test_box_config_is_a_well(self, cfg):
        assert isinstance(cfg, bw.Well)
        assert bw.quantize(cfg, 3) == bw.quantize(bw.Well(W=cfg.W, omega0=cfg.omega0), 3)

    def test_positional_construction_rejected(self):
        # The subclass orders its fields (W, omega0, L, v); keywords keep a call unambiguous.
        with pytest.raises(TypeError):
            bw.BoxConfig(1.0, 0.1, 100.0, 0.05)
        with pytest.raises(TypeError):
            bw.Well(1.0, 100.0)


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
        v = bw.speed_for_mode(bw.Well(W=1.0, omega0=1000.0), 1)
        cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=1000.0, v=v)
        x = np.linspace(0.0, 1.0, 300)
        got = bw.closed_form(cfg, x, 0.0)
        standing = 4.0 * np.sin(cfg.omega_bar * x) * np.cos(cfg.delta_omega * x)
        assert np.allclose(got, standing, atol=1e-12)


class TestAnalyzeBeats:
    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_recovers_both_frequencies(self, n):
        v = bw.speed_for_mode(WELL, n)
        cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=v)
        out = bw.analyze_beats(cfg, probe=0.275)
        assert out.fast == pytest.approx(cfg.omega_bar, rel=5e-3)
        assert out.slow == pytest.approx(cfg.delta_omega, rel=5e-3)

    def test_degenerate_probe_rejected(self, cfg):
        # a node of the forward-frequency standing component
        node = math.pi / (cfg.omega_bar + cfg.delta_omega)
        with pytest.raises(InvalidConfigError, match="sits at a node"):
            bw.analyze_beats(cfg, probe=node)


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

    def test_center_at_time_factor_node_rejected(self):
        # Center 62 falls where cos(dw*x/v) ~ 6e-8 and dk*L is ~4 carrier-phase
        # roundings: the fit would miss its modulus by ~10%.
        cfg = bw.BoxConfig(W=1.0, L=8.94891150017497e-4, omega0=9184.83535561798, v=1e-6)
        with pytest.raises(InvalidConfigError, match="node of a slow time factor"):
            bw.trace_states_vs_position(cfg, n_positions=66)
        # A window ten times longer resolves the same centers through dk*L.
        wide = bw.BoxConfig(W=1.0, L=8.94891150017497e-3, omega0=cfg.omega0, v=cfg.v)
        trace = bw.trace_states_vs_position(wide, n_positions=66)
        modulus = trace.a_cos**2 + trace.a_sin**2
        assert np.max(modulus) / np.min(modulus) - 1.0 < 1e-3


def _bisect_speed_reference(target, omega0):
    """The mode bisection through a ``gamma_of`` lambda, range check included."""
    f = lambda b: wc.gamma_of(b) * b * omega0 - target
    lo, hi = 0.0, bw.BETA_MAX
    if f(hi) < 0:
        raise InvalidConfigError(
            f"no admissible cavity speed below {bw.BETA_MAX}c for target {target}")
    while hi - lo > 1e-14:
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestQuantization:
    @pytest.mark.parametrize("W, omega0", [(1.0, 1.0000001e5), (2.0, 6e4)])
    def test_mode_speed_rejects_a_carrier_phase_above_cap(self, W, omega0):
        with pytest.raises(InvalidConfigError, match=r"omega0\*W must be <= 100000"):
            bw.speed_for_mode(bw.Well(W=W, omega0=omega0), 1)

    def test_mode_speeds_solve_the_condition(self):
        for n in (1, 3, 5):
            v = bw.speed_for_mode(WELL, n)
            g = 1.0 / math.sqrt(1.0 - v**2)
            assert g * v * 100.0 == pytest.approx(n * math.pi, rel=1e-12)

    def test_momentum_ladder(self):
        cfg = bw.Well(W=1.0, omega0=100.0)
        reports = bw.quantize(cfg, 5)
        p1 = reports[0].p_n
        for rep in reports:
            assert rep.p_n == pytest.approx(rep.n * p1, rel=1e-9)
            assert rep.p_n == pytest.approx(rep.p_schrodinger, rel=1e-9)

    def test_envelope_nodes_at_walls(self):
        cfg = bw.Well(W=1.0, omega0=100.0)
        for rep in bw.quantize(cfg, 5):
            assert abs(bw.quantized_envelope(rep.p_n, 0.0)) < 1e-12
            assert abs(bw.quantized_envelope(rep.p_n, cfg.W)) < 1e-9
            # n - 1 interior nodes: sign changes between samples inside the walls
            x = np.linspace(0.0, cfg.W, 4001)[1:-1]
            env = bw.quantized_envelope(rep.p_n, x)
            assert np.count_nonzero(np.diff(np.signbit(env))) == rep.n - 1

    def test_energy_matches_within_relativistic_correction(self):
        cfg = bw.Well(W=1.0, omega0=100.0)
        for rep in bw.quantize(cfg, 5):
            discrepancy = abs(rep.kinetic_energy - rep.schrodinger_energy) / rep.schrodinger_energy
            assert discrepancy < (rep.p_n / cfg.omega0) ** 2

    @pytest.mark.parametrize("W, omega0", [(1.0, 100.0), (10.0, 100.0), (1.0, 1000.0)])
    def test_kinetic_energy_is_exact(self, W, omega0):
        # The exact sqrt(m**2 + p**2) - m of p = n*pi/W, m = omega0, without cancellation.
        cfg = bw.Well(W=W, omega0=omega0)
        for rep in bw.quantize(cfg, 10):
            x2 = (rep.p_schrodinger / omega0) ** 2
            exact = omega0 * x2 / (math.sqrt(1.0 + x2) + 1.0)
            assert rep.kinetic_energy == pytest.approx(exact, rel=1e-7)

    def test_mode_out_of_range(self):
        with pytest.raises(InvalidConfigError, match="no admissible cavity speed"):
            bw.speed_for_mode(WELL, 10_000)

    @pytest.mark.parametrize("W, omega0", [
        (math.nan, 100.0), (1.0, math.nan), (-1.0, 100.0), (0.0, 100.0), (1.0, -100.0),
        (math.inf, 100.0), (1.0, math.inf)])
    def test_mode_speed_rejects_a_bad_well(self, W, omega0):
        # A NaN or negative target would move the bisection's upper end down to
        # 0 and return a speed of 3.5e-15; the mode speed takes a checked Well.
        with pytest.raises(InvalidConfigError):
            bw.speed_for_mode(bw.Well(W=W, omega0=omega0), 1)

    def test_bisection_matches_the_gamma_of_bisection_bit_for_bit(self):
        # 2,000 seeded (n, Well) pairs over the whole Well range: W log-uniform
        # over [1e-100, 1e100], omega0*W over [20, 1e5], n up to ~300, beyond
        # the last admissible mode when omega0*W is small.
        rng = np.random.default_rng(37)
        rejected = 0
        for _ in range(2000):
            W = 10.0 ** rng.uniform(-100.0, 100.0)
            well = bw.Well(W=W, omega0=10.0 ** rng.uniform(math.log10(20.0), 5.0) / W)
            target = int(10.0 ** rng.uniform(0.0, 2.5)) * math.pi / well.W
            try:
                want = _bisect_speed_reference(target, well.omega0)
            except InvalidConfigError as e:
                rejected += 1
                with pytest.raises(InvalidConfigError, match=re.escape(str(e))):
                    bw._bisect_speed(target, well.omega0)
                continue
            assert bw._bisect_speed(target, well.omega0) == want
        assert 0 < rejected < 100

    def test_bad_mode_index(self):
        with pytest.raises(InvalidConfigError):
            bw.speed_for_mode(WELL, 0)
        with pytest.raises(InvalidConfigError):
            bw.quantize(WELL, 0)
