import math

import numpy as np
import pytest

from qmasslab import qmass as qm
from qmasslab import wavecore as wc
from qmasslab.errors import (
    InvalidBoostError,
    InvalidMomentumError,
    UndefinedMassError,
)


class TestFourMomentumOf:
    def test_reference_pair(self):
        P = qm.four_momentum_of(qm.BidirectionalWave(2.0, 0.5))
        assert P.E == pytest.approx(1.25, rel=1e-12)
        assert P.px == pytest.approx(0.75, rel=1e-12)

    def test_sum_of_null_photon_halves(self):
        # one photon's energy split between the two directions
        om_p, om_m = 3.2, 1.1
        P = qm.four_momentum_of(qm.BidirectionalWave(om_p, om_m))
        assert P.E == pytest.approx(om_p / 2 + om_m / 2, rel=1e-12)
        assert P.px == pytest.approx(om_p / 2 - om_m / 2, rel=1e-12)

    def test_standing_wave_at_rest(self):
        P = qm.four_momentum_of(qm.BidirectionalWave(2.0, 2.0))
        assert (P.E, P.px, P.py) == (2.0, 0.0, 0.0)

    def test_axis_flip_is_parity(self):
        P = qm.four_momentum_of(qm.BidirectionalWave(2.0, 0.5, axis=(-1.0, 0.0)))
        assert P.px == pytest.approx(-0.75, rel=1e-12)
        assert P.E == pytest.approx(1.25, rel=1e-12)


class TestInvariantMass:
    def test_reference_value(self):
        assert qm.invariant_mass(qm.FourMomentum(1.25, 0.75)) == pytest.approx(
            1.0, rel=1e-12
        )

    def test_rest_case(self):
        assert qm.invariant_mass(qm.FourMomentum(3.0, 0.0)) == 3.0

    def test_single_photon_massless(self):
        assert qm.invariant_mass(qm.FourMomentum(1.0, 1.0)) == 0.0

    def test_spacelike_rejected(self):
        with pytest.raises(InvalidMomentumError):
            qm.invariant_mass(qm.FourMomentum(1.0, 2.0))

    def test_closed_form_equivalence(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            om = np.sort(rng.uniform(1e-3, 10.0, 2))
            b = qm.BidirectionalWave(om[1], om[0])
            m = qm.invariant_mass(qm.four_momentum_of(b))
            assert m == pytest.approx(math.sqrt(om[0] * om[1]), rel=1e-12)


class TestGroupVelocity:
    def test_recovers_boost_speed(self):
        b = wc.boost_standing_wave(1.0, 0.6)
        v = qm.group_velocity(qm.four_momentum_of(b))
        assert v[0] == pytest.approx(0.6, rel=1e-12)

    def test_rest(self):
        assert np.all(qm.group_velocity(qm.FourMomentum(2.0, 0.0)) == 0.0)

    def test_single_photon(self):
        assert qm.group_velocity(qm.FourMomentum(1.0, 1.0))[0] == pytest.approx(1.0)

    def test_nonpositive_energy_rejected(self):
        with pytest.raises(InvalidMomentumError):
            qm.group_velocity(qm.FourMomentum(0.0, 0.0))


class TestDeBroglieWavelength:
    def test_reference_value(self):
        lam = qm.de_broglie_wavelength(1.0, 0.6)
        assert lam == pytest.approx(2 * math.pi / 0.75, rel=1e-12)

    def test_rest_gives_infinity(self):
        assert qm.de_broglie_wavelength(1.0, 0.0) == math.inf

    def test_massless_rejected(self):
        with pytest.raises(UndefinedMassError):
            qm.de_broglie_wavelength(0.0, 0.5)

    def test_momentum_identity_exact(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            m = rng.uniform(0.1, 5.0)
            v = rng.uniform(1e-3, 0.999)
            g = 1.0 / math.sqrt(1.0 - v * v)
            lam = qm.de_broglie_wavelength(m, v)
            assert lam * (g * m * v) == pytest.approx(2 * math.pi, rel=1e-14)

    def test_matches_envelope_wavelength(self):
        for beta in (0.1, 0.3, 0.6, 0.9):
            b = wc.boost_standing_wave(1.0, beta)
            state = qm.mass_state_of(b)
            pair = wc.factor_carrier_envelope(b)
            lam = qm.de_broglie_wavelength(state.m, state.v)
            assert lam == pytest.approx(pair.envelope.wavelength, rel=1e-12)


class TestBoostFourMomentum:
    def test_lands_in_rest_frame(self):
        P = qm.boost_four_momentum(qm.FourMomentum(1.25, 0.75), -0.6)
        assert P.E == pytest.approx(1.0, rel=1e-12)
        assert P.px == pytest.approx(0.0, abs=1e-12)

    def test_identity(self):
        P = qm.FourMomentum(1.25, 0.75)
        assert qm.boost_four_momentum(P, 0.0) is P

    def test_invalid_boost(self):
        with pytest.raises(InvalidBoostError):
            qm.boost_four_momentum(qm.FourMomentum(1.0, 0.0), 1.0)

    @pytest.mark.parametrize("beta", [-0.9, -0.5, -0.1, 0.1, 0.5, 0.9])
    def test_mass_invariance_sweep(self, beta):
        rng = np.random.default_rng(abs(hash(beta)) % 2**32)
        for _ in range(100):
            om = np.sort(rng.uniform(1e-2, 10.0, 2))
            P = qm.four_momentum_of(qm.BidirectionalWave(om[1], om[0]))
            m0 = qm.invariant_mass(P)
            m1 = qm.invariant_mass(qm.boost_four_momentum(P, beta))
            assert m1 == pytest.approx(m0, rel=1e-12)


class TestMassState:
    def test_triangle_identity(self):
        rng = np.random.default_rng(23)
        for _ in range(200):
            om = np.sort(rng.uniform(1e-2, 10.0, 2))
            st = qm.mass_state_of(qm.BidirectionalWave(om[1], om[0]))
            assert st.E**2 == pytest.approx(st.m**2 + st.p**2, rel=1e-12)
            assert 0.0 <= st.v <= 1.0

    def test_wavelength_momentum_product(self):
        st = qm.mass_state_of(qm.BidirectionalWave(2.0, 0.5))
        lam = qm.de_broglie_wavelength(st.m, st.v)
        assert lam * st.p == pytest.approx(2 * math.pi, rel=1e-12)

    def test_route_equivalence_via_component_boost(self):
        # Boosting both components into the frame where the frequencies are
        # equal, then using the rest-frame rule, matches the direct route.
        rng = np.random.default_rng(31)
        for _ in range(200):
            om = np.sort(rng.uniform(1e-2, 10.0, 2))
            b = qm.BidirectionalWave(om[1], om[0])
            beta_star = (om[1] - om[0]) / (om[1] + om[0])
            fwd = wc.doppler_boost(wc.PlaneWave(om[1], (1.0, 0.0)), -beta_star)
            bwd = wc.doppler_boost(wc.PlaneWave(om[0], (-1.0, 0.0)), -beta_star)
            assert fwd.omega == pytest.approx(bwd.omega, rel=1e-12)
            m_rest = fwd.omega  # hbar*omega/c^2 in natural units
            m_direct = qm.invariant_mass(qm.four_momentum_of(b))
            assert m_direct == pytest.approx(m_rest, rel=1e-12)
