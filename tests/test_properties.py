"""Property tests of the invariants the paper rests on, over random inputs."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmasslab import boxwell as bw
from qmasslab import qmass as qm
from qmasslab import wavecore as wc

betas = st.floats(min_value=-0.99, max_value=0.99)
omegas = st.floats(min_value=1e-3, max_value=1e3)


@settings(deadline=None)
@given(omega0=omegas, beta0=betas, beta=betas)
def test_boost_preserves_invariant_mass(omega0, beta0, beta):
    P = qm.four_momentum_of(wc.boost_standing_wave(omega0, beta0))
    boosted = qm.boost_four_momentum(P, beta)
    assert qm.invariant_mass(boosted) == pytest.approx(qm.invariant_mass(P), rel=1e-9)


@settings(deadline=None)
@given(omega0=omegas, beta=betas)
def test_frequency_product_is_rest_frequency_squared(omega0, beta):
    b = wc.boost_standing_wave(omega0, beta)
    assert b.omega_plus * b.omega_minus == pytest.approx(omega0**2, rel=1e-12)


@settings(deadline=None)
@given(
    W=st.floats(min_value=0.5, max_value=5.0),
    omega0=st.floats(min_value=10.0, max_value=1e3),
    n=st.integers(min_value=1, max_value=20),
)
def test_mode_speed_quantizes_envelope(W, omega0, n):
    v = bw.speed_for_mode(W, omega0, n)
    dk = wc.gamma_of(v) * omega0 * v
    assert dk * W == pytest.approx(n * math.pi, rel=1e-9)
