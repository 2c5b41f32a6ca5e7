"""Property tests of the invariants the paper rests on, over random inputs."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qmasslab import boxwell as bw
from qmasslab import doubleslit as ds
from qmasslab import qmass as qm
from qmasslab import scenarios
from qmasslab import wavecore as wc
from qmasslab.errors import InvalidConfigError

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


@settings(deadline=None, max_examples=60)
@given(
    omega0=omegas,
    speed=st.floats(min_value=1 / 128, max_value=0.99, exclude_max=True),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_boost_gates_pass(omega0, speed, sign, tmp_path_factory):
    out = tmp_path_factory.mktemp("boost")
    summary = scenarios.run("boost", {"omega0": omega0, "beta": sign * speed}, out)
    assert summary.passed, [(m.name, m.rel_error) for m in summary.metrics if not m.passed]


@settings(deadline=None, max_examples=60)
@given(
    W=st.floats(min_value=0.01, max_value=100.0),
    carrier_phase=st.floats(min_value=20.0, max_value=1e7),
)
def test_box_quantize_passes_or_rejects(W, carrier_phase, tmp_path_factory):
    # Up to MAX_CARRIER_PHASE every gate passes on the correct modes; beyond it
    # the input is rejected, never failed.
    omega0 = carrier_phase / W
    assume(omega0 * W >= bw.MIN_CARRIER_PHASE)
    out = tmp_path_factory.mktemp("quantize")
    params = {"W": W, "omega0": omega0}
    if omega0 * W > bw.MAX_CARRIER_PHASE:
        with pytest.raises(InvalidConfigError, match=r"omega0\*W must be <="):
            scenarios.run("box-quantize", params, out)
    else:
        summary = scenarios.run("box-quantize", params, out)
        assert summary.passed, [(m.name, m.rel_error) for m in summary.metrics if not m.passed]


#: Finite floats, subnormals and both zeros included, up to a magnitude whose
#: hypot with any other still fits a float (abs(complex) raises on overflow),
#: and unit-range floats, where math.hypot misses libm on ~0.6% of pairs.
hypot_args = st.one_of(st.floats(min_value=-1.2e308, max_value=1.2e308),
                       st.floats(min_value=-1.0, max_value=1.0))


@settings(max_examples=500)
@given(x=hypot_args, y=hypot_args)
@example(x=5e-324, y=-0.0)
@example(x=-0.0, y=0.0)
@example(x=2.225073858507201e-308, y=-5e-324)
@example(x=1.7976931348623157e308, y=0.0)
@example(x=-1.2e308, y=1.2e308)
@example(x=0.024, y=0.01)  # math.hypot rounds this pair one ulp off
def test_hypot_is_libm_hypot(x, y):
    assert ds._hypot(x, y).hex() == float(np.hypot(x, y)).hex()
