"""Property tests of the invariants the paper rests on, over random inputs."""

import math
import warnings

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
#: Log-uniform over the boost runner's whole omega0 range [1e-9, 1e9].
boost_omegas = st.floats(min_value=-9.0, max_value=9.0).map(lambda e: 10.0**e)


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
    log_W=st.floats(min_value=-100.0, max_value=100.0),
    log_phase=st.floats(min_value=math.log10(bw.MIN_CARRIER_PHASE),
                        max_value=math.log10(bw.MAX_CARRIER_PHASE)),
    n=st.integers(min_value=1, max_value=20),
)
def test_mode_speed_quantizes_envelope(log_W, log_phase, n):
    # Over Well's whole range: W in [1e-100, 1e100], omega0*W in [20, 1e5].
    W = 10.0**log_W
    omega0 = 10.0**log_phase / W
    assume(bw.MIN_CARRIER_PHASE <= omega0 * W <= bw.MAX_CARRIER_PHASE)
    v = bw.speed_for_mode(bw.Well(W=W, omega0=omega0), n)
    dk = wc.gamma_of(v) * omega0 * v
    assert dk * W == pytest.approx(n * math.pi, rel=1e-9)


@settings(deadline=None, max_examples=60)
@given(
    omega0=boost_omegas,
    speed=st.floats(min_value=1e-3, max_value=0.999),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_measured_tone_pair_keeps_rest_frequency(omega0, speed, sign):
    # The invariant mass measured from the boosted field: sqrt(w+*w-) = omega0.
    # The bound is 15 times the worst of ~1,300 random pairs solved on every
    # sample (6.7e-7, where the lower tone near |beta| = 0.999 has ~5000
    # samples a period); on every 4th sample the worst of 1,300 was 9.6e-10.
    b = wc.boost_standing_wave(omega0, sign * speed)
    beat = (b.omega_plus - b.omega_minus) / 2.0
    _, hi, lo = wc.measure_tone_pair(wc.superposition_of(b), 0.0, beat)
    assert hi * lo == pytest.approx(omega0**2, rel=1e-5)


@settings(deadline=None, max_examples=60)
@given(
    omega0=boost_omegas,
    speed=st.floats(min_value=1 / 128, max_value=0.99, exclude_max=True),
    sign=st.sampled_from([1.0, -1.0]),
)
def test_boost_gates_pass(omega0, speed, sign, tmp_path_factory):
    out = tmp_path_factory.mktemp("boost")
    summary = scenarios.run("boost", {"omega0": omega0, "beta": sign * speed}, out)
    assert summary.passed, [(m.name, m.rel_error) for m in summary.metrics if not m.passed]


@settings(deadline=None, max_examples=60)
@given(
    omega0=boost_omegas,
    speed=st.floats(min_value=0.0077, max_value=0.993),
    sign=st.sampled_from([1.0, -1.0]),
)
# The worst envelope error of a sweep of boost's range (9.1e-4), and both ends.
@example(omega0=1e9, speed=0.9915305537489627, sign=1.0)
@example(omega0=1e9, speed=0.99199, sign=-1.0)
@example(omega0=1e-9, speed=0.0078, sign=1.0)
def test_boost_passes_or_rejects_at_the_speed_edges(omega0, speed, sign, tmp_path_factory):
    # Near c the spatial tone solve is weakest: k- spans about one period of the
    # grid.  A speed that the envelope grid accepts passes every gate; the grid
    # rejects any other with InvalidConfigError.
    out = tmp_path_factory.mktemp("boost")
    b = wc.boost_standing_wave(omega0, sign * speed)
    recomputed = (b.omega_plus - b.omega_minus) / (b.omega_plus + b.omega_minus)
    params = {"omega0": omega0, "beta": sign * speed}
    if wc.ENVELOPE_SPEED_MIN <= recomputed < wc.ENVELOPE_SPEED_MAX:
        summary = scenarios.run("boost", params, out)
        assert summary.passed, [(m.name, m.rel_error) for m in summary.metrics if not m.passed]
    else:
        with pytest.raises(InvalidConfigError, match="no commensurate grid"):
            scenarios.run("boost", params, out)


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


@settings(deadline=None, max_examples=25)
@given(v=st.floats(min_value=0.5, max_value=0.999),
       carrier_phase=st.floats(min_value=20.0, max_value=1e7))
@example(v=0.93, carrier_phase=100.0)
def test_box_beat_passes_or_rejects(v, carrier_phase, tmp_path_factory):
    # Near c the lower tone approaches DC; the default probe must still meet
    # both gates, unless it sits at a node of a component standing wave.
    # Beyond MAX_CARRIER_PHASE the input is rejected, never failed.
    out = tmp_path_factory.mktemp("beat")
    params = {"v": v, "omega0": carrier_phase}  # W = 1
    if carrier_phase > bw.MAX_CARRIER_PHASE:
        with pytest.raises(InvalidConfigError, match=r"omega0\*W must be <="):
            scenarios.run("box-beat", params, out)
        return
    cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=carrier_phase, v=v)
    probe = scenarios.DEFAULTS["box-beat"]["probe"]
    amplitudes = [abs(math.sin(k * probe))
                  for k in (cfg.omega_bar + cfg.delta_omega, cfg.omega_bar - cfg.delta_omega)]
    if min(amplitudes) < bw.PROBE_AMPLITUDE_MIN:
        with pytest.raises(InvalidConfigError, match="node"):
            scenarios.run("box-beat", params, out)
    else:
        summary = scenarios.run("box-beat", params, out)
        assert summary.passed, [(m.name, m.rel_error) for m in summary.metrics if not m.passed]


@settings(deadline=None, max_examples=60)
@given(log_d=st.floats(min_value=-3.0, max_value=3.0),
       # lambda/d stops a relative 1e-9 short of pi/7, which the screen span rejects.
       ratio=st.floats(min_value=1e-12, max_value=math.pi / 7 * (1 - 1e-9)),
       log_distance=st.floats(min_value=0.0, max_value=4.0),
       screen=st.sampled_from(["arc", "line"]))
@example(log_d=math.log10(0.37), ratio=0.4484, log_distance=math.log10(2.0), screen="arc")
@example(log_d=3.0, ratio=0.2, log_distance=4.0, screen="line")
def test_fringes_pass_or_reject(log_d, ratio, log_distance, screen, tmp_path_factory):
    # The fringe gate passes on correct fields, or the input is rejected: nearer
    # than 2d, beyond MAX_SCREEN_PHASE, or on the line screen above
    # MAX_LINE_WAVELENGTH.  The two examples are the worst cases of a sweep.
    d = 10.0**log_d
    D = 10.0**log_distance * d
    params = {"d": d, "wavelength": ratio * d, "D": D, "screen": screen}
    cfg = ds.SlitConfig(d=d, omega=2.0 * math.pi / params["wavelength"])
    out = tmp_path_factory.mktemp("fringes")
    if (D < ds.MIN_SCREEN_DISTANCE * d or cfg.omega * D > ds.MAX_SCREEN_PHASE
            or (screen == "line" and cfg.wavelength / d > ds.MAX_LINE_WAVELENGTH)):
        with pytest.raises(InvalidConfigError):
            scenarios.run("doubleslit-fringes", params, out)
    else:
        summary = scenarios.run("doubleslit-fringes", params, out)
        assert summary.passed, [(m.name, m.rel_error) for m in summary.metrics]


@settings(deadline=None, max_examples=60)
@given(log_d=st.floats(min_value=-3.0, max_value=3.0),
       log_ratio=st.floats(min_value=-6.0, max_value=math.log10(2.0)),
       nx=st.integers(min_value=2, max_value=29),
       ny=st.integers(min_value=2, max_value=29),
       log_x_span=st.floats(min_value=-2.0, max_value=math.log10(50.0)),
       log_y_span=st.floats(min_value=-2.0, max_value=math.log10(50.0)))
# Two rows ~28d off the axis, peaking at m/omega ~ 3e-5.
@example(log_d=0.0, log_ratio=math.log10(0.04303877525650084), nx=20, ny=2,
         log_x_span=math.log10(0.052460200503873504), log_y_span=math.log10(27.98721296838158))
# The exclusion disc just clears, and just covers, the first axis sample.
@example(log_d=0.0, log_ratio=math.log10(1.0001), nx=5, ny=5, log_x_span=0.0, log_y_span=0.0)
@example(log_d=0.0, log_ratio=math.log10(1.0004), nx=5, ny=5, log_x_span=0.0, log_y_span=0.0)
def test_doubleslit_map_passes_or_rejects(log_d, log_ratio, nx, ny, log_x_span, log_y_span,
                                          tmp_path_factory):
    # Every gate passes on the correct map, or the input is rejected exactly when
    # the slit exclusion disc covers the first (nearest) axis sample (d/100, 0).
    d = 10.0**log_d
    params = {"d": d, "wavelength": 10.0**log_ratio * d, "nx": nx, "ny": ny,
              "x_span": min(10.0**log_x_span, 50.0), "y_span": min(10.0**log_y_span, 50.0)}
    cfg = ds.SlitConfig(d=d, omega=2.0 * math.pi / params["wavelength"])
    out = tmp_path_factory.mktemp("map")
    if np.hypot(d / 100.0, d / 2.0) < cfg.exclusion_radius:
        with pytest.raises(InvalidConfigError, match="covers an axis sample"):
            scenarios.run("doubleslit-map", params, out)
    else:
        summary = scenarios.run("doubleslit-map", params, out)
        assert summary.passed, [(m.name, m.rel_error) for m in summary.metrics]


@settings(deadline=None, max_examples=30)
@given(log_W=st.floats(min_value=-2.0, max_value=2.0),
       carrier_phase=st.floats(min_value=bw.MIN_CARRIER_PHASE, max_value=bw.MAX_CARRIER_PHASE),
       log_cavity=st.floats(min_value=-4.0, max_value=-1.0),
       log_v=st.floats(min_value=-6.0, max_value=math.log10(0.999)),
       n_positions=st.integers(min_value=2, max_value=100))
# A center meets a node of cos(dw*t) where dk*L is only ~4 carrier-phase roundings.
@example(log_W=0.0, carrier_phase=9184.83535561798, log_cavity=-3.0482297868311936,
         log_v=-6.0, n_positions=66)
def test_box_states_passes_or_rejects(log_W, carrier_phase, log_cavity, log_v, n_positions,
                                      tmp_path_factory):
    # Over omega0*W's whole accepted range, every gate passes on the correct
    # field or the input is rejected (too slow a cavity, or a sweep too coarse
    # to resolve the envelope); no input fails a gate or stops a measurement.
    W = 10.0**log_W
    params = {"W": W, "L": 10.0**log_cavity * W, "omega0": carrier_phase / W,
              "v": 10.0**log_v, "n_positions": n_positions}
    out = tmp_path_factory.mktemp("states")
    try:
        summary = scenarios.run("box-states", params, out)
    except InvalidConfigError:
        return
    assert summary.passed, [(m.name, m.rel_error) for m in summary.metrics if not m.passed]


@settings(deadline=None, max_examples=60)
@given(W=st.floats(min_value=-300.0, max_value=300.0).map(lambda e: 10.0**e),
       carrier_phase=st.floats(min_value=bw.MIN_CARRIER_PHASE, max_value=bw.MAX_CARRIER_PHASE),
       kind=st.sampled_from(["box-beat", "box-states", "box-quantize"]))
# Widths at which each scenario once divided by an underflowed W**2 or overflowed.
@example(W=1e-300, carrier_phase=100.0, kind="box-quantize")
@example(W=1e-306, carrier_phase=170.0, kind="box-quantize")
@example(W=1e155, carrier_phase=100.0, kind="box-quantize")
@example(W=1e150, carrier_phase=100.0, kind="box-beat")
@example(W=1e-200, carrier_phase=100.0, kind="box-states")
@example(W=1e155, carrier_phase=20.0, kind="box-states")
def test_box_scenarios_pass_or_reject_at_any_width(W, carrier_phase, kind, tmp_path_factory):
    # Each box scenario scaled to a well of width W, every length in
    # proportion: its gates pass, or the input is rejected (the well's scale
    # bound keeps W**2 and 1/W**2 normal floats).  A warning fails the run.
    params = {"W": W, "omega0": carrier_phase / W}
    if kind == "box-beat":
        params["probe"] = 0.275 * W
    elif kind == "box-states":
        params["L"] = 0.1 * W
    out = tmp_path_factory.mktemp("width")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            summary = scenarios.run(kind, params, out)
        except InvalidConfigError:
            return
    assert summary.passed, [(m.name, m.rel_error) for m in summary.metrics if not m.passed]


@settings(deadline=None, max_examples=25)
@given(log_d=st.floats(min_value=-3.0, max_value=3.0),
       starts=st.lists(st.tuples(st.floats(min_value=1e-3, max_value=50.0),
                                 st.floats(min_value=-50.0, max_value=50.0)),
                       min_size=1, max_size=3),
       max_steps=st.integers(min_value=1, max_value=3000))
@example(log_d=0.0, starts=[(2.0, 0.5)], max_steps=10)
def test_doubleslit_traj_passes_or_rejects(log_d, starts, max_steps, tmp_path_factory):
    # Every accepted input passes the flux-invariant gate on the correct
    # streamlines, however few steps they take and wherever they start.
    d = 10.0**log_d
    params = {"d": d, "starts": [[fx * d, fy * d] for fx, fy in starts],
              "max_steps": max_steps}
    out = tmp_path_factory.mktemp("traj")
    try:
        summary = scenarios.run("doubleslit-traj", params, out)
    except InvalidConfigError:
        return
    assert summary.passed, [(m.name, m.rel_error) for m in summary.metrics]


@settings(deadline=None, max_examples=60)
@given(log_d=st.floats(min_value=-3.0, max_value=3.0),
       log_ratio=st.floats(min_value=-6.0, max_value=math.log10(2.0)),
       nx=st.integers(min_value=1, max_value=300),
       ny=st.integers(min_value=1, max_value=300),
       log_x_span=st.floats(min_value=-2.0, max_value=math.log10(50.0)),
       log_y_span=st.floats(min_value=-2.0, max_value=math.log10(50.0)),
       cuts=st.lists(st.integers(min_value=0, max_value=300), max_size=8))
# More columns than a stream block holds cells: each block is one row.
@example(log_d=0.0, log_ratio=math.log10(0.05), nx=3, ny=scenarios._MAP_BLOCK_CELLS + 1,
         log_x_span=0.0, log_y_span=0.0, cuts=[1, 2])
# The runner's slit-plane call (x = [0]) and axis call (one column).
@example(log_d=0.0, log_ratio=math.log10(0.05), nx=1, ny=401, log_x_span=0.0, log_y_span=0.0,
         cuts=[])
@example(log_d=0.0, log_ratio=math.log10(0.05), nx=500, ny=1, log_x_span=1.0, log_y_span=0.0,
         cuts=[])
# The default map's stream: blocks of 10 rows, the last of one.
@example(log_d=0.0, log_ratio=math.log10(0.05), nx=201, ny=201, log_x_span=math.log10(5.0),
         log_y_span=math.log10(2.5), cuts=list(range(10, 201, 10)))
def test_mass_map_blocks_change_no_bit(log_d, log_ratio, nx, ny, log_x_span, log_y_span, cuts):
    # The map streamed one block of rows per call holds the bits of one call
    # over the whole grid, NaN cells included.
    d = 10.0**log_d
    cfg = ds.SlitConfig(d=d, omega=2.0 * math.pi / (10.0**log_ratio * d))
    x = np.linspace(0.0, 10.0**log_x_span * d, nx)
    y = np.linspace(-(10.0**log_y_span) * d, 10.0**log_y_span * d, ny)
    whole = ds.mass_map(cfg, x.tolist(), y)
    bounds = sorted({0, nx, *(c % (nx + 1) for c in cuts)})
    blocks = np.concatenate([ds.mass_map(cfg, x[i:j], y) for i, j in zip(bounds, bounds[1:])])
    assert whole.shape == (nx, ny)
    np.testing.assert_array_equal(np.isnan(blocks), np.isnan(whole))
    assert blocks.tobytes() == whole.tobytes()


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
    # The trajectory kernel's abs(z) is the hypot that np.hypot calls.
    assert abs(complex(x, y)).hex() == float(np.hypot(x, y)).hex()


def _reference_streamline(start, cfg, max_steps):
    """RK4 along the unit velocity of ``weighted_local_state``, in the library's operation order."""
    step = cfg.d / 100.0
    half, sixth = 0.5 * step, step / 6.0

    def direction(x, y):
        vx, vy = map(float, ds.weighted_local_state((x, y), cfg).v)
        speed = abs(complex(vx, vy))
        return vx / speed, vy / speed, speed

    x, y = start
    points, times, termination = [(x, y)], [0.0], "max_steps"
    for _ in range(max_steps):
        a = direction(x, y)
        b = direction(x + half * a[0], y + half * a[1])
        c = direction(x + half * b[0], y + half * b[1])
        e = direction(x + step * c[0], y + step * c[1])
        x = x + sixth * (a[0] + 2.0 * b[0] + 2.0 * c[0] + e[0])
        y = y + sixth * (a[1] + 2.0 * b[1] + 2.0 * c[1] + e[1])
        points.append((x, y))
        times.append(times[-1] + step / a[2])
        if not (cfg.x_min <= x <= cfg.x_max and abs(y) <= cfg.y_half):
            termination = "boundary"
            break
    return np.array(points), np.array(times), termination


@settings(deadline=None, max_examples=40)
@given(log_d=st.floats(min_value=-50.0, max_value=50.0),
       fx=st.floats(min_value=1e-3, max_value=50.0),
       fy=st.floats(min_value=-50.0, max_value=50.0),
       max_steps=st.integers(min_value=0, max_value=600))
@example(log_d=0.0, fx=49.9, fy=0.0, max_steps=600)  # leaves the domain
@example(log_d=0.0, fx=0.0, fy=0.0, max_steps=600)  # the slit midpoint, outside the domain
def test_trajectory_is_rk4_streamline_of_weighted_state(log_d, fx, fy, max_steps):
    d = 10.0**log_d
    cfg = ds.SlitConfig(d=d, omega=1.0)
    start = (fx * d, fy * d)
    if not (cfg.x_min <= start[0] <= cfg.x_max and abs(start[1]) <= cfg.y_half):
        with pytest.raises(InvalidConfigError, match="lies outside"):
            ds.integrate_trajectory(start, cfg, max_steps=max_steps)
        return
    traj = ds.integrate_trajectory(start, cfg, max_steps=max_steps)
    points, times, termination = _reference_streamline(start, cfg, max_steps)
    assert traj.termination == termination
    assert traj.points.shape == points.shape and traj.points.tobytes() == points.tobytes()
    assert traj.times.tobytes() == times.tobytes()
