import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qmasslab import boxwell as bw
from qmasslab import doubleslit as ds
from qmasslab import qmass as qm
from qmasslab import wavecore as wc
from qmasslab.errors import InsufficientSpanError, InvalidConfigError

NAN, INF = float("nan"), float("inf")


def _bisect_root(f, lo, hi):
    """Root of ``f`` in a sign-changing bracket, bisected to adjacent floats."""
    f_lo = f(lo)
    assert f_lo * f(hi) < 0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if (f(mid) < 0) == (f_lo < 0):
            lo = mid
        else:
            hi = mid


@pytest.mark.parametrize(
    "make, args, error, match",
    [
        (wc.PlaneWave, (NAN,), InvalidConfigError, "omega must be positive and finite"),
        (wc.PlaneWave, (INF,), InvalidConfigError, "omega must be positive and finite"),
        (wc.PlaneWave, (1.0, (INF, 0.0)), InvalidConfigError, "direction vector must be nonzero"),
        (wc.PlaneWave, (1.0, (1.0, 0.0), NAN), InvalidConfigError, "phase must be finite"),
        (wc.BidirectionalWave, (INF, 1.0), InvalidConfigError, "need finite omega_plus"),
        (wc.BidirectionalWave, (2.0, 1.0, (NAN, 0.0)), InvalidConfigError, "direction vector"),
        (ds.SlitConfig, (INF, 1.0), InvalidConfigError, "slit separation must be positive"),
        (ds.SlitConfig, (1.0, NAN), InvalidConfigError, "omega must be positive and finite"),
        (ds.SlitConfig, (-1.0, 1.0), InvalidConfigError, "slit separation must be positive"),
        (bw.BoxConfig, dict(W=INF, L=0.1, omega0=100.0, v=0.05), InvalidConfigError,
         "must be finite"),
        (bw.BoxConfig, dict(W=1.0, L=0.1, omega0=NAN, v=0.05), InvalidConfigError,
         "must be finite"),
        (bw.BoxConfig, dict(W=1.0, L=0.1, omega0=INF, v=0.05), InvalidConfigError,
         "must be finite"),
        (ds.SlitConfig, (9.9e-101, 1.0), InvalidConfigError, r"in \[1e-100, 1e100\]"),
        (ds.SlitConfig, (1.01e100, 1.0), InvalidConfigError, r"in \[1e-100, 1e100\]"),
        (bw.Well, dict(W=NAN, omega0=100.0), InvalidConfigError, "must be finite"),
        (bw.Well, dict(W=1.0, omega0=-INF), InvalidConfigError, "must be finite"),
        (bw.Well, dict(W=0.0, omega0=100.0), InvalidConfigError, "W must be positive"),
        (bw.Well, dict(W=9.9e-101, omega0=1e102), InvalidConfigError, r"in \[1e-100, 1e100\]"),
        (bw.Well, dict(W=1.01e100, omega0=1e-98), InvalidConfigError, r"in \[1e-100, 1e100\]"),
        (qm.FourMomentum, (NAN, 0.0), InvalidConfigError, "components must be finite"),
        (qm.FourMomentum, (INF, 1.0), InvalidConfigError, "components must be finite"),
        (qm.FourMomentum, (1.0, 0.0, -INF), InvalidConfigError, "components must be finite"),
        (wc.boost_standing_wave, (0.0, 0.0), InvalidConfigError, "omega0 must be positive"),
        (wc.boost_standing_wave, (-1.0, 0.6), InvalidConfigError, "omega0 must be positive"),
    ],
    ids=lambda v: getattr(v, "__name__", None) if isinstance(v, type) else None,
)
def test_non_finite_or_invalid_input_rejected_at_construction(make, args, error, match):
    with pytest.raises(error, match=match):
        make(**args) if isinstance(args, dict) else make(*args)


@pytest.mark.parametrize("beta", [1.0, -1.0, NAN, INF, -INF])
def test_gamma_rejects_speeds_not_below_c(beta):
    with pytest.raises(InvalidConfigError, match=r"\|beta\| must be < 1"):
        wc.gamma_of(beta)


class TestDopplerBoost:
    def test_forward_wave(self):
        w = wc.PlaneWave(1.0, (1.0, 0.0))
        out = wc.doppler_boost(w, 0.6)
        assert out.omega == pytest.approx(2.0, rel=1e-12)
        assert out.direction == pytest.approx((1.0, 0.0))

    def test_backward_wave(self):
        w = wc.PlaneWave(1.0, (-1.0, 0.0))
        out = wc.doppler_boost(w, 0.6)
        assert out.omega == pytest.approx(0.5, rel=1e-12)

    def test_identity_boost_is_exact(self):
        w = wc.PlaneWave(3.7, (0.6, 0.8), phase=0.1)
        assert wc.doppler_boost(w, 0.0) is w

    def test_half_boost_composition(self):
        # Composing two boosts at beta_h with velocity addition reproduces one
        # boost at beta = 2*beta_h/(1+beta_h**2).
        beta = 0.6
        beta_h = beta / (1.0 + math.sqrt(1.0 - beta**2))
        w = wc.PlaneWave(1.0, (1.0, 0.0))
        once = wc.doppler_boost(w, beta)
        twice = wc.doppler_boost(wc.doppler_boost(w, beta_h), beta_h)
        assert twice.omega == pytest.approx(once.omega, rel=1e-12)

    def test_oblique_direction_stays_null(self):
        w = wc.PlaneWave(2.0, (0.6, 0.8))
        out = wc.doppler_boost(w, 0.3)
        assert np.hypot(*out.direction) == pytest.approx(1.0, abs=1e-12)
        # aberration: k'_x = omega'*d'_x = gamma*omega*(d_x + beta)
        g = 1.0 / math.sqrt(1.0 - 0.3**2)
        kx = g * w.omega * (w.direction[0] + 0.3)
        assert out.omega * out.direction[0] == pytest.approx(kx, rel=1e-12)

    def test_superluminal_boost_rejected(self):
        w = wc.PlaneWave(1.0)
        with pytest.raises(InvalidConfigError, match=r"\|beta\| must be < 1"):
            wc.doppler_boost(w, 1.0)
        with pytest.raises(InvalidConfigError, match=r"\|beta\| must be < 1"):
            wc.boost_standing_wave(1.0, -1.2)


class TestBoostStandingWave:
    def test_reference_pair(self):
        b = wc.boost_standing_wave(1.0, 0.6)
        assert b.omega_plus == pytest.approx(2.0, rel=1e-12)
        assert b.omega_minus == pytest.approx(0.5, rel=1e-12)

    def test_zero_boost_unchanged(self):
        b = wc.boost_standing_wave(3.0, 0.0)
        assert b.omega_plus == 3.0 and b.omega_minus == 3.0

    def test_frequency_product_invariant(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            omega0 = rng.uniform(0.1, 10.0)
            beta = rng.uniform(-0.99, 0.99)
            b = wc.boost_standing_wave(omega0, beta)
            assert b.omega_plus * b.omega_minus == pytest.approx(
                omega0**2, rel=1e-12
            )

    def test_negative_boost_flips_axis(self):
        b = wc.boost_standing_wave(1.0, -0.6)
        assert b.axis == pytest.approx((-1.0, 0.0))
        assert b.omega_plus == pytest.approx(2.0, rel=1e-12)


class TestEvaluate:
    def test_single_wave_origin(self):
        s = wc.Superposition((wc.PlaneWave(1.0),))
        assert wc.evaluate(s, 0.0, 0.0) == 0.0

    def test_standing_pair_product_identity(self):
        b = wc.BidirectionalWave(2.0, 2.0)
        s = wc.superposition_of(b)
        x = np.linspace(-3, 3, 41)
        t = 0.37
        # sin(kx - wt) + sin(-kx - wt) = -2 sin(wt) cos(kx)
        expected = -2.0 * np.sin(2.0 * t) * np.cos(2.0 * x)
        assert np.allclose(wc.evaluate(s, x, t), expected, atol=1e-12)

    def test_nodes_drift_at_group_speed(self):
        b = wc.BidirectionalWave(2.0, 0.5)
        s = wc.superposition_of(b)
        # track a carrier node near x0 across a small time interval
        t0, dt = 0.0, 0.05
        x0 = 2.0 * math.pi / (2.0 * 1.25) / 2.0  # first cos zero: kbar*x = pi/2
        n1 = _bisect_root(lambda x: wc.evaluate(s, x, t0), x0 - 0.3, x0 + 0.3)
        n2 = _bisect_root(lambda x: wc.evaluate(s, x, t0 + dt), n1 - 0.3, n1 + 0.3)
        assert (n2 - n1) / dt == pytest.approx(0.6, rel=1e-6)

    def test_empty_superposition_rejected(self):
        with pytest.raises(InvalidConfigError, match="at least one wave"):
            wc.Superposition(())


class TestFactorCarrierEnvelope:
    def test_reference_factorization(self):
        pair = wc.factor_carrier_envelope(wc.BidirectionalWave(2.0, 0.5))
        assert pair.envelope.wavelength == pytest.approx(2 * math.pi / 0.75, rel=1e-12)
        assert pair.envelope.phase_speed == pytest.approx(1.0 / 0.6, rel=1e-12)
        assert pair.carrier.phase_speed == pytest.approx(0.6, rel=1e-12)

    def test_standing_wave_degenerates(self):
        pair = wc.factor_carrier_envelope(wc.BidirectionalWave(1.5, 1.5))
        assert pair.envelope.wavenumber == 0.0
        assert pair.envelope.wavelength == math.inf
        assert pair.envelope.phase_speed == math.inf
        assert pair.carrier.omega == 0.0

    def test_pointwise_reconstruction(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            om = np.sort(rng.uniform(0.2, 5.0, 2))
            b = wc.BidirectionalWave(om[1], om[0])
            s = wc.superposition_of(b)
            pair = wc.factor_carrier_envelope(b)
            x = rng.uniform(-20, 20, 64)
            t = rng.uniform(0, 20)
            assert np.allclose(
                wc.evaluate(s, x, t), wc.evaluate_product(pair, x, t), atol=1e-10
            )

    def test_speed_product_is_c_squared(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            om = np.sort(rng.uniform(1e-3, 10.0, 2))
            if om[0] == om[1]:
                continue
            pair = wc.factor_carrier_envelope(wc.BidirectionalWave(om[1], om[0]))
            assert pair.envelope.phase_speed >= 1.0
            assert pair.carrier.phase_speed <= 1.0
            assert pair.envelope.phase_speed * pair.carrier.phase_speed == (
                pytest.approx(1.0, rel=1e-12)
            )

    def test_invalid_pair_rejected(self):
        with pytest.raises(InvalidConfigError, match="omega_plus >= omega_minus > 0"):
            wc.BidirectionalWave(1.0, 0.0)
        with pytest.raises(InvalidConfigError, match="omega_plus >= omega_minus > 0"):
            wc.BidirectionalWave(0.5, 2.0)


class TestSpatialWavelength:
    def test_spectral_cross_check(self):
        lam = 1.9
        x = np.arange(0, 8 * lam, lam / 64)
        v = np.sin(2 * math.pi * x / lam)
        k = wc.measure_temporal_frequencies(x, v, 1)[0]
        assert 2 * math.pi / k == pytest.approx(lam, rel=1e-3)

    def test_envelope_of_boosted_pair(self):
        b = wc.BidirectionalWave(2.0, 0.5)
        pair = wc.factor_carrier_envelope(b)
        x = wc.envelope_sampling_grid(b)
        snap = wc.evaluate(wc.superposition_of(b), x, 0.3)
        lam = wc.measure_envelope_wavelength(x, snap)
        assert lam == pytest.approx(pair.envelope.wavelength, rel=1e-3)

    def test_envelope_needs_no_commensurate_span(self):
        # 3.7 envelope periods at 40 points per period of k+: the span fits
        # neither spatial tone, and the two-tone solve does not need it to.
        b = wc.BidirectionalWave(2.0, 0.5)
        pair = wc.factor_carrier_envelope(b)
        x = np.arange(0.0, 3.7 * pair.envelope.wavelength, math.pi / 40.0)
        snap = wc.evaluate(wc.superposition_of(b), x, 0.3)
        lam = wc.measure_envelope_wavelength(x, snap)
        assert lam == pytest.approx(pair.envelope.wavelength, rel=1e-9)


# Two tones over 40 time units, 16 or more samples per period; a bin of the
# series' FFT is 2*pi/40.
_TWO_TONE_TIMES = np.arange(400) * 0.1
_TWO_TONE_SERIES = np.sin(1.3 * _TWO_TONE_TIMES) + 0.4 * np.cos(2.9 * _TWO_TONE_TIMES + 0.2)


def _two_tone_residual(omegas):
    """Misfit of the best two-tone series at ``omegas``, its amplitudes solved linearly."""
    t = _TWO_TONE_TIMES
    basis = np.stack([f(om * t) for om in omegas for f in (np.cos, np.sin)], axis=1)
    return basis @ np.linalg.lstsq(basis, _TWO_TONE_SERIES, rcond=None)[0] - _TWO_TONE_SERIES


def _relative_residual(values, count):
    """The prediction solve's relative residual, as ``measure_temporal_frequencies`` forms it."""
    cols = [values]
    for _ in range(count):
        cols = [c[1:-1] for c in cols] + [cols[-1][:-2] + cols[-1][2:]]
    rhs = cols.pop()
    residual = np.linalg.lstsq(np.stack(cols, axis=1), -rhs, rcond=None)[1]
    return math.sqrt(residual[0]) / np.linalg.norm(rhs)


class TestTemporalFrequencies:
    def test_two_tone(self):
        t = np.arange(0, 50, 0.005)
        v = np.cos(5 * t) + np.cos(100 * t + 0.4)
        got = np.sort(wc.measure_temporal_frequencies(t, v, 2))
        assert got[0] == pytest.approx(5.0, rel=5e-3)
        assert got[1] == pytest.approx(100.0, rel=5e-3)

    def test_constant_errors(self):
        t = np.linspace(0, 1, 64)
        with pytest.raises(InsufficientSpanError, match="constant series has no spectral peaks"):
            wc.measure_temporal_frequencies(t, np.full_like(t, 2.5), 1)

    def test_series_flat_to_rounding_has_no_peaks(self):
        # A phase of 3e19 absorbs every 100*t < 2048 (half its ulp): all samples
        # are equal, so the series is constant.
        t = np.arange(64) / 64
        v = np.cos(3e19 + 100.0 * t)
        assert np.ptp(v) == 0.0
        with pytest.raises(InsufficientSpanError, match="no spectral peaks"):
            wc.measure_temporal_frequencies(t, v, 2)

    def test_short_series_errors(self):
        with pytest.raises(InsufficientSpanError):
            wc.measure_temporal_frequencies(np.arange(8), np.arange(8.0), 1)

    @pytest.mark.parametrize("n, count", [(18, 6), (21, 7)])
    def test_fewer_prediction_rows_than_tones_errors(self, n, count):
        # n - 2*count prediction rows must outnumber the count tones.
        t = np.arange(n) * 0.1
        with pytest.raises(InsufficientSpanError, match=f"series too short: {n} samples"):
            wc.measure_temporal_frequencies(t, np.cos(2.0 * t), count)

    @pytest.mark.parametrize("count", [0, -1])
    def test_count_below_one_rejected(self, count):
        t = np.arange(0, 50, 0.005)
        with pytest.raises(InvalidConfigError, match="count must be >= 1"):
            wc.measure_temporal_frequencies(t, np.cos(5 * t), count)

    @pytest.mark.parametrize("times", [np.arange(0, 50, 0.005)[::-1], np.zeros(10000)])
    def test_step_not_positive_rejected(self, times):
        v = np.cos(5 * times) + np.cos(100 * times + 0.4)
        with pytest.raises(InvalidConfigError, match="time step must be positive"):
            wc.measure_temporal_frequencies(times, v, 2)

    @pytest.mark.parametrize("jitter, uniform", [(0.9e-9, True), (1.1e-9, False)])
    def test_steps_must_agree_to_1e_9(self, jitter, uniform):
        t = np.arange(1000) * 0.05
        t[500:] += jitter * 0.05  # one step off by jitter*dt
        v = np.cos(2.0 * t)
        if uniform:
            assert wc.measure_temporal_frequencies(t, v, 1)[0] == pytest.approx(2.0, rel=1e-3)
        else:
            with pytest.raises(InvalidConfigError, match="time steps must be uniform"):
                wc.measure_temporal_frequencies(t, v, 1)

    @pytest.mark.parametrize("where", ["values", "times"])
    @pytest.mark.parametrize("bad", [INF, -INF, NAN])
    def test_non_finite_sample_rejected_without_warning(self, where, bad):
        t = np.arange(0, 50, 0.005)
        v = np.cos(5 * t) + np.cos(100 * t + 0.4)
        (v if where == "values" else t)[1234] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigError, match="must be finite"):
                wc.measure_temporal_frequencies(t, v, 2)

    @pytest.mark.parametrize("shape", [(999,), (2, 500)])
    def test_times_and_values_of_other_shapes_rejected(self, shape):
        t = np.arange(1000) * 0.05
        v = np.cos(np.arange(np.prod(shape)) * 0.5).reshape(shape)
        with pytest.raises(InvalidConfigError, match="1-D of one length"):
            wc.measure_temporal_frequencies(t, v, 1)

    @settings(deadline=None, max_examples=60)
    @given(
        n=st.integers(64, 8000),
        t0=st.floats(-100.0, 100.0),
        tones=st.tuples(st.floats(0.05, 0.45), st.floats(0.05, 0.45)),
        phase=st.floats(0.0, 2.0 * math.pi),
    )
    @example(n=6529, t0=0.0, tones=(0.1, 0.4), phase=0.3)
    def test_recovers_the_tones_at_any_offset(self, n, t0, tones, phase):
        # Tones in cycles per sample, at least 12 FFT bins apart; t0 only turns
        # the phase.  Over 3,000 draws the worst relative error was 1.1e-12.
        assume(abs(tones[0] - tones[1]) * n >= 12 and min(tones) * n >= 12)
        dt = 0.01
        t = t0 + np.arange(n) * dt
        k = np.arange(n)
        v = np.cos(2 * math.pi * tones[0] * k + phase) + 0.5 * np.cos(2 * math.pi * tones[1] * k)
        got = wc.measure_temporal_frequencies(t, v, 2)
        assert got == pytest.approx(sorted(2 * math.pi * np.array(tones) / dt, reverse=True),
                                    rel=2e-11)

    @settings(deadline=None, max_examples=40)
    @given(offsets=st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)))
    def test_matches_a_two_tone_least_squares_fit(self, offsets):
        # Not importorskip: it warns instead of skipping when an installed
        # scipy raises a plain ImportError, and warnings are errors here.
        try:
            from scipy import optimize
        except ImportError:
            pytest.skip("scipy.optimize is not importable")
        # The fit starts up to half an FFT bin off each tone.
        start = np.array([2.9, 1.3]) + np.array(offsets) * 2.0 * math.pi / 40.0
        fit = optimize.least_squares(_two_tone_residual, start, xtol=1e-15, ftol=1e-15,
                                     gtol=1e-15)
        got = wc.measure_temporal_frequencies(_TWO_TONE_TIMES, _TWO_TONE_SERIES, 2)
        assert got == pytest.approx(fit.x, rel=1e-9)

    @pytest.mark.parametrize("series, count, match", [
        (lambda t: np.cos(5 * t), 2, "fewer than 2 tones"),
        (lambda t: np.cos(5 * t) + np.cos(100 * t + 0.4) + 0.5 * np.cos(40 * t), 2,
         "not a sum of 2 tones"),
        (lambda t: np.cos(5 * t) + np.cos(100 * t + 0.4) + 0.3, 2, "not a sum of 2 tones"),
        (lambda t: np.exp(4.0 * t / 50.0), 1, "not a tone"),
        (lambda t: np.exp(-2.0 * t) * np.cos(100 * t), 2, "not a tone"),
    ], ids=["one-tone", "three-tones", "two-tones-and-an-offset", "growing", "damped"])
    def test_series_that_is_not_count_tones_rejected(self, series, count, match):
        t = np.arange(0, 50, 0.005)
        with pytest.raises(InsufficientSpanError, match=match):
            wc.measure_temporal_frequencies(t, series(t), count)

    def test_worst_accepted_residual_leaves_no_room_to_reject_a_small_offset(self):
        # The worst relative residual found for a series the scenarios accept:
        # 1.3e-8, box-beat with 1 - v near the 2**20-sample floor and the probe
        # near a node of both standing waves (amplitudes 0.020 and 0.023), where
        # evaluate's rounding of the time phase is largest against the series.
        # The boost and box-beat property ranges reach 7.5e-12 and 3.5e-12 and
        # the box-beat range sweep 1.1e-10.  A 1e-3 offset on the 5-and-100
        # rad/s series leaves 4.3e-8, below ten times the worst, so no bound
        # with a 10x margin rejects it; the bound stays at 1e-6, 75x the worst.
        W = 8.358021686255072e+79
        cfg = bw.BoxConfig(W=W, L=W / 10.0, omega0=6.12063509452773e-76, v=0.9997433729864965)
        _, series, _, _ = wc.measure_tone_pair(bw.build_field(cfg), 7.70227878341137e+79,
                                               cfg.delta_omega)
        worst = _relative_residual(series, 2)
        assert worst < 1e-7
        t = np.arange(0, 50, 0.005)
        offset = _relative_residual(np.cos(5 * t) + np.cos(100 * t + 0.4) + 1e-3, 2)
        assert offset < 10.0 * worst


class TestTonePair:
    @pytest.mark.parametrize("beat", [0.0, NAN, -1.0, INF])
    def test_rejects_a_beat_that_is_not_finite_and_positive(self, beat):
        field = wc.superposition_of(wc.boost_standing_wave(1.0, 0.6))
        with pytest.raises(InvalidConfigError, match="beat must be positive and finite"):
            wc.measure_tone_pair(field, 0.0, beat)

    @pytest.mark.parametrize("speed", [0.2, 0.9])
    def test_spans_8_periods_of_the_beat_or_the_lower_tone(self, speed):
        # At omega0 = 1 the beat is gamma*v and the lower tone gamma*(1 - v): the
        # beat is the slower at v = 0.2, the lower tone at 0.9.
        b = wc.boost_standing_wave(1.0, speed)
        beat = (b.omega_plus - b.omega_minus) / 2.0
        t, _, hi, lo = wc.measure_tone_pair(wc.superposition_of(b), 0.0, beat)
        slowest = min(beat, b.omega_minus)
        assert t[-1] < 16.0 * math.pi / slowest <= t[-1] + (t[1] - t[0])
        # 15 times the worst error of ~1,300 boosted pairs (6.7e-7, near |beta| = 0.999).
        assert (hi, lo) == pytest.approx((b.omega_plus, b.omega_minus), rel=1e-5)


def _factored_grid(field, x, t):
    """``field`` on the grid (x[i], t[j]), each wave sin(a - b) as sin(a)*cos(b) - cos(a)*sin(b).

    a = kx*x + p and b = w*t, with the four factors taken over whole axes, as
    ``wave_equation_residual`` takes them: a slice's ``sin`` may round otherwise.
    """
    waves = []
    for w in field.waves:
        a = w.omega * w.direction[0] * x + w.phase
        b = w.omega * t
        waves.append(np.sin(a)[:, None] * np.cos(b) - np.cos(a)[:, None] * np.sin(b))
    return sum(waves)


def _grid_residual(field, F, x, t):
    """Normalized interior maximum of |F_tt - F_xx| over the whole grid ``F``, in one broadcast."""
    dx = x[1] - x[0]
    dt = t[1] - t[0]
    ftt = (F[:, 2:] - 2.0 * F[:, 1:-1] + F[:, :-2]) / dt**2
    fxx = (F[2:, :] - 2.0 * F[1:-1, :] + F[:-2, :]) / dx**2
    res = ftt[1:-1, :] - fxx[:, 1:-1]
    return float(np.max(np.abs(res)) / (np.max(np.abs(F)) * field.omega_max**2))


def _residual_whole_grid(field, x, t):
    """The blocked kernel's reference: the same arithmetic over the whole grid."""
    return _grid_residual(field, _factored_grid(field, x, t), x, t)


def _residual_of_evaluate(field, x, t):
    """The second reference: the residual of the grid that ``evaluate`` gives."""
    return _grid_residual(field, wc.evaluate(field, x[:, None], t[None, :]), x, t)


def _acceptance_grid(field):
    """``tests/test_acceptance.py::test_10``'s grid: 20 periods of the fastest wave."""
    span = 40.0 * math.pi / field.omega_max
    return wc.sample_grid(field.omega_max, (0.0, span), (0.0, span))


_STANDING = wc.superposition_of(wc.boost_standing_wave(1.0, 0.6))
_BOX = bw.build_field(bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=0.05))
_OBLIQUE = wc.Superposition((wc.PlaneWave(2.0, (0.8, 0.6)),))


def _rows_grid(nx, nt):
    """``nx`` by ``nt`` points of the standing wave's 64-per-period grid."""
    step = 2.0 * math.pi / _STANDING.omega_max / 64
    return np.arange(nx) * step, np.arange(nt) * step


# Interior rows 1 below, at and 1 above two blocks of a 400-point t axis, and a
# t axis longer than a block, so that each block is one row.
_BLOCK_ROWS_400 = wc._RESIDUAL_BLOCK_CELLS // 400


class TestWaveEquationResidual:
    @pytest.mark.parametrize("field, grid", [
        (_STANDING, _acceptance_grid(_STANDING)),
        (_BOX, _acceptance_grid(_BOX)),
        (_OBLIQUE, wc.sample_grid(2.0, (0.0, 30.0), (0.0, 30.0))),
        (_STANDING, _rows_grid(2 * _BLOCK_ROWS_400 + 1, 400)),
        (_STANDING, _rows_grid(2 * _BLOCK_ROWS_400 + 2, 400)),
        (_STANDING, _rows_grid(2 * _BLOCK_ROWS_400 + 3, 400)),
        (_STANDING, _rows_grid(5, wc._RESIDUAL_BLOCK_CELLS + 3)),
    ], ids=["standing", "box", "oblique", "rows-below", "rows-at", "rows-above",
            "one-row-blocks"])
    def test_blocks_change_no_bit(self, field, grid):
        x, t = grid
        assert wc.wave_equation_residual(field, x, t) == _residual_whole_grid(field, x, t)

    @settings(deadline=None, max_examples=40)
    @given(
        omega_plus=st.floats(0.1, 1e3),
        ratio=st.floats(0.01, 1.0),
        x_periods=st.floats(0.05, 6.0),
        t_periods=st.floats(0.05, 6.0),
        x0=st.floats(-10.0, 10.0),
        t0=st.floats(-10.0, 10.0),
    )
    @example(omega_plus=3.0, ratio=0.25, x_periods=6.0, t_periods=4.0, x0=-1.5, t0=2.5)
    def test_blocks_change_no_bit_at_any_span(self, omega_plus, ratio, x_periods,
                                              t_periods, x0, t0):
        field = wc.superposition_of(wc.BidirectionalWave(omega_plus, omega_plus * ratio))
        period = 2.0 * math.pi / omega_plus
        x, t = wc.sample_grid(omega_plus, (x0 * period, (x0 + x_periods) * period),
                              (t0 * period, (t0 + t_periods) * period))
        assert wc.wave_equation_residual(field, x, t) == _residual_whole_grid(field, x, t)

    @settings(deadline=None, max_examples=40)
    @given(
        waves=st.lists(st.tuples(st.floats(0.1, 1e3), st.floats(0.0, 2.0 * math.pi),
                                 st.floats(-100.0, 100.0)), min_size=1, max_size=3),
        x_periods=st.floats(0.05, 6.0),
        t_periods=st.floats(0.05, 6.0),
        x0=st.floats(-1e3, 1e3),
        t0=st.floats(-1e3, 1e3),
    )
    @example(waves=[(2.0, 0.6435, 1.0)], x_periods=6.0, t_periods=4.0, x0=-1.5, t0=2.5)
    def test_factored_grid_matches_evaluate(self, waves, x_periods, t_periods, x0, t0):
        # Oblique waves with phases, so that a slip in the angle addition (a
        # sign, w for kx, a lost phase) leaves the evaluated field.  The bound
        # is in units of the rounding of the argument's terms; over 600 draws
        # the worst was 0.46 of it.  The argument itself can cancel to ~0
        # while its terms round, so it does not bound the error (28x over).
        field = wc.Superposition(tuple(wc.PlaneWave(w, (math.cos(angle), math.sin(angle)), p)
                                       for w, angle, p in waves))
        period = 2.0 * math.pi / field.omega_max
        x, t = wc.sample_grid(field.omega_max, (x0 * period, (x0 + x_periods) * period),
                              (t0 * period, (t0 + t_periods) * period))
        terms = max(abs(w.omega * w.direction[0]) * np.max(np.abs(x))
                    + w.omega * np.max(np.abs(t)) + abs(w.phase) for w in field.waves)
        error = np.max(np.abs(_factored_grid(field, x, t)
                              - wc.evaluate(field, x[:, None], t[None, :])))
        assert error <= 2 * len(waves) * np.finfo(float).eps * (1.0 + terms)
        assert wc.wave_equation_residual(field, x, t) == _residual_whole_grid(field, x, t)

    @pytest.mark.parametrize("field", [_STANDING, _BOX], ids=["standing", "box"])
    def test_acceptance_fields_solve_it_to_rounding(self, field):
        # test_10's fields read 1.5e-12 and 3.0e-12 factored, 1.8e-12 and
        # 4.3e-12 through evaluate; its tolerance is 1e-3.
        x, t = _acceptance_grid(field)
        assert wc.wave_equation_residual(field, x, t) < 1e-11
        assert _residual_of_evaluate(field, x, t) < 1e-11

    def test_corrupted_control_matches_the_evaluate_formula(self):
        # test_10's control: 0.3595 either way, 6e-14 apart.
        x, t = wc.sample_grid(2.0, (0.0, 30.0), (0.0, 30.0))
        assert wc.wave_equation_residual(_OBLIQUE, x, t) == pytest.approx(
            _residual_of_evaluate(_OBLIQUE, x, t), rel=1e-12)

    def test_memory_does_not_grow_with_the_grid(self):
        # The whole grid held ~40 B a cell: 6.4 MB at 400**2, 102 MB at 1600**2.
        peaks = []
        for n in (400, 1600):
            x, t = _rows_grid(n, n)
            tracemalloc.start()
            try:
                wc.wave_equation_residual(_STANDING, x, t)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 0.25e6

    @pytest.mark.parametrize("x, t, match", [
        ([0.0, NAN, 0.2], [0.0, 0.1, 0.2], "x must be a finite 1-D axis"),
        ([0.0, 0.1, 0.2], [0.0, 0.1, INF], "t must be a finite 1-D axis"),
        ([0.0, 0.1], [0.0, 0.1, 0.2], "x must be a finite 1-D axis of at least 3"),
        ([0.0, 0.1, 0.2], [0.0, 0.1], "t must be a finite 1-D axis of at least 3"),
        ([[0.0, 0.1, 0.2]], [0.0, 0.1, 0.2], r"x must be a finite 1-D axis .* \(1, 3\)"),
        ([0.0, 0.1, 0.2], [0.2, 0.1, 0.0], "t step must be positive"),
        ([0.0, 0.0, 0.0], [0.0, 0.1, 0.2], "x step must be positive"),
        ([0.0, 0.1, 0.2], [0.0, 0.1, 0.2 + 1e-9], "t steps must be uniform"),
    ], ids=["nan-x", "inf-t", "2-point-x", "2-point-t", "2-d-x", "decreasing-t",
            "constant-x", "uneven-t"])
    def test_axes_rejected(self, x, t, match):
        with pytest.raises(InvalidConfigError, match=match):
            wc.wave_equation_residual(_STANDING, x, t)

    def test_single_wave_small_residual(self):
        s = wc.Superposition((wc.PlaneWave(2.0),))
        x, t = wc.sample_grid(2.0, (0.0, 10.0), (0.0, 10.0))
        assert wc.wave_equation_residual(s, x, t) < 1e-3

    def test_multi_frequency_field(self):
        s = wc.superposition_of(wc.BidirectionalWave(2.0, 0.5))
        x, t = wc.sample_grid(2.0, (0.0, 30.0), (0.0, 30.0))
        assert wc.wave_equation_residual(s, x, t) < 1e-3

    def test_corrupted_dispersion_fails(self):
        # An oblique wave seen along the x axis has k_x = 0.8*omega: F_tt - F_xx
        # leaves 0.36*omega**2*F.
        bad = wc.Superposition((wc.PlaneWave(2.0, (0.8, 0.6)),))
        x, t = wc.sample_grid(2.0, (0.0, 30.0), (0.0, 30.0))
        assert wc.wave_equation_residual(bad, x, t) > 1e-1


class TestAnalyzeBeatsOracle:
    @settings(deadline=None, max_examples=40)
    @given(
        omega0=st.floats(20.0, 1e4),
        v=st.floats(0.01, 0.95),
        probe=st.floats(0.05, 0.95),
    )
    @example(omega0=100.0, v=0.02, probe=0.275)  # 6529 samples, the longest benchmark series
    def test_recovers_the_configured_tones(self, omega0, v, probe):
        # Over 1,400 draws, half of them at v near 0.01 with the probe just past
        # a node, the worst relative error was 8.8e-10.
        cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=omega0, v=v)
        try:
            res = bw.analyze_beats(cfg, probe)
        except InvalidConfigError:
            assume(False)  # a probe at a node of a component wave
        assert (res.fast, res.slow) == pytest.approx((cfg.omega_bar, cfg.delta_omega), rel=1e-8)
