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


def _evaluate_reference(s, x, t):
    """``evaluate`` as one new array per wave, its phase added even when it is 0."""
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    out = np.zeros(np.broadcast_shapes(x.shape, t.shape))
    for w in s.waves:
        kx = w.omega * w.direction[0]
        out = out + np.sin(kx * x - w.omega * t + w.phase)
    return out


_AXES = [(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]
_WAVES = st.lists(
    st.builds(
        wc.PlaneWave,
        st.floats(1e-3, 1e3),
        st.one_of(st.sampled_from(_AXES),
                  st.floats(0.0, 2.0 * math.pi).map(lambda a: (math.cos(a), math.sin(a)))),
        st.one_of(st.sampled_from([0.0, -0.0, math.pi]), st.floats(-10.0, 10.0)),
    ),
    min_size=1, max_size=4)


def _axis_with_zeros(rng, n):
    """``n`` points in [-50, 50] with +0.0 and -0.0 among them, so zero arguments occur."""
    a = rng.uniform(-50.0, 50.0, n)
    a[: min(n, 2)] = [0.0, -0.0][: min(n, 2)]
    return a


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

    @settings(deadline=None, max_examples=300)
    @given(waves=_WAVES, layout=st.sampled_from(["scalar", "1-D", "grid"]),
           n=st.integers(1, 40), m=st.integers(1, 40), seed=st.integers(0, 2**32 - 1))
    def test_matches_the_per_wave_sum_bit_for_bit(self, waves, layout, n, m, seed):
        # Summed in place with a zero phase skipped, every bit and the sign of
        # every zero are those of one new array per wave with the phase added.
        rng = np.random.default_rng(seed)
        x, t = _axis_with_zeros(rng, n), _axis_with_zeros(rng, m)
        if layout == "scalar":
            x, t = float(x[seed % n]), float(t[seed % m])
        elif layout == "1-D":
            t = t[0]
        else:
            x, t = x[:, None], t[None, :]
        s = wc.Superposition(tuple(waves))
        got, want = wc.evaluate(s, x, t), _evaluate_reference(s, x, t)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.array_equal(got, want)
        assert np.array_equal(np.signbit(got), np.signbit(want))


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


def _prediction_columns(values):
    """The two-tone prediction solve's two columns and its target column."""
    cols = [values]
    for _ in range(2):
        cols = [c[1:-1] for c in cols] + [cols[-1][:-2] + cols[-1][2:]]
    return np.stack(cols[:-1], axis=1), cols[-1]


def _relative_residual(values):
    """The prediction solve's residual over 4 * ||values||, as the solve bounds it."""
    cols, rhs = _prediction_columns(values)
    residual = np.linalg.lstsq(cols, -rhs, rcond=None)[1]
    return math.sqrt(residual[0]) / (4.0 * np.linalg.norm(values))


def _lstsq_companion_tones(times, values):
    """Reference tones: lstsq for the coefficients, eigvals of the companion matrix for u."""
    values = np.ldexp(values, -np.frexp(np.max(np.abs(values)))[1])
    coef = np.linalg.lstsq(*_prediction_columns(values), rcond=None)[0]
    companion = np.eye(2, k=-1)
    companion[0] = coef[::-1]  # a fit to +target gives minus the polynomial's coefficients
    u = np.linalg.eigvals(companion)
    return np.sort(np.arccos(u / 2.0) / (times[1] - times[0]))[::-1]


class TestTemporalFrequencies:
    def test_two_tone(self):
        t = np.arange(0, 50, 0.005)
        v = np.cos(5 * t) + np.cos(100 * t + 0.4)
        got = np.sort(wc.measure_temporal_frequencies(t, v))
        assert got[0] == pytest.approx(5.0, rel=5e-3)
        assert got[1] == pytest.approx(100.0, rel=5e-3)

    def test_one_tone_rejected(self):
        # One tone sampled from t = 0 leaves the prediction columns rank
        # deficient.  Far from 0 each sample rounds its phase w*t, and that
        # noise can read as a second tone: from t0 in [-100, 100], 114 of
        # these 500 draws were accepted.
        rng = np.random.default_rng(43)
        for _ in range(500):
            n = int(rng.integers(16, 4000))
            dt = 10.0 ** rng.uniform(-3.0, 1.0)
            t = np.arange(n) * dt
            w = rng.uniform(0.002, 0.498) * 2.0 * math.pi / dt
            v = 10.0 ** rng.uniform(-5.0, 5.0) * np.cos(w * t + rng.uniform(0.0, 2.0 * math.pi))
            with pytest.raises(InsufficientSpanError, match="series holds fewer than 2 tones"):
                wc.measure_temporal_frequencies(t, v)

    def test_constant_errors(self):
        t = np.linspace(0, 1, 64)
        with pytest.raises(InsufficientSpanError, match="constant series has no spectral peaks"):
            wc.measure_temporal_frequencies(t, np.full_like(t, 2.5))

    def test_series_flat_to_rounding_has_no_peaks(self):
        # A phase of 3e19 absorbs every 100*t < 2048 (half its ulp): all samples
        # are equal, so the series is constant.
        t = np.arange(64) / 64
        v = np.cos(3e19 + 100.0 * t)
        assert np.ptp(v) == 0.0
        with pytest.raises(InsufficientSpanError, match="no spectral peaks"):
            wc.measure_temporal_frequencies(t, v)

    def test_short_series_errors(self):
        with pytest.raises(InsufficientSpanError):
            wc.measure_temporal_frequencies(np.arange(8), np.arange(8.0))

    @pytest.mark.parametrize("times", [np.arange(0, 50, 0.005)[::-1], np.zeros(10000)])
    def test_step_not_positive_rejected(self, times):
        v = np.cos(5 * times) + np.cos(100 * times + 0.4)
        with pytest.raises(InvalidConfigError, match="time step must be positive"):
            wc.measure_temporal_frequencies(times, v)

    @pytest.mark.parametrize("jitter, uniform", [(0.9e-9, True), (1.1e-9, False)])
    def test_steps_must_agree_to_1e_9(self, jitter, uniform):
        t = np.arange(1000) * 0.05
        t[500:] += jitter * 0.05  # one step off by jitter*dt
        v = np.cos(2.0 * t) + np.cos(5.0 * t)
        if uniform:
            assert wc.measure_temporal_frequencies(t, v) == pytest.approx([5.0, 2.0], rel=1e-3)
        else:
            with pytest.raises(InvalidConfigError, match="time steps must be uniform"):
                wc.measure_temporal_frequencies(t, v)

    @pytest.mark.parametrize("where", ["values", "times"])
    @pytest.mark.parametrize("bad", [INF, -INF, NAN])
    def test_non_finite_sample_rejected_without_warning(self, where, bad):
        t = np.arange(0, 50, 0.005)
        v = np.cos(5 * t) + np.cos(100 * t + 0.4)
        (v if where == "values" else t)[1234] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigError, match="must be finite"):
                wc.measure_temporal_frequencies(t, v)

    def test_short_series_with_a_nan_is_invalid_and_an_empty_one_short(self):
        # Finiteness is checked before length: a NaN among 10 values is bad
        # input, not a short series, while an empty series is only too short.
        t = np.arange(10) * 0.05
        v = np.cos(2.0 * t)
        v[3] = NAN
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigError, match="must be finite"):
                wc.measure_temporal_frequencies(t, v)
            with pytest.raises(InsufficientSpanError, match="series too short: 0 samples"):
                wc.measure_temporal_frequencies([], [])

    @pytest.mark.parametrize("seed", range(5))
    def test_reads_r_from_the_raw_householder_array_bit_for_bit(self, seed, monkeypatch):
        # The solve reads R from the transposed array of qr(mode="raw"); its
        # upper triangle equals triu(qr(mode="r")) of the same matrix.
        rng = np.random.default_rng(seed)
        t = np.arange(int(rng.integers(16, 3000))) * 0.01
        tones = rng.uniform(0.3, 2.9, 2) / 0.01
        v = sum(rng.uniform(0.1, 10.0) * np.cos(w * t + rng.uniform(0, 7)) for w in tones)
        qr, seen = np.linalg.qr, []

        def spy(a, mode="reduced"):
            seen.append((a.copy(), mode))
            return qr(a, mode=mode)

        monkeypatch.setattr(np.linalg, "qr", spy)
        wc.measure_temporal_frequencies(t, v)
        [(a, mode)] = seen
        assert mode == "raw" and a.shape[1] == 3
        r = np.triu(qr(a, mode="raw")[0][:, :3].T)
        want = qr(a, mode="r")
        assert np.array_equal(r, want) and np.array_equal(np.signbit(r), np.signbit(want))

    @pytest.mark.parametrize("shape", [(999,), (2, 500)])
    def test_times_and_values_of_other_shapes_rejected(self, shape):
        t = np.arange(1000) * 0.05
        v = np.cos(np.arange(np.prod(shape)) * 0.5).reshape(shape)
        with pytest.raises(InvalidConfigError, match="1-D of one length"):
            wc.measure_temporal_frequencies(t, v)

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
        got = wc.measure_temporal_frequencies(t, v)
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
        got = wc.measure_temporal_frequencies(_TWO_TONE_TIMES, _TWO_TONE_SERIES)
        assert got == pytest.approx(fit.x, rel=1e-9)

    @pytest.mark.parametrize("series, match", [
        (lambda t: np.cos(5 * t), "fewer than 2 tones"),
        (lambda t: np.cos(5 * t) + np.cos(100 * t + 0.4) + 0.5 * np.cos(40 * t),
         "not a sum of 2 tones"),
        (lambda t: np.cos(5 * t) + np.cos(100 * t + 0.4) + 0.3, "not a sum of 2 tones"),
        (lambda t: np.exp(4.0 * t / 50.0) + np.cos(100 * t), r"not a tone: u = \[2\.0"),
        (lambda t: np.exp(-2.0 * t) * np.cos(100 * t), "not a tone: .* complex roots"),
    ], ids=["one-tone", "three-tones", "two-tones-and-an-offset", "growing", "damped"])
    def test_series_that_is_not_two_tones_rejected(self, series, match):
        t = np.arange(0, 50, 0.005)
        with pytest.raises(InsufficientSpanError, match=match):
            wc.measure_temporal_frequencies(t, series(t))

    def test_worst_accepted_residual_leaves_no_room_to_reject_a_small_offset(self):
        # The worst residual found for a series the scenarios accept: 2.0e-7,
        # 5.1x under the 1e-6 bound, from the boost envelope's spatial solve on
        # every 16th point at a top corner of its range, where the snapshot
        # rounds its phase by ~1e-7 rad a sample (6.0e-7 on every point; the
        # pinned case of test_boost_envelope_gate_sits_above_the_worst_swept_error
        # reads 1.3e-7 strided, 5.9e-7 on every point).
        # The box-beat series at 1 - v near the 2**20-sample floor, probed
        # near a node of both standing waves, reads 1.3e-8 whole and 4.0e-9
        # on the every-4th-sample solve.  A 1e-3 offset on the 5-and-100
        # rad/s series leaves 3.8e-8, below ten times the worst, so no bound
        # with a 10x margin rejects it; the bound stays at 1e-6.
        b = wc.boost_standing_wave(1e9, -0.9903133685390878)
        x = wc.envelope_sampling_grid(b)
        worst = _relative_residual(wc.evaluate(wc.superposition_of(b), x, 0.3)[::16])
        assert 1.5e-7 < worst < 1e-6
        W = 8.358021686255072e+79
        cfg = bw.BoxConfig(W=W, L=W / 10.0, omega0=6.12063509452773e-76, v=0.9997433729864965)
        field, probe = bw.build_field(cfg), 7.70227878341137e+79
        t, _, _ = wc.measure_tone_pair(field, probe, cfg.delta_omega)
        assert _relative_residual(wc.evaluate(field, probe, t)) < worst / 10.0
        t = np.arange(0, 50, 0.005)
        offset = _relative_residual(np.cos(5 * t) + np.cos(100 * t + 0.4) + 1e-3)
        assert offset < 10.0 * worst

    @pytest.mark.parametrize("amplitude", [1e160, 1e-300])
    def test_amplitude_changes_no_verdict(self, amplitude):
        # Unscaled, the solve's norms overflowed at 1e160 and underflowed at
        # 1e-300: three tones asked for as two read [99.3, 26.0] at both, with
        # an overflow warning at 1e160.
        t = np.arange(0, 50, 0.005)
        two = np.cos(5 * t) + np.cos(100 * t + 0.4)
        got = wc.measure_temporal_frequencies(t, amplitude * two)
        assert got == pytest.approx([100.0, 5.0], rel=5e-3)
        with pytest.raises(InsufficientSpanError, match="not a sum of 2 tones"):
            wc.measure_temporal_frequencies(t, amplitude * (two + np.cos(40 * t)))

    @pytest.mark.parametrize("power", [-1000, 1000])
    def test_power_of_two_amplitude_changes_no_bit(self, power):
        # The series is scaled by the power of two of its largest sample.
        t = np.arange(0, 50, 0.005)
        two = np.cos(5 * t) + np.cos(100 * t + 0.4)
        assert np.array_equal(wc.measure_temporal_frequencies(t, 2.0**power * two),
                              wc.measure_temporal_frequencies(t, two))

    @settings(deadline=None, max_examples=80)
    @given(
        n=st.integers(64, 8000),
        t0=st.floats(-100.0, 100.0),
        tones=st.tuples(st.floats(0.05, 0.45), st.floats(0.05, 0.45)),
        phase=st.floats(0.0, 2.0 * math.pi),
    )
    def test_matches_the_lstsq_and_companion_solve(self, n, t0, tones, phase):
        # Tones in cycles per sample, at least 12 FFT bins apart.  Over 3,000
        # seeded draws the QR solve and the lstsq + eigvals solve differed by at
        # most 4.2e-13; the bound is 10x that.
        assume(abs(tones[0] - tones[1]) * n >= 12 and min(tones) * n >= 12)
        t = t0 + np.arange(n) * 0.01
        k = np.arange(n)
        v = np.cos(2 * math.pi * tones[0] * k + phase) + 0.5 * np.cos(2 * math.pi * tones[1] * k)
        got = wc.measure_temporal_frequencies(t, v)
        assert got == pytest.approx(_lstsq_companion_tones(t, v), rel=5e-12)

    def test_double_root_at_zero_matches_the_companion_solve(self):
        # k*cos(pi*k/2), exact in floats: the target column is 0, so both
        # coefficients and the quadratic's q are 0, and c0/q is no root.
        k = np.arange(64)
        v = np.where(k % 2 == 0, k * (-1.0) ** (k // 2), 0.0)
        t = k * 0.1
        got = wc.measure_temporal_frequencies(t, v)
        assert np.array_equal(got, _lstsq_companion_tones(t, v))
        assert got == pytest.approx([math.pi / 2 / 0.1] * 2, rel=1e-15)

    @pytest.mark.parametrize("scale", [1.0, 1e-6, 1e-12, 1e-15])
    def test_closed_form_singular_values_match_svd(self, scale):
        # The second column is 0.7 of the first plus `scale` of noise, so
        # s_min / s_max falls with the scale down to the rank rule's eps * rows.
        # Over 200 seeds both singular values matched to 4.4e-16; s_min taken
        # as (s_max + s_min - (s_max - s_min))/2 cancels and missed by 4e-2 at 1e-15.
        rng = np.random.default_rng(36)
        cols = rng.standard_normal((500, 2))
        cols[:, 1] = 0.7 * cols[:, 0] + scale * cols[:, 1]
        (a, b), (_, d) = np.linalg.qr(cols, mode="r").tolist()
        s_max, s_min = wc._triangle_singular_values(a, b, d)
        want = np.linalg.svd(cols, compute_uv=False)
        assert s_max == pytest.approx(want[0], rel=1e-14)
        assert s_min == pytest.approx(want[1], rel=1e-14, abs=0.0)

    def test_one_tone_as_two_is_rank_deficient_by_svd_too(self):
        # The prediction columns of one tone asked for as two: s_min / s_max is
        # ~5e-15, below the rank rule's eps * rows in closed form and by SVD.
        t = np.arange(0, 50, 0.005)
        cols, rhs = _prediction_columns(np.cos(5 * t))
        (a, b, _), (_, d, _), _ = np.linalg.qr(np.column_stack([cols, rhs]), mode="r").tolist()
        s_max, s_min = wc._triangle_singular_values(a, b, d)
        want = np.linalg.svd(cols, compute_uv=False)
        rule = np.finfo(float).eps * len(cols)
        assert s_min <= rule * s_max and want[1] <= rule * want[0]
        assert s_max == pytest.approx(want[0], rel=1e-14)
        with pytest.raises(InsufficientSpanError, match="fewer than 2 tones"):
            wc.measure_temporal_frequencies(t, np.cos(5 * t))


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
        t, hi, lo = wc.measure_tone_pair(wc.superposition_of(b), 0.0, beat)
        slowest = min(beat, b.omega_minus)
        assert t[-1] < 16.0 * math.pi / slowest <= t[-1] + (t[1] - t[0])
        # 15 times the worst error of ~1,300 boosted pairs solved on every
        # sample (6.7e-7, near |beta| = 0.999); on every 4th sample 1,300 pairs,
        # half of them near c, missed by at most 9.6e-10.
        assert (hi, lo) == pytest.approx((b.omega_plus, b.omega_minus), rel=1e-5)

    @pytest.mark.parametrize("field, x, beat", [
        *[(bw.build_field(cfg), 0.275, cfg.delta_omega)
          for cfg in (bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=v)
                      for v in (1.3e-4, 0.062708, 0.9997))],
        *[(wc.superposition_of(b), 0.0, (b.omega_plus - b.omega_minus) / 2.0)
          for b in (wc.boost_standing_wave(1.0, 0.6), wc.boost_standing_wave(2.0, -0.9))],
    ], ids=["box-beat-v1.3e-4", "box-beat-default", "box-beat-v0.9997", "boost-w1-b0.6",
            "boost-w2-b-0.9"])
    def test_tones_are_those_of_every_4th_sample_of_the_whole_series(self, field, x, beat):
        # evaluate is elementwise, so evaluating only the solved samples
        # changes no bit of the tones.
        t, hi, lo = wc.measure_tone_pair(field, x, beat)
        assert t[1] - t[0] == 2.0 * math.pi / field.omega_max / 16.0
        whole = wc.evaluate(field, x, t)
        assert np.array_equal([hi, lo], wc.measure_temporal_frequencies(t[::4], whole[::4]))

    def test_solves_every_4th_sample(self, monkeypatch):
        # The field is evaluated only where the tones are solved: a quarter of
        # the time axis that box-beat writes to probe_series.csv.
        points, evaluate = [], wc.evaluate

        def counted(field, x, t):
            values = evaluate(field, x, t)
            points.append(values.size)
            return values

        monkeypatch.setattr(wc, "evaluate", counted)
        res = bw.analyze_beats(bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=0.062708), 0.275)
        assert points == [len(res.times[::4])]

    def test_slow_box_beat_series_solved_on_every_4th_sample(self):
        # box-beat's slowest accepted speed: 984,744 samples.  On every 4th
        # sample the fast tone's u is ~0 and the neighbour sum all but cancels
        # (its norm is 4.7e-7 of the series'): divided by it, the residual read
        # 4.8e-5 and the series was "not a sum of 2 tones"; divided by
        # 4*||series||, it reads 5.7e-12.  The slow tone misses by 4e-13 (1.4e-6
        # solved on all 16 samples per period).
        cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=1.3e-4)
        res = bw.analyze_beats(cfg, 0.275)
        series = wc.evaluate(bw.build_field(cfg), 0.275, res.times)
        hi, lo = wc.measure_temporal_frequencies(res.times[::4], series[::4])
        assert (hi, lo) == pytest.approx(
            (cfg.omega_bar + cfg.delta_omega, cfg.omega_bar - cfg.delta_omega), rel=1e-9)
        assert (hi - lo) / 2.0 == pytest.approx(cfg.delta_omega, rel=1e-9)

    def test_tones_sit_ten_times_inside_the_worst_swept_error(self):
        # 200 box-beat cases (W = 1, omega0 log-uniform over 20..1e5, v over
        # 1.3e-4..0.999, half the probes 0.0201 beside a node) and 200 boost
        # pairs at x = 0 (omega0 over 1e-9..1e9, |beta| over 1/128..0.99), none
        # rejected.  Worst relative errors: box-beat fast 1.6e-12, slow 7.2e-11
        # and sqrt(hi*lo) 3.5e-12, boost mass 3.5e-14 and speed 2.9e-14; the
        # bounds are ten times those.  Solved on all 16 samples per period, the
        # same cases read 7.0e-10, 4.7e-6, 7.0e-10, 1.9e-11 and 2.0e-10.
        rng = np.random.default_rng(34)
        worst = dict.fromkeys(["fast", "slow", "beat mass", "boost mass", "boost speed"], 0.0)
        beats = 0
        while beats < 200:
            cfg = bw.BoxConfig(W=1.0, L=0.1, omega0=10 ** rng.uniform(math.log10(20.0), 5.0),
                               v=10 ** rng.uniform(math.log10(1.3e-4), math.log10(0.999)))
            probe = rng.uniform(0.01, 0.99)
            if rng.random() < 0.5:
                k = cfg.omega_bar + rng.choice([1.0, -1.0]) * cfg.delta_omega
                node = max(1, round(k * probe / math.pi)) * math.pi
                probe = (node + rng.choice([1.0, -1.0]) * math.asin(0.0201)) / k
            try:
                res = bw.analyze_beats(cfg, probe)
            except InvalidConfigError:
                continue  # beside a node of the other standing wave
            beats += 1
            hi, lo = res.fast + res.slow, res.fast - res.slow
            for name, got, want in [("fast", res.fast, cfg.omega_bar),
                                    ("slow", res.slow, cfg.delta_omega),
                                    ("beat mass", math.sqrt(hi * lo), cfg.omega0)]:
                worst[name] = max(worst[name], abs(got / want - 1.0))
        for _ in range(200):
            omega0 = 10 ** rng.uniform(-9.0, 9.0)
            beta = rng.choice([1.0, -1.0]) * 10 ** rng.uniform(math.log10(1 / 128), math.log10(0.99))
            b = wc.boost_standing_wave(omega0, beta)
            _, hi, lo = wc.measure_tone_pair(wc.superposition_of(b), 0.0,
                                             (b.omega_plus - b.omega_minus) / 2.0)
            worst["boost mass"] = max(worst["boost mass"], abs(math.sqrt(hi * lo) / omega0 - 1.0))
            worst["boost speed"] = max(worst["boost speed"],
                                       abs((hi - lo) / (hi + lo) / abs(beta) - 1.0))
        bounds = {"fast": 1.6e-11, "slow": 7.2e-10, "beat mass": 3.5e-11,
                  "boost mass": 3.5e-13, "boost speed": 2.9e-13}
        assert all(worst[name] < bound for name, bound in bounds.items()), worst


def _factors(field, x, t):
    """The x factor (sin(a), -cos(a) per wave) and t factor (cos(b), sin(b)) of ``field``.

    a = kx*x + p and b = w*t over whole axes, as ``wave_equation_residual``
    takes them: a slice's ``sin`` may round otherwise.
    """
    fx, ft = [], []
    for w in field.waves:
        a = w.omega * w.direction[0] * x + w.phase
        fx += [np.sin(a), -np.cos(a)]
        ft += [np.cos(w.omega * t), np.sin(w.omega * t)]
    return np.stack(fx, axis=1), np.stack(ft)


def _factored_grid(field, x, t):
    """``field`` on the grid (x[i], t[j]) as the one product of its factors."""
    return np.einsum("ik,kj->ij", *_factors(field, x, t))


def _residual_whole_grid(field, x, t):
    """The blocked kernel's reference: the same stacked factor product over the whole grid.

    [fx | -fx_xx] @ [ft_tt ; ft] is fx @ ft_tt - fx_xx @ ft, one sum per cell.
    """
    fx, ft = _factors(field, x, t)
    fx_xx = (fx[2:] - 2.0 * fx[1:-1] + fx[:-2]) / (x[1] - x[0])**2
    ft_tt = (ft[:, 2:] - 2.0 * ft[:, 1:-1] + ft[:, :-2]) / (t[1] - t[0])**2
    res = np.einsum("ik,kj->ij", np.hstack([fx[1:-1], -fx_xx]),
                    np.vstack([ft_tt, ft[:, 1:-1]]))
    return float(np.max(np.abs(res)) / (len(field.waves) * field.omega_max**2))


def _residual_of_evaluate(field, x, t):
    """The independent reference: a 2-D stencil over the grid that ``evaluate`` gives."""
    F = wc.evaluate(field, x[:, None], t[None, :])
    ftt = (F[:, 2:] - 2.0 * F[:, 1:-1] + F[:, :-2]) / (t[1] - t[0])**2
    fxx = (F[2:, :] - 2.0 * F[1:-1, :] + F[:-2, :]) / (x[1] - x[0])**2
    res = ftt[1:-1, :] - fxx[:, 1:-1]
    return float(np.max(np.abs(res)) / (len(field.waves) * field.omega_max**2))


def _acceptance_grid(field):
    """``tests/test_acceptance.py::test_10``'s grid: 20 periods of the fastest wave."""
    span = 40.0 * math.pi / field.omega_max
    return wc.sample_grid(field.omega_max, (0.0, span), (0.0, span))


_STANDING = wc.superposition_of(wc.boost_standing_wave(1.0, 0.6))
_BOX = bw.build_field(bw.BoxConfig(W=1.0, L=0.1, omega0=100.0, v=0.05))
_OBLIQUE = wc.Superposition((wc.PlaneWave(2.0, (0.8, 0.6)),))

# The residual of a field that solves the wave equation, as test_10 and CI
# bound it.  The worst of 2,800 random boost and 2,800 box-beat fields over
# their accepted ranges, and of their corners, on test_10's 20-period grids
# was 6.5e-12 (boost at omega0 = 1616, beta = -0.038; the worst corner, boost
# at omega0 = 1e9, beta = -0.0078, read 5.5e-12), and box-beat at CI's
# 2001**2 reads 5.9e-12, so the bound is 15x above them.  The corner at
# omega0 = 1e9, beta = -0.992, the worst while the residual was divided by
# max|F| (6.0e-12), reads 4.4e-12.  An oblique wave whose direction cosine
# is 1 - 1e-6 reads 2.0e-6, and 1 - 1e-8 reads 2.0e-8.
_RESIDUAL_BOUND = 1e-10


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

    @settings(deadline=None, max_examples=40)
    @given(
        waves=st.lists(st.tuples(st.floats(0.1, 1e3), st.floats(0.32, math.pi - 0.32),
                                 st.floats(-100.0, 100.0)), min_size=1, max_size=3),
        x_periods=st.floats(1.0, 6.0),
        t_periods=st.floats(1.0, 6.0),
        x0=st.floats(-1e3, 1e3),
        t0=st.floats(-1e3, 1e3),
    )
    @example(waves=[(689.0136157775984, 0.6158581103319278, 68.10502286771134),
                    (709.3397895033182, 0.7592881389438522, -48.615547784239595)],
             x_periods=1.1728621906044436, t_periods=1.7618831817739569, x0=-1e3, t0=1e3)
    def test_nonzero_residuals_match_the_evaluate_stencil(self, waves, x_periods, t_periods,
                                                          x0, t0):
        # Oblique, phased waves (|cos| <= 0.95 along x) leave an O(1) residual,
        # which the factored kernel and the 2-D stencil over evaluate's grid
        # must both read.  Over 3,000 such draws (half of them 1e3 periods
        # off the origin on both axes) the worst relative gap was 4.5e-10;
        # the tolerance is 22x that.
        field = wc.Superposition(tuple(wc.PlaneWave(w, (math.cos(angle), math.sin(angle)), p)
                                       for w, angle, p in waves))
        period = 2.0 * math.pi / field.omega_max
        x, t = wc.sample_grid(field.omega_max, (x0 * period, (x0 + x_periods) * period),
                              (t0 * period, (t0 + t_periods) * period))
        assert wc.wave_equation_residual(field, x, t) == pytest.approx(
            _residual_of_evaluate(field, x, t), rel=1e-8)

    @settings(deadline=None, max_examples=20)
    @given(
        omega0=st.floats(1e-9, 1e9),
        beta=st.one_of(st.floats(-0.992, -0.0078), st.floats(0.0078, 0.992)),
        W=st.floats(1e-100, 1e100),
        omega0_W=st.floats(20.0, 1e5),
        v=st.floats(1.25e-4, 0.999),
    )
    @example(omega0=5.6166614980818945, beta=-0.10204348849984686, W=1.0604904297267491e-51,
             omega0_W=4.61781857214234e+55 * 1.0604904297267491e-51, v=0.004524736585681396)
    @example(omega0=1e9, beta=-0.992, W=1.0, omega0_W=1e5, v=0.999)
    def test_scenario_fields_sit_ten_times_below_the_bound(self, omega0, beta, W, omega0_W, v):
        # A boost and a box-beat field on test_10's grid, over each scenario's
        # accepted range.  The examples are the worst random draw of each from
        # the sweep behind _RESIDUAL_BOUND (5.9e-12 and 5.1e-12) and the worst
        # corner (6.0e-12).
        assume(20.0 <= omega0_W / W * W <= 1e5)  # the quotient may round out of Well's range
        boost = wc.superposition_of(wc.boost_standing_wave(omega0, beta))
        box = bw.build_field(bw.BoxConfig(W=W, L=W / 10.0, omega0=omega0_W / W, v=v))
        for field in (boost, box):
            x, t = _acceptance_grid(field)
            assert wc.wave_equation_residual(field, x, t) <= _RESIDUAL_BOUND / 10.0

    def test_near_lightlike_look_alike_fails_the_bound(self):
        # Direction cosine 1 - 1e-6: F_tt - F_xx is (1 - cos**2)*omega**2*F,
        # 2.0e-6 of the normalisation, which test_10's old 1e-3 let through.
        c = 1.0 - 1e-6
        field = wc.Superposition((wc.PlaneWave(1.0, (c, math.sqrt(1.0 - c * c))),))
        x, t = _acceptance_grid(field)
        assert _RESIDUAL_BOUND < wc.wave_equation_residual(field, x, t) < 1e-3

    @pytest.mark.parametrize("field", [_STANDING, _BOX], ids=["standing", "box"])
    def test_acceptance_fields_solve_it_to_rounding(self, field):
        # test_10's fields read 1.5e-12 and 3.0e-12 factored, 1.8e-12 and
        # 4.3e-12 through evaluate.
        x, t = _acceptance_grid(field)
        assert wc.wave_equation_residual(field, x, t) < 1e-11
        assert _residual_of_evaluate(field, x, t) < 1e-11

    def test_corrupted_control_matches_the_evaluate_formula(self):
        # test_10's control: 0.3595 either way, 2.3e-14 apart.
        x, t = wc.sample_grid(2.0, (0.0, 30.0), (0.0, 30.0))
        assert wc.wave_equation_residual(_OBLIQUE, x, t) == pytest.approx(
            _residual_of_evaluate(_OBLIQUE, x, t), rel=1e-12)

    @pytest.mark.parametrize("waves", [
        ((1.0, 0.0), (1.0, math.pi)),
        ((1.0, 0.0), (1.0, math.pi), (-0.5, 0.0), (-0.5, math.pi)),
        ((1.0, 0.0), (1.0, math.pi + 1e-9)),
    ], ids=["two", "four", "residue-1e-9"])
    def test_cancelling_waves_read_below_the_bound(self, waves):
        # Waves that cancel on the grid leave a field of rounding or of 1e-9.
        # Divided by max|F|, these read 270, 306 and 3.0e-3; divided by the
        # waves' own bound, 1.5e-12, 1.1e-12 and 1.5e-12.
        field = wc.Superposition(tuple(wc.PlaneWave(abs(k), (math.copysign(1.0, k), 0.0), p)
                                       for k, p in waves))
        x, t = _acceptance_grid(field)
        assert wc.wave_equation_residual(field, x, t) < _RESIDUAL_BOUND

    @pytest.mark.parametrize("omega, step, match", [
        (1e-160, None, r"x step must lie in \[1e-150, 1e150\], got 9.8\d*e\+158"),
        (1e-200, None, r"x step must lie in \[1e-150, 1e150\], got 9.8\d*e\+198"),
        (1e160, None, r"x step must lie in \[1e-150, 1e150\], got 9.8\d*e-162"),
        (1e160, 1.0, r"omega_max must lie in \[1e-150, 1e150\], got 1e\+160"),
    ], ids=["omega-1e-160", "omega-1e-200", "omega-1e160", "omega-1e160-unit-step"])
    def test_scales_it_cannot_resolve_rejected(self, omega, step, match):
        # The look-alike on test_10's grid read 0.0 at omega = 1e-160, with
        # overflow warnings, NaN at 1e-200, and raised OverflowError at 1e160.
        c = 1.0 - 1e-6
        field = wc.Superposition((wc.PlaneWave(omega, (c, math.sqrt(1.0 - c * c))),))
        x, t = _acceptance_grid(field) if step is None else (np.arange(5) * step,) * 2
        with pytest.raises(InvalidConfigError, match=match):
            wc.wave_equation_residual(field, x, t)

    @pytest.mark.parametrize("omega, step", [(1e150, 1e-150), (1e-150, 1e150)])
    def test_scale_range_ends_accepted(self, omega, step):
        x = t = np.arange(5) * step
        residual = wc.wave_equation_residual(wc.Superposition((wc.PlaneWave(omega),)), x, t)
        assert residual < _RESIDUAL_BOUND

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

    @pytest.mark.parametrize("ratio", [0.999, 0.5])
    def test_t_step_unequal_to_x_step_rejected(self, ratio):
        # A correct standing wave read 8.1e-7 at dt = 0.999*dx and 3.0e-4 at
        # dx/2: central differences cancel their truncation only when dt = dx.
        x, _ = _rows_grid(400, 3)
        t = np.arange(400) * (ratio * (x[1] - x[0]))
        with pytest.raises(InvalidConfigError, match="t step must equal x step"):
            wc.wave_equation_residual(_STANDING, x, t)

    def test_single_wave_small_residual(self):
        s = wc.Superposition((wc.PlaneWave(2.0),))
        x, t = wc.sample_grid(2.0, (0.0, 10.0), (0.0, 10.0))
        assert wc.wave_equation_residual(s, x, t) < _RESIDUAL_BOUND

    def test_multi_frequency_field(self):
        s = wc.superposition_of(wc.BidirectionalWave(2.0, 0.5))
        x, t = wc.sample_grid(2.0, (0.0, 30.0), (0.0, 30.0))
        assert wc.wave_equation_residual(s, x, t) < _RESIDUAL_BOUND

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
