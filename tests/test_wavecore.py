import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qmasslab import boxwell as bw
from qmasslab import doubleslit as ds
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
        (bw.BoxConfig, (INF, 0.1, 100.0, 0.05), InvalidConfigError, "must be finite"),
        (bw.BoxConfig, (1.0, 0.1, NAN, 0.05), InvalidConfigError, "must be finite"),
        (bw.BoxConfig, (1.0, 0.1, INF, 0.05), InvalidConfigError, "must be finite"),
        (ds.SlitConfig, (9.9e-101, 1.0), InvalidConfigError, r"in \[1e-100, 1e100\]"),
        (ds.SlitConfig, (1.01e100, 1.0), InvalidConfigError, r"in \[1e-100, 1e100\]"),
    ],
    ids=lambda v: getattr(v, "__name__", None) if isinstance(v, type) else None,
)
def test_non_finite_or_invalid_input_rejected_at_construction(make, args, error, match):
    with pytest.raises(error, match=match):
        make(*args)


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
    def test_pure_sinusoid(self):
        lam = 0.73
        x = np.arange(0, 3 * lam, lam / 64)
        v = np.sin(2 * math.pi * x / lam + 0.3)
        assert wc.measure_spatial_wavelength(x, v) == pytest.approx(lam, rel=1e-3)

    def test_spectral_cross_check(self):
        lam = 1.9
        x = np.arange(0, 8 * lam, lam / 64)
        v = np.sin(2 * math.pi * x / lam)
        k = wc.measure_temporal_frequencies(x, v, 1)[0]
        assert 2 * math.pi / k == pytest.approx(lam, rel=1e-3)

    def test_constant_signal_errors(self):
        x = np.linspace(0, 1, 100)
        with pytest.raises(InsufficientSpanError):
            wc.measure_spatial_wavelength(x, np.ones_like(x))

    def test_envelope_of_boosted_pair(self):
        b = wc.BidirectionalWave(2.0, 0.5)
        pair = wc.factor_carrier_envelope(b)
        x = wc.envelope_sampling_grid(b)
        snap = wc.evaluate(wc.superposition_of(b), x, 0.3)
        lam = wc.measure_envelope_wavelength(x, snap)
        assert lam == pytest.approx(pair.envelope.wavelength, rel=1e-3)


class TestAnalyticSignal:
    # k = (n - 1) // 2 is the highest bin below Nyquist, for even and odd n.
    @pytest.mark.parametrize("n, k", [(64, 1), (64, 31), (65, 1), (65, 32), (1000, 7), (1001, 500)])
    def test_cosine_over_whole_periods_gives_complex_exponential(self, n, k):
        phase = 2.0 * math.pi * k * np.arange(n) / n + 0.4
        a = wc._analytic_signal(np.cos(phase))
        assert np.max(np.abs(a - np.exp(1j * phase))) < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 64, 65])
    def test_real_part_is_the_series(self, n):
        v = np.random.default_rng(n).standard_normal(n)
        assert np.max(np.abs(wc._analytic_signal(v).real - v)) < 1e-12


# Hann-windowed two-tone series: the DTFT magnitude that _refine_peak maximizes.
_DTFT_TIMES = np.arange(400) * 0.1
_DTFT_WINDOWED = np.hanning(400) * (
    np.sin(1.3 * _DTFT_TIMES) + 0.4 * np.cos(2.9 * _DTFT_TIMES + 0.2)
)


def _neg_dtft_magnitude(om):
    return -abs(np.dot(_DTFT_WINDOWED, np.exp(-1j * om * _DTFT_TIMES)))


class TestMinimizeBounded:
    @settings(deadline=None, max_examples=150)
    @given(
        lo=st.floats(0.05, 3.5),
        width=st.floats(1e-3, 2.5),
        rel_xatol=st.sampled_from([1e-10, 1e-6, 1e-2]),
    )
    def test_matches_bounded_minimize_scalar_step_for_step(self, lo, width, rel_xatol):
        optimize = pytest.importorskip("scipy.optimize")
        hi = lo + width
        xatol = width * rel_xatol
        ref = optimize.minimize_scalar(
            _neg_dtft_magnitude, bounds=(lo, hi), method="bounded",
            options={"xatol": xatol},
        )
        x, fun, nfev = wc._minimize_bounded(_neg_dtft_magnitude, lo, hi, xatol)
        assert (x, fun, nfev) == (ref.x, ref.fun, ref.nfev)


class TestTemporalFrequencies:
    def test_two_tone(self):
        t = np.arange(0, 50, 0.005)
        v = np.cos(5 * t) + np.cos(100 * t + 0.4)
        got = np.sort(wc.measure_temporal_frequencies(t, v, 2))
        assert got[0] == pytest.approx(5.0, rel=5e-3)
        assert got[1] == pytest.approx(100.0, rel=5e-3)

    def test_constant_errors(self):
        t = np.linspace(0, 1, 64)
        with pytest.raises(InsufficientSpanError):
            wc.measure_temporal_frequencies(t, np.full_like(t, 2.5), 1)

    def test_short_series_errors(self):
        with pytest.raises(InsufficientSpanError):
            wc.measure_temporal_frequencies(np.arange(8), np.arange(8.0), 1)


class TestWaveEquationResidual:
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
