"""Envelope extraction, FWHM, SNR trials and the multiplexing advantage."""

import math
import re
from dataclasses import replace

import numpy as np
import pytest

from aoimux import pipeline, simulator
from aoimux.demux import DepthProfile
from aoimux.errors import ConfigError, EdgePeak, NoPeak, NyquistViolation
from aoimux.pipeline import SweepPlan, _circular_box_mean
from aoimux.seeding import TRIAL_SALT, derive_seed
from streams import fold, profile_of

F_US = 1.25e6
F_S = 5e6
C = 990.0
BIN = C / F_S


def phantom(boundary=0.0004, extent=0.004, mu_a=0.3):
    return simulator.Phantom(
        mu_s_prime_per_cm=15.0,
        mu_a_per_cm=mu_a,
        src_x_m=-0.0075,
        det_x_m=0.0075,
        boundary_z_m=boundary,
        depth_extent_m=extent,
    )


def config(mode="coded", order=79, periods=4, **kw):
    k = round(F_S / F_US)
    defaults = dict(
        f_us=F_US,
        f_s=F_S,
        c=C,
        mode=mode,
        order=order,
        duration_s=periods * order * k / F_S,
        seed=77,
    )
    defaults.update(kw)
    return simulator.AcquisitionConfig(**defaults)


class TestExtraction:
    @pytest.mark.parametrize("amp,phi", [(1.0, 0.0), (0.7, 1.1), (3.0, -2.0)])
    def test_pure_carrier_recovers_amplitude(self, amp, phi):
        n = np.arange(128)
        sig = amp * np.sin(2 * np.pi * F_US / F_S * n + phi)
        prof = pipeline.extract_modulated(DepthProfile(sig, BIN), F_US, F_S)
        assert np.abs(prof.values - amp).max() < 0.01 * amp

    def test_zero_input_zero_output(self):
        prof = pipeline.extract_modulated(DepthProfile(np.zeros(64), BIN), F_US, F_S)
        assert np.abs(prof.values).max() == 0.0

    def test_delta_phantom_peak_width_equals_pulse_length(self):
        k_bin = 120
        ph = simulator.Phantom(
            mu_s_prime_per_cm=15.0,
            mu_a_per_cm=0.1,
            src_x_m=-0.0075,
            det_x_m=0.0075,
            boundary_z_m=k_bin * BIN,
            depth_extent_m=0.4 * BIN,
        )
        cfg = config("single-pulse", periods=2)
        stream = simulator.simulate_stream(cfg, ph)
        prof = profile_of(stream)
        # single peak near the occupied bin; width is pulse-length limited.
        # The K=4 one-cycle pulse samples to {0,1,0,-1}, so its discrete
        # footprint crosses half maximum at K-1 bins.
        k = cfg.subsets_per_cycle
        assert abs(int(np.argmax(prof.values)) - k_bin) <= k
        fwhm = pipeline.measure_fwhm(prof)
        assert fwhm <= k * BIN + 1e-12
        assert fwhm == pytest.approx((k - 1) * BIN, abs=BIN / 2)

    def test_nyquist_violation(self):
        with pytest.raises(NyquistViolation):
            pipeline.extract_modulated(DepthProfile(np.zeros(16), 1.0), 1e6, 1e6)

    def test_stack_equals_row_by_row(self):
        rng = np.random.default_rng(3)
        rows = rng.normal(0.0, 1.0, (2, 3, 64))
        stack = pipeline.extract_modulated(DepthProfile(rows, BIN), F_US, F_S)
        assert stack.values.shape == (2, 3, 64)
        assert len(stack) == 64
        for idx in np.ndindex(2, 3):
            row = pipeline.extract_modulated(DepthProfile(rows[idx], BIN), F_US, F_S)
            assert np.array_equal(stack.values[idx], row.values)

    def test_profile_metadata_carried_through(self):
        prof = DepthProfile(np.ones(32), bin_width_m=BIN)
        out = pipeline.extract_modulated(prof, F_US, F_S)
        assert out.bin_width_m == BIN


class TestReconstructFolded:
    @pytest.mark.parametrize("mode", ["coded", "single-pulse"])
    def test_stack_profile_rows_equal_the_stream_path(self, mode):
        cfg = config(mode, order=31, periods=3, noise_sigma=0.1)
        stream = simulator.simulate_stream(cfg, phantom())
        folded = fold(stream)
        for extract in (True, False):
            stack = pipeline.reconstruct_profile(
                np.stack([folded, -folded]), cfg, extract=extract
            )
            assert isinstance(stack, DepthProfile)
            assert stack.bin_width_m == cfg.bin_width_m
            assert stack.values.shape == (2, cfg.period_samples)
            one = profile_of(stream, extract=extract)
            assert one.bin_width_m == cfg.bin_width_m
            assert np.array_equal(stack.values[0], one.values)


class TestMeasureFwhm:
    def test_triangle(self):
        # triangle of base 2w has FWHM exactly w
        half = 20
        tri = np.concatenate([np.linspace(0, 1, half + 1), np.linspace(1, 0, half + 1)[1:]])
        prof = DepthProfile(np.pad(tri, 5), bin_width_m=1e-3)
        assert pipeline.measure_fwhm(prof) == pytest.approx(half * 1e-3, rel=1e-9)

    def test_gaussian(self):
        sigma_bins = 12.0
        n = np.arange(200)
        g = np.exp(-0.5 * ((n - 90) / sigma_bins) ** 2)
        prof = DepthProfile(g, bin_width_m=1e-3)
        expected = 2.0 * math.sqrt(2.0 * math.log(2.0)) * sigma_bins * 1e-3
        assert pipeline.measure_fwhm(prof) == pytest.approx(expected, abs=0.5e-3)

    def test_flat_profile_raises(self):
        with pytest.raises(NoPeak):
            pipeline.measure_fwhm(DepthProfile(np.ones(32), bin_width_m=1e-3))

    def test_edge_peak_raises(self):
        with pytest.raises(EdgePeak):
            pipeline.measure_fwhm(DepthProfile(np.arange(32.0), bin_width_m=1e-3))

    def test_uncrossed_half_level_raises(self):
        vals = np.concatenate([np.full(16, 0.9), [1.0], np.full(16, 0.9)])
        with pytest.raises(EdgePeak):
            pipeline.measure_fwhm(DepthProfile(vals, bin_width_m=1e-3))

    def test_noise_free_modes_agree_within_one_bin(self):
        ph = phantom(boundary=0.003, extent=0.004, mu_a=1.0)
        fwhm = {}
        for mode in ("coded", "single-pulse"):
            stream = simulator.simulate_stream(config(mode), ph)
            fwhm[mode] = pipeline.measure_fwhm(profile_of(stream))
        assert abs(fwhm["coded"] - fwhm["single-pulse"]) <= BIN


def per_trial_snr(cfg, ph, n_trials, solver_kind):
    """(signal_mean, noise_std) from one simulate_stream and one
    profile_of per trial: the unbatched definition."""
    quiet = simulator.simulate_stream(replace(cfg, noise_sigma=0.0), ph)
    reference = profile_of(quiet, solver_kind).values
    peak_bin = int(np.argmax(reference))
    off_bin = 0 if peak_bin >= reference.size // 2 else reference.size - 1
    peaks = np.empty(n_trials)
    offs = np.empty(n_trials)
    for t in range(n_trials):
        trial_cfg = replace(cfg, seed=derive_seed(cfg.seed, TRIAL_SALT, t))
        prof = profile_of(simulator.simulate_stream(trial_cfg, ph), solver_kind).values
        peaks[t] = prof[peak_bin]
        offs[t] = prof[off_bin]
    return float(peaks.mean()), float(offs.std(ddof=1))


class TestMeasureSnr:
    @pytest.mark.parametrize("solver_kind", ["spectral"])
    @pytest.mark.parametrize("mode", ["coded", "single-pulse"])
    def test_batch_equals_per_trial_loop_exactly(self, mode, solver_kind):
        # 5 periods plus a partial one, so the refilled buffer has a tail
        cfg = config(mode, order=31, periods=5, noise_sigma=0.1, seed=12)
        cfg = replace(cfg, duration_s=cfg.duration_s + 10 / F_S)
        ph = phantom()
        rep = pipeline.measure_snr(cfg, ph, 37)
        assert (rep.signal_mean, rep.noise_std) == per_trial_snr(cfg, ph, 37, solver_kind)

    def test_noise_free_reports_sentinel(self):
        rep = pipeline.measure_snr(config(noise_sigma=0.0), phantom(), 3)
        assert math.isinf(rep.snr)
        assert rep.noise_std == 0.0

    def test_doubling_noise_halves_snr(self):
        # trial seeds depend only on (seed, trial), so both runs see the
        # same noise draws scaled by sigma and the ratio is tight
        ph = phantom()
        lo = pipeline.measure_snr(config(noise_sigma=0.05), ph, 30)
        hi = pipeline.measure_snr(config(noise_sigma=0.10), ph, 30)
        assert hi.snr / lo.snr == pytest.approx(0.5, rel=0.10)

    def test_requires_two_trials(self):
        with pytest.raises(ConfigError):
            pipeline.measure_snr(config(noise_sigma=0.1), phantom(), 1)

    def test_noise_floor_subtraction_lowers_signal(self):
        ph = phantom()
        plain = pipeline.measure_snr(config(noise_sigma=0.1), ph, 20)
        corrected = pipeline.measure_snr(
            config(noise_sigma=0.1), ph, 20, subtract_noise_floor=True
        )
        assert corrected.signal_mean < plain.signal_mean
        assert corrected.noise_std == plain.noise_std


class TestRayleighFloor:
    def test_off_signal_magnitude_mean(self):
        # mean of the envelope at a signal-free bin is sigma_q sqrt(pi/2)
        # with sigma_q the per-quadrature std of the demodulator output
        rng = np.random.default_rng(8)
        k = 4
        phase = 2 * np.pi * F_US / F_S * np.arange(64)
        mags = np.empty(10_000)
        i_arms = np.empty(10_000)
        for t in range(10_000):
            noise = rng.normal(0.0, 1.0, 64)
            prof = pipeline.extract_modulated(DepthProfile(noise, BIN), F_US, F_S)
            mags[t] = prof.values[32]
            i_arms[t] = 2.0 * _circular_box_mean(noise * np.cos(phase), k)[32]
        sigma_q = i_arms.std(ddof=1)
        assert mags.mean() / sigma_q == pytest.approx(math.sqrt(math.pi / 2), rel=0.05)


def rank_correlation(a, b) -> float:
    """Spearman's rho of two tie-free samples: the Pearson correlation of
    their ranks."""
    ranks = [np.argsort(np.argsort(v)) for v in (a, b)]
    return float(np.corrcoef(*ranks)[0, 1])


def test_rank_correlation():
    assert rank_correlation([1, 2, 3, 4], [10, 30, 35, 90]) == pytest.approx(1.0)
    assert rank_correlation([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)
    # ranks (0,1,2,3) vs (1,0,2,3): rho = 1 - 6 * 2 / (4 * 15) = 0.8
    assert rank_correlation([1, 2, 3, 4], [0.5, 0.2, 0.9, 1.7]) == pytest.approx(0.8)


class TestMultiplexingAdvantage:
    def test_gain_formulas(self):
        assert pipeline.exact_multiplexing_gain(3) == pytest.approx(4 / (2 * math.sqrt(3)))
        assert pipeline.exact_multiplexing_gain(3) == pytest.approx(1.1547, abs=1e-4)
        # (N+1)/2 >= sqrt(N): coding never loses under detector-limited noise
        assert all(pipeline.exact_multiplexing_gain(n) >= 1.0 for n in range(1, 1000))
        assert pipeline.exact_multiplexing_gain(79) == pytest.approx(4.5004, abs=1e-4)

    def test_theoretical_column_is_exact(self):
        curve = pipeline.multiplexing_advantage(
            config(noise_sigma=0.05), phantom(), SweepPlan((7, 19), 4)
        )
        assert curve.theoretical_gain == [8 / (2 * math.sqrt(7)), 20 / (2 * math.sqrt(19))]

    def test_orders_sorted_and_deduplicated(self):
        curve = pipeline.multiplexing_advantage(
            config(noise_sigma=0.05), phantom(), SweepPlan((19, 7, 19), 4)
        )
        assert curve.orders == [7, 19]

    def test_reports_pair_coded_and_single_pulse_per_order(self):
        curve = pipeline.multiplexing_advantage(
            config(noise_sigma=0.05), phantom(), SweepPlan((19, 7), 4)
        )
        assert [(r.mode, r.order) for r in curve.reports] == [
            ("coded", 7), ("single-pulse", 7), ("coded", 19), ("single-pulse", 19)
        ]
        pairs = zip(curve.reports[::2], curve.reports[1::2])
        assert curve.measured_gain == [coded.snr / single.snr for coded, single in pairs]

    def test_empty_orders_raise(self):
        with pytest.raises(ConfigError, match="orders list is empty"):
            SweepPlan((), 4)

    def test_zero_noise_raises(self):
        # every SNR would be infinite, so the gain would be inf or nan
        with pytest.raises(ConfigError, match="noise_sigma must be positive"):
            pipeline.multiplexing_advantage(config(), phantom(), SweepPlan((7,), 4))

    def test_measured_gain_tracks_inverse_row_norm(self):
        # 400 paired trials put the measured gain within a few percent of
        # the exact advantage (N+1)/(2 sqrt(N))
        curve = pipeline.multiplexing_advantage(
            config(noise_sigma=0.05, seed=5), phantom(), SweepPlan((7, 31), 400)
        )
        for order, measured in zip(curve.orders, curve.measured_gain):
            assert measured == pytest.approx(
                pipeline.exact_multiplexing_gain(order), rel=0.08
            )

    def test_gain_increases_with_order(self):
        curve = pipeline.multiplexing_advantage(
            config(noise_sigma=0.05, seed=6), phantom(), SweepPlan((7, 19, 31, 43, 79), 200)
        )
        assert rank_correlation(curve.orders, curve.measured_gain) > 0.95

    def test_max_rate_reference_divides_gain_by_sqrt_ratio(self):
        # a denser single-pulse train averages more repetitions, cutting
        # the measured advantage by sqrt(N / reference order)
        ph = phantom()
        base = config(noise_sigma=0.05, seed=7)
        n = 31
        matched = pipeline.multiplexing_advantage(base, ph, SweepPlan((n,), 300))
        packed = pipeline.multiplexing_advantage(
            base, ph, SweepPlan((n,), 300, reference="max-rate")
        )
        sp_order = pipeline._max_rate_order(base, ph)
        expected = matched.measured_gain[0] / math.sqrt(n / sp_order)
        assert packed.measured_gain[0] == pytest.approx(expected, rel=0.10)

    def test_unknown_reference_rejected(self):
        with pytest.raises(ConfigError):
            SweepPlan((7,), 4, reference="fastest")


class TestSweepPlan:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"orders": ()}, "orders list is empty"),
            ({"orders": (7, 8)}, "sweep order must be a prime congruent to 3 mod 4, got 8"),
            ({"orders": (-7,)}, "sweep order must be a prime congruent to 3 mod 4, got -7"),
            ({"orders": (2**61 - 1,)}, "sweep order 2305843009213693951 exceeds"),
            ({"n_trials": 1}, "n_trials must be at least 2"),
            ({"n_trials": -3}, "n_trials must be at least 2"),
            ({"reference": "fastest"}, "sweep reference must be matched or max-rate"),
        ],
    )
    def test_every_rule_checked_when_built(self, kwargs, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            SweepPlan(**kwargs)

    def test_defaults_build(self):
        assert SweepPlan().orders == (7, 19, 31, 79)
