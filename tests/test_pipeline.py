"""Envelope extraction, FWHM, SNR trials and the multiplexing advantage."""

import functools
import math
import re
from dataclasses import replace

import numpy as np
import pytest

from aoimux import demux, pipeline, simulator
from aoimux.codes import MAX_ORDER, valid_orders
from aoimux.config import SweepPlan, parse_run_config
from aoimux.errors import (
    ConfigError,
    EdgePeak,
    LengthMismatch,
    NonFiniteSamples,
    NoPeak,
    NyquistViolation,
)
from aoimux.seeding import TRIAL_SALT, derive_seed
from streams import BIN, CONFIGS, F_S, F_US, acquisition, fold, phantom, profile_of

config = functools.partial(acquisition, periods=4, seed=77)


class TestExtraction:
    @pytest.mark.parametrize("amp,phi", [(1.0, 0.0), (0.7, 1.1), (3.0, -2.0)])
    def test_pure_carrier_recovers_amplitude(self, amp, phi):
        n = np.arange(128)
        sig = amp * np.sin(2 * np.pi * F_US / F_S * n + phi)
        prof = pipeline.extract_modulated(sig, F_US, F_S)
        assert np.abs(prof - amp).max() < 0.01 * amp

    def test_zero_input_zero_output(self):
        prof = pipeline.extract_modulated(np.zeros(64), F_US, F_S)
        assert np.abs(prof).max() == 0.0

    def test_delta_phantom_peak_width_equals_pulse_length(self):
        k_bin = 120
        ph = phantom(mu_a=0.1, boundary=k_bin * BIN, extent=0.4 * BIN)
        cfg = config("single-pulse", periods=2)
        samples = simulator.simulate_stream(cfg, ph)
        prof = profile_of(samples, cfg)
        # single peak near the occupied bin; width is pulse-length limited.
        # The K=4 one-cycle pulse samples to {0,1,0,-1}, so its discrete
        # footprint crosses half maximum at K-1 bins.
        k = cfg.subsets_per_cycle
        assert abs(int(np.argmax(prof)) - k_bin) <= k
        fwhm = pipeline.measure_fwhm(prof, cfg.bin_width_m)
        assert fwhm <= k * BIN + 1e-12
        assert fwhm == pytest.approx((k - 1) * BIN, abs=BIN / 2)

    def test_nyquist_violation(self):
        with pytest.raises(NyquistViolation):
            pipeline.extract_modulated(np.zeros(16), 1e6, 1e6)

    def test_stack_equals_row_by_row(self):
        rng = np.random.default_rng(3)
        per_block = demux.BLOCK_SAMPLES // 64  # rows of 64 bins in one block
        # a stack of stacks; two full blocks and a partial one; one profile
        for shape in [(2, 3, 64), (2 * per_block + 7, 64), (64,)]:
            rows = rng.normal(0.0, 1.0, shape)
            before = rows.copy()
            stack = pipeline.extract_modulated(rows, F_US, F_S)
            assert stack.shape == shape
            assert stack.shape[-1] == 64
            assert np.array_equal(rows, before)
            for idx in np.ndindex(shape[:-1]):
                row = pipeline.extract_modulated(rows[idx].copy(), F_US, F_S)
                assert np.array_equal(stack[idx], row)


class TestReconstructFolded:
    @pytest.mark.parametrize("mode", ["coded", "single-pulse"])
    def test_stack_profile_rows_equal_the_stream_path(self, mode):
        cfg = config(mode, order=31, periods=3, noise_sigma=0.1)
        samples = simulator.simulate_stream(cfg, phantom())
        folded = fold(samples, cfg)
        for extract in (True, False):
            stack = pipeline.reconstruct_profile(
                np.stack([folded, -folded]), cfg, extract=extract
            )
            assert isinstance(stack, np.ndarray) and stack.dtype == np.float64
            assert stack.shape == (2, cfg.period_samples)
            one = profile_of(samples, cfg, extract=extract)
            assert np.array_equal(stack[0], one)

    def test_each_order_and_kind_builds_one_system(self, monkeypatch):
        builds = []
        build = demux.build_system

        def counted(seq, kind):
            builds.append((seq.size, kind))
            return build(seq, kind)

        monkeypatch.setattr(demux, "build_system", counted)
        pipeline._system.cache_clear()
        folded = np.random.default_rng(4).normal(size=(3, 19, 4))
        profiles = {}
        for kind in ("spectral", "dense"):
            for order in (19, 7):
                cfg = config(order=order, periods=2)
                frames = folded[:, :order]
                first = pipeline.reconstruct_profile(frames, cfg, kind)
                again = [pipeline.reconstruct_profile(frames, cfg, kind) for _ in range(3)]
                assert all(p.tobytes() == first.tobytes() for p in again)
                profiles[order, kind] = first
        assert builds == [(19, "spectral"), (7, "spectral"), (19, "dense"), (7, "dense")]
        # a system built afresh gives the same bits as the shared one
        pipeline._system.cache_clear()
        for (order, kind), shared in profiles.items():
            fresh = pipeline.reconstruct_profile(folded[:, :order], config(order=order), kind)
            assert fresh.tobytes() == shared.tobytes()
        assert len(builds) == 8

    @pytest.mark.parametrize("mode", ["coded", "single-pulse"])
    def test_unknown_solver_kind_raises_in_either_mode(self, mode):
        cfg = config(mode, order=7, periods=2)
        folded = np.zeros((cfg.order, cfg.subsets_per_cycle))
        with pytest.raises(ConfigError, match="solver kind must be one of"):
            pipeline.reconstruct_profile(folded, cfg, "bogus")

    # at order 7 and K = 4: a frame of the order but not K, and one of K
    # but not the order
    @pytest.mark.parametrize("frame", [(7, 3), (8, 4)])
    @pytest.mark.parametrize("mode", ["coded", "single-pulse"])
    def test_a_fold_of_another_frame_raises_before_any_solve(self, mode, frame, monkeypatch):
        cfg = config(mode, order=7, periods=2)

        def no_solve(*args):
            raise AssertionError("solved a fold of the wrong frame")

        monkeypatch.setattr(demux, "demultiplex_stream", no_solve)
        for folded in (np.ones(frame), np.ones((2,) + frame)):
            names_both = re.escape(str(folded.shape)) + ".*" + re.escape("(7, 4)")
            for extract in (True, False):
                with pytest.raises(LengthMismatch, match=names_both):
                    pipeline.reconstruct_profile(folded, cfg, extract=extract)

    # an inf or nan period mean, or finite means whose solve or extraction
    # overflows; any numpy warning would fail the test
    @pytest.mark.parametrize("case", ["inf", "nan", "overflow"])
    @pytest.mark.parametrize(
        "mode, kind",
        [("coded", "spectral"), ("coded", "dense"), ("single-pulse", "spectral")],
    )
    def test_a_non_finite_profile_raises_unwarned(self, mode, kind, case):
        cfg = config(mode, order=7, periods=2)
        shape = (3, cfg.order, cfg.subsets_per_cycle)
        folded = np.random.default_rng(8).uniform(0.5, 1.0, size=shape)
        extracts = [True, False]
        if case == "overflow":
            folded *= 1.79e308
            if mode == "single-pulse":
                # unextracted, the profile is the finite means themselves
                raw = pipeline.reconstruct_profile(folded, cfg, kind, extract=False)
                assert raw.tobytes() == folded.tobytes()
                extracts = [True]
        else:
            folded[1, 2, 3] = float(case)
        for extract in extracts:
            with pytest.raises(NonFiniteSamples, match="profile is not finite"):
                pipeline.reconstruct_profile(folded, cfg, kind, extract=extract)


class TestMeasureFwhm:
    def test_triangle(self):
        # triangle of base 2w has FWHM exactly w
        half = 20
        tri = np.concatenate([np.linspace(0, 1, half + 1), np.linspace(1, 0, half + 1)[1:]])
        assert pipeline.measure_fwhm(np.pad(tri, 5), 1e-3) == pytest.approx(half * 1e-3, rel=1e-9)

    def test_gaussian(self):
        sigma_bins = 12.0
        n = np.arange(200)
        g = np.exp(-0.5 * ((n - 90) / sigma_bins) ** 2)
        expected = 2.0 * math.sqrt(2.0 * math.log(2.0)) * sigma_bins * 1e-3
        assert pipeline.measure_fwhm(g, 1e-3) == pytest.approx(expected, abs=0.5e-3)

    def test_flat_profile_raises(self):
        with pytest.raises(NoPeak):
            pipeline.measure_fwhm(np.ones(32), 1e-3)

    def test_edge_peak_raises(self):
        with pytest.raises(EdgePeak):
            pipeline.measure_fwhm(np.arange(32.0), 1e-3)

    def test_uncrossed_half_level_raises(self):
        vals = np.concatenate([np.full(16, 0.9), [1.0], np.full(16, 0.9)])
        with pytest.raises(EdgePeak):
            pipeline.measure_fwhm(vals, 1e-3)

    def test_noise_free_modes_agree_within_one_bin(self):
        ph = phantom(boundary=0.003, extent=0.004, mu_a=1.0)
        fwhm = {}
        for mode in ("coded", "single-pulse"):
            cfg = config(mode)
            samples = simulator.simulate_stream(cfg, ph)
            fwhm[mode] = pipeline.measure_fwhm(profile_of(samples, cfg), cfg.bin_width_m)
        assert abs(fwhm["coded"] - fwhm["single-pulse"]) <= BIN


def per_trial_snr(cfg, ph, n_trials, with_floor=False):
    """(signal_mean, noise_std) from one folded draw and one
    reconstruct_profile per trial: the unbatched definition; with_floor
    appends the mean off-bin amplitude."""
    period = simulator.clean_period(cfg, ph)
    frame = (cfg.order, cfg.subsets_per_cycle)
    reference = pipeline.reconstruct_profile(period.reshape(frame), cfg)
    peak_bin = int(np.argmax(reference))
    off_bin = 0 if peak_bin >= reference.size // 2 else reference.size - 1
    scale = cfg.noise_sigma / math.sqrt(cfg.n_samples // cfg.period_samples)
    peaks = np.empty(n_trials)
    offs = np.empty(n_trials)
    for t in range(n_trials):
        rng = np.random.default_rng(derive_seed(cfg.seed, TRIAL_SALT, t))
        folded = period + scale * rng.standard_normal(period.size)
        prof = pipeline.reconstruct_profile(folded.reshape(frame), cfg)
        peaks[t] = prof[peak_bin]
        offs[t] = prof[off_bin]
    if with_floor:
        return float(peaks.mean()), float(offs.std(ddof=1)), float(offs.mean())
    return float(peaks.mean()), float(offs.std(ddof=1))


class TestMeasureSnr:
    @pytest.mark.parametrize("mode", ["coded", "single-pulse"])
    def test_batch_equals_per_trial_folded_draws_exactly(self, mode):
        # 5 periods plus a partial one, which the fold leaves out
        cfg = config(mode, order=31, periods=5, noise_sigma=0.1, seed=12)
        cfg = replace(cfg, duration_s=cfg.duration_s + 10 / F_S)
        ph = phantom()
        rep = pipeline.measure_snr(cfg, ph, 37)
        assert rep.dtype == np.float64 and rep.shape == (3,)
        assert (rep[0], rep[1]) == per_trial_snr(cfg, ph, 37)

    @pytest.mark.parametrize("mode", ["coded", "single-pulse"])
    def test_noise_floor_subtraction_equals_per_trial_folded_draws(self, mode):
        cfg = config(mode, order=31, periods=5, noise_sigma=0.1, seed=13)
        ph = phantom()
        rep = pipeline.measure_snr(cfg, ph, 23, subtract_noise_floor=True)
        signal, noise, floor = per_trial_snr(cfg, ph, 23, with_floor=True)
        assert (rep[0], rep[1]) == (signal - floor, noise)
        assert rep[2] == (signal - floor) / noise

    # 32 PB and 3.2 EB of amplitudes of one config, beyond any 64-bit user
    # address space; the second is refused before numpy sees the shape
    @pytest.mark.parametrize("n_trials", [10**15, 10**17])
    def test_amplitudes_are_allocated_before_any_seed_is_derived(self, monkeypatch, n_trials):
        def no_seed(*args):
            raise AssertionError("a seed was derived")

        monkeypatch.setattr(pipeline, "derive_seed", no_seed)
        with pytest.raises(MemoryError):
            pipeline.measure_snr(config(order=7, noise_sigma=0.1), phantom(), n_trials)

    def test_a_reference_without_a_peak_raises_before_any_seed_is_derived(self, monkeypatch):
        # quick.cfg's bins are 0.198 mm apart: none lies in the phantom's
        # 0.1 to 0.11 mm, so the noise-free reference is all zeros
        run = parse_run_config(CONFIGS / "quick.cfg")
        ph = replace(run.phantom, boundary_z_m=1e-4, depth_extent_m=1e-5)
        assert not simulator.axial_profile(run.acquisition, ph).any()

        def no_seed(*args):
            raise AssertionError("a seed was derived")

        monkeypatch.setattr(pipeline, "derive_seed", no_seed)
        with pytest.raises(NoPeak, match="reference profile is empty"):
            pipeline.measure_snr(run.acquisition, ph, 5)

    def test_configs_of_different_seeds_each_get_their_own_statistics(self):
        # each config's trial seeds derive from its own seed, not from the
        # last config's
        cfg = config(order=31, periods=5, noise_sigma=0.1, seed=12)
        cfgs = [cfg, replace(cfg, seed=13), replace(cfg, mode="single-pulse", seed=14)]
        ph = phantom()
        stats = pipeline._measure_snrs(cfgs, ph, 7, False)
        assert (stats == np.array([pipeline.measure_snr(c, ph, 7) for c in cfgs])).all()
        assert (stats[0] != stats[1]).any()

    def test_noise_free_reports_sentinel(self):
        rep = pipeline.measure_snr(config(noise_sigma=0.0), phantom(), 3)
        assert math.isinf(rep[2])
        assert rep[1] == 0.0

    def test_doubling_noise_halves_snr(self):
        # trial seeds depend only on (seed, trial), so both runs see the
        # same noise draws scaled by sigma and the ratio is tight
        ph = phantom()
        lo = pipeline.measure_snr(config(noise_sigma=0.05), ph, 30)
        hi = pipeline.measure_snr(config(noise_sigma=0.10), ph, 30)
        assert hi[2] / lo[2] == pytest.approx(0.5, rel=0.10)

    def test_requires_two_trials(self):
        with pytest.raises(ConfigError):
            pipeline.measure_snr(config(noise_sigma=0.1), phantom(), 1)

    def test_noise_floor_subtraction_lowers_signal(self):
        ph = phantom()
        plain = pipeline.measure_snr(config(noise_sigma=0.1), ph, 20)
        corrected = pipeline.measure_snr(
            config(noise_sigma=0.1), ph, 20, subtract_noise_floor=True
        )
        assert corrected[0] < plain[0]
        assert corrected[1] == plain[1]

    @pytest.mark.parametrize("subtract_noise_floor", [False, True])
    def test_an_overflowing_noise_std_raises_unwarned(self, subtract_noise_floor):
        # quick.cfg at sigma = 1e160: each trial amplitude is finite, but
        # the square of its spread is not; a warning would fail the test
        run = parse_run_config(CONFIGS / "quick.cfg")
        cfg = replace(run.acquisition, noise_sigma=1e160)
        with pytest.raises(NonFiniteSamples, match="noise std of order 79 coded overflows"):
            pipeline.measure_snr(cfg, run.phantom, 20, subtract_noise_floor=subtract_noise_floor)


class TestRayleighFloor:
    def test_off_signal_magnitude_mean(self):
        # mean of the envelope at a signal-free bin is sigma_q sqrt(pi/2)
        # with sigma_q the per-quadrature std of the demodulator output
        rng = np.random.default_rng(8)
        k = 4
        phase = 2 * np.pi * F_US / F_S * np.arange(64)
        window = np.arange(k) + 32 - k // 2  # the centered low-pass window of bin 32
        mags = np.empty(10_000)
        i_arms = np.empty(10_000)
        for t in range(10_000):
            noise = rng.normal(0.0, 1.0, 64)
            prof = pipeline.extract_modulated(noise, F_US, F_S)
            mags[t] = prof[32]
            i_arms[t] = 2.0 * (noise * np.cos(phase))[window].mean()
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
        orders, _ = pipeline.multiplexing_advantage(
            config(noise_sigma=0.05), phantom(), SweepPlan((7, 19), 4)
        )
        theoretical = pipeline.exact_multiplexing_gain(orders[:, 0])
        assert theoretical.tolist() == [8 / (2 * math.sqrt(7)), 20 / (2 * math.sqrt(19))]
        # np.sqrt rounds as math.sqrt does, at every order
        every = np.array(valid_orders(MAX_ORDER))
        assert pipeline.exact_multiplexing_gain(every).tolist() == [
            (n + 1) / (2.0 * math.sqrt(n)) for n in every.tolist()
        ]

    def test_orders_sorted_and_deduplicated(self):
        orders, _ = pipeline.multiplexing_advantage(
            config(noise_sigma=0.05), phantom(), SweepPlan((19, 7, 19), 4)
        )
        assert orders[:, 0].tolist() == [7, 19]

    def test_statistics_pair_coded_and_single_pulse_per_order(self):
        orders, stats = pipeline.multiplexing_advantage(
            config(noise_sigma=0.05), phantom(), SweepPlan((19, 7), 4)
        )
        assert orders.dtype == np.int64 and orders.tolist() == [[7, 7], [19, 19]]
        assert stats.dtype == np.float64 and stats.shape == (2, 2, 3)

    def test_empty_orders_raise(self):
        with pytest.raises(ConfigError, match="orders list is empty"):
            SweepPlan((), 4)

    def test_zero_noise_raises(self):
        # every SNR would be infinite, so the gain would be inf or nan
        with pytest.raises(ConfigError, match="noise_sigma must be positive"):
            pipeline.multiplexing_advantage(config(), phantom(), SweepPlan((7,), 4))

    def test_vanished_noise_raises(self):
        # quick.cfg at sigma = 1e-320: the noise of coded order 7 rounds
        # away, which would make its SNR and gain inf
        run = parse_run_config(CONFIGS / "quick.cfg")
        cfg = replace(run.acquisition, noise_sigma=1e-320)
        with pytest.raises(ConfigError, match="noise of order 7 coded vanished"):
            pipeline.multiplexing_advantage(cfg, run.phantom, run.sweep)

    def test_measured_gain_tracks_inverse_row_norm(self):
        # 400 paired trials put the measured gain within a few percent of
        # the exact advantage (N+1)/(2 sqrt(N))
        orders, stats = pipeline.multiplexing_advantage(
            config(noise_sigma=0.05, seed=5), phantom(), SweepPlan((7, 31), 400)
        )
        for order, measured in zip(orders[:, 0], stats[:, 0, 2] / stats[:, 1, 2]):
            assert measured == pytest.approx(
                pipeline.exact_multiplexing_gain(order), rel=0.08
            )

    def test_gain_increases_with_order(self):
        orders, stats = pipeline.multiplexing_advantage(
            config(noise_sigma=0.05, seed=6), phantom(), SweepPlan((7, 19, 31, 43, 79), 200)
        )
        assert rank_correlation(orders[:, 0], stats[:, 0, 2] / stats[:, 1, 2]) > 0.95

    def test_max_rate_reference_divides_gain_by_sqrt_ratio(self):
        # a denser single-pulse train averages more repetitions, cutting
        # the measured advantage by sqrt(N / reference order)
        ph = phantom()
        base = config(noise_sigma=0.05, seed=7)
        n = 31
        _, matched = pipeline.multiplexing_advantage(base, ph, SweepPlan((n,), 300))
        orders, packed = pipeline.multiplexing_advantage(
            base, ph, SweepPlan((n,), 300, reference="max-rate")
        )
        sp_order = pipeline._max_rate_order(base, ph)
        assert orders.tolist() == [[n, sp_order]]
        expected = matched[0, 0, 2] / matched[0, 1, 2] / math.sqrt(n / sp_order)
        assert packed[0, 0, 2] / packed[0, 1, 2] == pytest.approx(expected, rel=0.10)

    def test_unknown_reference_rejected(self):
        with pytest.raises(ConfigError):
            SweepPlan((7,), 4, reference="fastest")


class TestOnePassSweep:
    """A sweep draws each trial's normals once for all of its orders and
    modes, and reports what each of them measured alone reports, bit for
    bit."""

    @pytest.mark.parametrize("reference", ["matched", "max-rate"])
    # a row of every config holds 1088 values (640 at max-rate), over 4
    # trials: blocks of one row; of 2 rows (3 and a last one at max-rate); of
    # 2 rows (every row); of 3 rows and a last one (every row); and of every
    # row
    @pytest.mark.parametrize("chunk_samples", [1, 2200, 3000, 3400, 1 << 16])
    def test_statistics_equal_each_config_measured_alone(
        self, monkeypatch, reference, chunk_samples
    ):
        run = parse_run_config(CONFIGS / "quick.cfg")
        cfg, ph = run.acquisition, run.phantom
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", chunk_samples)
        plan = SweepPlan(run.sweep.orders, 4, reference=reference)
        orders, stats = pipeline.multiplexing_advantage(cfg, ph, plan)
        periods = {n * cfg.subsets_per_cycle for n in orders.ravel().tolist()}
        # max-rate pulses every 24 samples, beside coded periods of 28 to 316;
        # every period but 316 leaves a partial last period of the 2528
        # samples, and each config scales its draw by its own period count
        assert periods == ({24} if reference == "max-rate" else set()) | {28, 76, 124, 316}
        assert sum(cfg.n_samples % p > 0 for p in periods) == len(periods) - 1
        alone = [
            [pipeline.measure_snr(replace(cfg, mode=mode, order=n), ph, plan.n_trials)
             for mode, n in zip(("coded", "single-pulse"), pair)]
            for pair in orders.tolist()
        ]
        assert (stats == np.array(alone)).all()


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
