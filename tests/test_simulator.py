"""Forward model: waveforms, fluence kernel, stream synthesis, scans."""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest

from aoimux import codes, demux, simulator
from aoimux.config import ScanGrid, integer_ratio, parse_run_config
from aoimux.errors import (
    ConfigError,
    InsufficientSamples,
    InvalidOrder,
    NonIntegerRatio,
)
from aoimux.pipeline import reconstruct_profile
from aoimux.seeding import SCAN_SALT, derive_seed
import streams
from streams import BIN, CONFIGS, F_S, F_US, profile_of
from streams import acquisition as config

phantom = functools.partial(streams.phantom, mu_a=0.05, boundary=0.002, extent=0.03)


class TestPulseWaveform:
    def test_four_samples_at_reference_rates(self):
        w = simulator.pulse_waveform(F_US, F_S)
        assert w.size == 4
        np.testing.assert_allclose(w, [0.0, 1.0, 0.0, -1.0], atol=1e-12)

    @pytest.mark.parametrize("k", [3, 4, 5, 8, 16])
    def test_full_cycle_sums_to_zero(self, k):
        w = simulator.pulse_waveform(1e6, k * 1e6)
        assert abs(w.sum()) < 1e-10

    def test_eight_samples_for_k8(self):
        assert simulator.pulse_waveform(1e6, 8e6).size == 8

    def test_non_integer_ratio(self):
        with pytest.raises(NonIntegerRatio):
            simulator.pulse_waveform(1.25e6, 3e6)

    @pytest.mark.parametrize("f_s, f_us", [(np.inf, 1e6), (np.nan, 1e6), (np.inf, np.inf)])
    def test_non_finite_ratio(self, f_s, f_us):
        with pytest.raises(NonIntegerRatio):
            integer_ratio(f_s, f_us)


class TestFluence:
    def test_mirrored_axis_positions_match(self):
        ph = phantom()
        cfg = config()
        left = simulator.axial_profile(cfg, ph, (-0.003, 0.0))
        right = simulator.axial_profile(cfg, ph, (0.003, 0.0))
        assert left.max() > 0
        np.testing.assert_allclose(left, right, rtol=1e-12)
        up = simulator.axial_profile(cfg, ph, (0.0, 0.002))
        down = simulator.axial_profile(cfg, ph, (0.0, -0.002))
        np.testing.assert_allclose(up, down, rtol=1e-12)

    def test_absorption_steepens_decay(self):
        cfg = config()
        weak = simulator.axial_profile(cfg, phantom(mu_a=0.02))
        strong = simulator.axial_profile(cfg, phantom(mu_a=1.0))
        inside = weak > 0  # the same bins in both: the geometry is the same
        weak, strong = weak[inside] / weak.max(), strong[inside] / strong.max()
        # both normalized to peak 1; the absorbing phantom must fall off faster
        assert strong[-1] < weak[-1]
        quarter = weak.size // 4
        assert np.all(strong[quarter:] <= weak[quarter:] + 1e-15)

    def test_peak_location_against_dense_oracle(self):
        # independent evaluation of the kernel product on a dense grid of
        # 100 bins per carrier period
        ph = phantom(mu_a=0.05)
        cfg = config(f_s=100 * F_US)
        zs = np.arange(cfg.period_samples) * cfg.bin_width_m
        inside = (zs >= ph.boundary_z_m) & (zs <= ph.boundary_z_m + ph.depth_extent_m)
        zs = zs[inside]
        assert zs.size > 3000
        mu_eff = np.sqrt(3.0 * ph.mu_a_per_cm * ph.mu_s_prime_per_cm) * 100.0
        lt = 1.0 / (ph.mu_s_prime_per_cm * 100.0)
        d1 = np.maximum(np.hypot(0.0075, zs - (ph.boundary_z_m + lt)), lt)
        d2 = d1  # midpoint axis, symmetric geometry
        oracle = np.exp(-mu_eff * (d1 + d2)) / (d1 * d2)
        prof = simulator.axial_profile(cfg, ph, (0.0, 0.0))[inside]
        np.testing.assert_allclose(prof / prof.max(), oracle / oracle.max(), rtol=1e-10)
        # peak sits one transport length below the boundary plane
        assert zs[np.argmax(prof)] == pytest.approx(ph.boundary_z_m + lt, abs=2e-5)

    def test_bins_outside_the_phantom_carry_zero(self):
        ph = phantom(boundary=0.004, extent=0.01)
        cfg = config()
        zs = np.arange(cfg.period_samples) * cfg.bin_width_m
        inside = (zs >= ph.boundary_z_m) & (zs <= ph.boundary_z_m + ph.depth_extent_m)
        assert inside.any() and not inside[0] and not inside[-1]
        stack = simulator.axial_profile(cfg, ph, np.array([[0.0, 0.0], [0.002, -0.001]]))
        assert stack.shape == (2, cfg.period_samples)
        assert np.all(stack[:, ~inside] == 0.0)
        assert np.all(stack[:, inside] > 0.0)

    def test_fluence_scale_cache_matches_uncached(self):
        ph = phantom()
        assert simulator.fluence_scale(ph) == simulator.fluence_scale.__wrapped__(ph)


class TestSimulateStream:
    def test_delta_phantom_gives_shifted_pulse(self):
        # phantom thinner than one bin -> a single occupied fine bin k;
        # the stream must be x_k times the time-reversed pulse footprint
        k_bin = 100
        ph = phantom(boundary=k_bin * BIN, extent=0.4 * BIN)
        cfg = config("single-pulse", periods=3)
        x = simulator.axial_profile(cfg, ph)
        assert np.count_nonzero(x) == 1 and x[k_bin] > 0
        samples = simulator.simulate_stream(cfg, ph)
        w = simulator.pulse_waveform(F_US, F_S)
        period = cfg.period_samples
        expected_one = np.zeros(period)
        for u, wu in enumerate(w):
            expected_one[(k_bin - u) % period] = x[k_bin] * wu
        expected = np.tile(expected_one, 3)
        np.testing.assert_allclose(samples, expected, atol=1e-12)

    def test_coded_frames_satisfy_circulant_equation(self):
        # independent oracle: the windowed source vector for subset j is
        # x~_j[q] = sum_v x[qK + j + v] w[v];  frames must equal S @ x~_j
        order, k = 7, 4
        ph = phantom(boundary=0.0002, extent=0.004)
        cfg = config("coded", order=order, periods=2)
        samples = simulator.simulate_stream(cfg, ph)
        x = simulator.axial_profile(cfg, ph)
        w = simulator.pulse_waveform(F_US, F_S)
        s = codes.circulant_matrix(codes.generate_s_sequence(order)).astype(float)
        frames = samples.reshape(-1, order, k)  # frames[p, :, j]: subset j
        for j in range(k):
            xt = np.zeros(order)
            for q in range(order):
                for v in range(k):
                    xt[q] += x[(q * k + j + v) % (order * k)] * w[v]
            for frame in frames[:, :, j]:
                np.testing.assert_allclose(frame, s @ xt, atol=1e-12)

    def test_reference_prf_and_pulse_spacing(self):
        cfg = config("coded", order=79)
        assert cfg.prf == pytest.approx(15.82e3, rel=0.01)
        assert cfg.inter_pulse_spacing_m == pytest.approx(0.094, rel=0.01)

    def test_noise_level_realism(self):
        ph = phantom()
        cfg = config("coded", periods=4, noise_sigma=0.37, seed=123)
        quiet = simulator.simulate_stream(replace(cfg, noise_sigma=0.0), ph)
        noisy = simulator.simulate_stream(cfg, ph)
        n = noisy.size
        reps = -(-1_000_000 // n)
        residuals = []
        for r in range(reps):
            s = simulator.simulate_stream(replace(cfg, seed=123 + r), ph)
            residuals.append(s - quiet)
        resid = np.concatenate(residuals)[:1_000_000]
        assert resid.std(ddof=1) == pytest.approx(0.37, rel=0.02)

    def test_seed_determinism_bit_identical(self):
        ph = phantom()
        cfg = config("coded", noise_sigma=0.5, seed=42)
        a = simulator.simulate_stream(cfg, ph)
        b = simulator.simulate_stream(cfg, ph)
        assert np.array_equal(a, b)

    def test_noise_drawn_in_chunks_equals_one_shot_normals(self):
        # two full stream chunks plus a partial one
        chunk = simulator.CHUNK_SAMPLES
        cfg = config(order=7, periods=-(-(2 * chunk + 1) // 28), noise_sigma=0.5, seed=9)
        assert cfg.n_samples > 2 * simulator.chunk_length(cfg.period_samples)
        ph = phantom(extent=0.003)
        quiet = simulator.simulate_stream(replace(cfg, noise_sigma=0.0), ph)
        noisy = simulator.simulate_stream(cfg, ph)
        draw = np.random.default_rng(9).normal(0.0, 0.5, cfg.n_samples)
        assert np.array_equal(noisy, quiet + draw)

    def test_stream_chunks_in_small_chunks_equal_one_shot_normals(self, monkeypatch):
        # chunks of two periods of 3 samples: four full chunks and a partial one
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", 7)
        ph = phantom(boundary=0.0001, extent=0.0005)
        cfg = config(
            "single-pulse", order=1, f_s=3 * F_US, duration_s=25 / (3 * F_US),
            noise_sigma=0.3, seed=11,
        )
        chunks = [c.copy() for c in simulator.stream_chunks(cfg, ph)]
        assert [c.size for c in chunks] == [6, 6, 6, 6, 1]
        period = simulator.clean_period(cfg, ph)
        draw = np.random.default_rng(11).normal(0.0, 0.3, cfg.n_samples)
        assert np.array_equal(np.concatenate(chunks), np.resize(period, cfg.n_samples) + draw)

    def test_stream_chunks_with_zero_sigma_draw_nothing(self, monkeypatch):
        def no_rng(*args):
            raise AssertionError("a generator was built")

        monkeypatch.setattr(np.random, "default_rng", no_rng)
        ph = phantom(extent=0.003)
        cfg = config(order=7, periods=1, noise_sigma=0.0, seed=11)
        chunks = list(simulator.stream_chunks(cfg, ph))
        assert len(chunks) == 1
        assert np.array_equal(chunks[0], simulator.clean_period(cfg, ph))

    @pytest.mark.parametrize("sigma", [0.25, 0.0])
    def test_in_place_draw_keeps_every_bit_of_the_period(self, monkeypatch, sigma):
        # a period holding -0.0, two periods a chunk and a partial last
        # period: noisy samples are period + normal bit for bit, and samples
        # without noise are the period repeated, sign of zero included
        cfg = config(order=7, duration_s=(5 * 28 + 11) / F_S, noise_sigma=sigma, seed=3)
        period = np.resize([-0.0, 0.0, 1.5, -2.0, -0.0, 3.0, -0.0], cfg.period_samples)
        monkeypatch.setattr(simulator, "clean_period", lambda *args: period)
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", 2 * 28)
        chunks = [c.copy() for c in simulator.stream_chunks(cfg, phantom())]
        assert [c.size for c in chunks] == [56, 56, 39]
        n = cfg.n_samples
        expected = np.resize(period, n)
        if sigma:
            expected = expected + np.random.default_rng(3).normal(0.0, sigma, n)
        assert np.concatenate(chunks).tobytes() == expected.tobytes()

    def test_stream_chunks_are_whole_periods_and_gather_to_simulate_stream(
        self, monkeypatch
    ):
        # 8 periods and 5 samples, three periods a chunk: 3 + 3 + 2 periods + 5
        ph = phantom(extent=0.003)
        cfg = config(order=7, duration_s=(8 * 28 + 5) / F_S, noise_sigma=0.5, seed=4)
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", 3 * 28 + 20)
        sizes, gathered = [], []
        for chunk in simulator.stream_chunks(cfg, ph):
            sizes.append(chunk.size)
            gathered.append(chunk.copy())
        assert sizes == [84, 84, 61]
        whole = simulator.simulate_stream(cfg, ph)
        assert whole.dtype == np.float64 and whole.shape == (cfg.n_samples,)
        assert np.concatenate(gathered).tobytes() == whole.tobytes()
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", 1 << 16)
        assert np.array_equal(simulator.simulate_stream(cfg, ph), whole)

    def test_chunk_is_never_shorter_than_one_period(self, monkeypatch):
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", 1)
        assert simulator.chunk_length(316) == 316
        assert simulator.chunk_length(1) == 1

    def test_distinct_seeds_differ(self):
        ph = phantom()
        a = simulator.simulate_stream(config(noise_sigma=0.5, seed=1), ph)
        b = simulator.simulate_stream(config(noise_sigma=0.5, seed=2), ph)
        assert not np.array_equal(a, b)

    def test_zero_duration_raises(self):
        with pytest.raises(InsufficientSamples):
            simulator.simulate_stream(config(duration_s=0.0), phantom())

    def test_phantom_deeper_than_repetition_span_raises(self):
        # order 7 spans 7 * c / f_us = 5.5 mm; a 30 mm phantom cannot fit
        with pytest.raises(ConfigError):
            simulator.simulate_stream(config(order=7), phantom(extent=0.03))

    def test_config_validation(self):
        with pytest.raises(NonIntegerRatio):
            config(f_s=3e6)
        with pytest.raises(InvalidOrder):
            config("coded", order=13)
        with pytest.raises(ConfigError):
            config(mode="continuous")
        # single-pulse mode accepts any positive repetition period
        assert config("single-pulse", order=13).prf == pytest.approx(F_US / 13)

    def test_config_rejects_water_path_time_that_overflows(self):
        with pytest.raises(ConfigError, match="t0 = water_path_m / water_sound_speed"):
            config(water_path_m=1e300, water_sound_speed=1e-300)

    def test_config_rejects_sample_counts_that_overflow(self):
        with pytest.raises(ConfigError, match=r"duration_s \* f_s must be finite"):
            config(duration_s=1e308)
        # numpy refuses an array of a period this long
        with pytest.raises(ConfigError, match="too large"):
            config("single-pulse", order=10**30)
        assert config("single-pulse", order=10**6).period_samples == 4 * 10**6

    def test_phantom_validation(self):
        with pytest.raises(ConfigError):
            phantom(mu_a=-0.1)

    @pytest.mark.parametrize(
        "field", ["f_us", "f_s", "c", "duration_s", "noise_sigma",
                  "modulation_efficiency", "water_sound_speed", "water_path_m"]
    )
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_config_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            config(**{field: value})

    @pytest.mark.parametrize(
        "field, value",
        [("mu_s_prime_per_cm", np.nan), ("mu_a_per_cm", np.inf),
         ("src_x_m", -np.inf), ("src_y_m", np.nan), ("det_x_m", np.inf),
         ("det_y_m", np.nan), ("boundary_z_m", np.inf),
         ("depth_extent_m", np.inf)],
    )
    def test_phantom_rejects_non_finite(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be finite"):
            replace(phantom(), **{field: value})

    def test_huge_coded_order_rejected_before_primality_test(self):
        with pytest.raises(InvalidOrder, match="exceeds"):
            config("coded", order=2**61 - 1)  # a prime = 3 mod 4

    def test_negative_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            config(seed=-1)


class TestZeroNoiseEquivalence:
    @pytest.mark.parametrize("order", [7, 79])
    def test_coded_equals_single_pulse(self, order):
        extent = 0.004 if order == 7 else 0.03
        ph = phantom(boundary=0.0004, extent=extent)
        coded_cfg, single_cfg = config("coded", order=order), config("single-pulse", order=order)
        pc = profile_of(simulator.simulate_stream(coded_cfg, ph), coded_cfg)
        ps = profile_of(simulator.simulate_stream(single_cfg, ph), single_cfg)
        err = np.linalg.norm(pc - ps) / np.linalg.norm(ps)
        assert err < 1e-6


class TestScanGrid:
    @pytest.mark.parametrize(
        "field, value",
        [("x_min_m", math.nan), ("x_max_m", math.inf), ("y_min_m", -math.inf),
         ("y_max_m", math.nan), ("step_m", math.inf)],
    )
    def test_non_finite_value_rejected_when_built(self, field, value):
        with pytest.raises(ConfigError, match="must be finite"):
            ScanGrid(**{field: value})

    def test_shape_rules_checked_when_built(self):
        with pytest.raises(ConfigError, match="scan step must be finite and positive"):
            ScanGrid(x_min_m=0.001, x_max_m=-0.001, step_m=-0.001)
        with pytest.raises(ConfigError, match="scan x range is reversed"):
            ScanGrid(x_min_m=0.001, x_max_m=-0.001, step_m=0.001)
        with pytest.raises(ConfigError, match="scan y range is reversed"):
            ScanGrid(y_min_m=0.001, y_max_m=-0.001, step_m=0.001)

    def test_step_count_must_be_below_2_to_the_53(self):
        # beyond 2^53 a float step count is no longer an exact integer
        ScanGrid(x_max_m=2.0**53 - 1, step_m=1.0)  # builds; positions() is not asked for
        with pytest.raises(ConfigError, match=r"scan x range \[0.0, 9007199254740992.0\] spans"):
            ScanGrid(x_max_m=2.0**53, step_m=1.0)
        with pytest.raises(ConfigError, match="scan y range .* spans too many steps"):
            ScanGrid(y_min_m=-1e308, y_max_m=1e308)  # the span overflows to inf

    def test_positions_run_from_min_to_max(self):
        xs, ys = ScanGrid(x_min_m=-0.002, x_max_m=0.002, step_m=0.001).positions()
        np.testing.assert_allclose(xs, [-0.002, -0.001, 0.0, 0.001, 0.002], atol=1e-18)
        assert ys.tolist() == [0.0]
        # 0.0013 is not a whole number of 0.0005 steps; no position passes it
        xs, _ = ScanGrid(x_max_m=0.0013, step_m=0.0005).positions()
        np.testing.assert_allclose(xs, [0.0, 0.0005, 0.001], atol=1e-18)

    @pytest.mark.parametrize("name, count", [("quick.cfg", 33), ("default.cfg", 37)])
    def test_shipped_grids_keep_their_positions(self, name, count):
        # 37 is also the benchmark's scan workload oracle on default.cfg
        grid = parse_run_config(CONFIGS / name).scan
        xs, ys = grid.positions()
        assert (xs.size, ys.size) == (count, 1)
        assert xs[-1] == pytest.approx(grid.x_max_m, abs=1e-15)


def folded_row(cfg, period, seed):
    """A period mean as its definition draws it: the period, plus sigma /
    sqrt(p) times the seed's own standard normals over p complete periods."""
    if cfg.noise_sigma:
        p = cfg.n_samples // cfg.period_samples
        z = np.random.default_rng(seed).standard_normal(cfg.period_samples)
        period = period + cfg.noise_sigma / math.sqrt(p) * z
    return period.reshape(cfg.order, cfg.subsets_per_cycle)


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov statistic: the largest gap between
    the empirical distribution functions of a and b."""
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(np.sort(a), both, side="right") / a.size
    cdf_b = np.searchsorted(np.sort(b), both, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


class TestDrawFolded:
    """Each folded row is its period plus its own scaled draw, bit for bit,
    and the draw is distributed as the period mean of a noisy stream."""

    # the three periods hold 116 values: blocks of one row, of exactly one
    # row, of 2 rows, of 4 rows and a last one of 1, and of every row
    @pytest.mark.parametrize("chunk_samples", [1, 116, 300, 464, 1 << 16])
    def test_each_row_is_its_period_plus_its_own_scaled_normals(self, monkeypatch, chunk_samples):
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", chunk_samples)
        rng = np.random.default_rng(2)
        # periods of 28, 76 and 12 samples, each stream ending in a partial
        # period; the third config is shorter and draws no noise
        cfgs = [
            config(order=7, duration_s=257 / F_S, noise_sigma=0.3),
            config(order=19, duration_s=257 / F_S, noise_sigma=0.5),
            config("single-pulse", order=3, duration_s=100 / F_S, noise_sigma=0.0),
        ]
        periods = [
            rng.normal(size=(5, 28)),
            np.broadcast_to(rng.normal(size=76), (5, 76)),  # one period for every row
            rng.normal(size=(5, 12)),
        ]
        # a -0.0 under noise, and one in the quiet config, which keeps its sign
        periods[0][1, 3] = periods[2][0, 0] = -0.0
        # shared and distinct seeds
        seeds = [[5, 4, 7, 8, 9], [5, 6, 7, 3, 9], [5, 6, 7, 8, 9]]
        blocks = list(simulator.draw_folded(cfgs, periods, seeds))
        assert [lo for lo, _ in blocks] == list(range(0, 5, len(blocks[0][1][0])))
        for _, folded in blocks:
            rows = len(folded[0])
            assert rows == 1 or rows * sum(p.shape[-1] for p in periods) <= chunk_samples
        for c, (cfg, stack, row_seeds) in enumerate(zip(cfgs, periods, seeds)):
            drawn = np.concatenate([folded[c] for _, folded in blocks])
            assert drawn.shape == (5, cfg.order, cfg.subsets_per_cycle)
            for period, seed, row in zip(stack, row_seeds, drawn):
                assert row.tobytes() == folded_row(cfg, period, seed).tobytes()

    def test_no_complete_period_raises_before_any_seed_is_read(self):
        def no_seed():
            raise AssertionError("a seed was read")
            yield

        cfgs = [config(order=7, periods=2), config(order=19, duration_s=75 / F_S)]
        draws = simulator.draw_folded(
            cfgs, [np.zeros((2, 28)), np.zeros((2, 76))], [no_seed(), no_seed()]
        )
        with pytest.raises(InsufficientSamples, match="75 samples < one period of 76"):
            next(draws)

    # one row a block, so the seeds run out in the last block only; or
    # every row in one block, so they run out in the first
    @pytest.mark.parametrize("chunk_samples", [1, 1 << 16])
    def test_fewer_seeds_than_rows_raises(self, monkeypatch, chunk_samples):
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", chunk_samples)
        cfg = config(order=7, duration_s=56 / F_S, noise_sigma=0.5)
        with pytest.raises(ValueError, match="3 rows but 2 seeds"):
            list(simulator.draw_folded([cfg], [np.zeros((3, 28))], [[1, 2]]))

    def test_no_rows_give_no_blocks(self):
        def no_seed():
            raise AssertionError("a seed was read")
            yield

        cfg = config(order=7, noise_sigma=0.5)
        assert list(simulator.draw_folded([cfg], [np.zeros((0, 28))], [no_seed()])) == []

    @pytest.mark.parametrize("beside", ["alone", "a-noisy-config"])
    def test_a_quiet_row_is_its_clean_period_bit_for_bit(self, beside):
        cfg = config(order=7, periods=3, noise_sigma=0.0)
        periods = np.random.default_rng(4).normal(size=(3, 28))
        periods[1, 5] = -0.0  # keeps its sign
        cfgs, stacks = [cfg], [periods]
        if beside == "a-noisy-config":
            # a longer noisy period on the same seeds: their normals are drawn
            cfgs.append(config(order=19, periods=3, noise_sigma=0.5))
            stacks.append(np.zeros((3, 76)))
        ((_, folded),) = simulator.draw_folded(cfgs, stacks, [[3, 3, 3]] * len(cfgs))
        assert folded[0].tobytes() == periods.reshape(3, 7, 4).tobytes()
        for c, stack, drawn in zip(cfgs[1:], stacks[1:], folded[1:]):
            assert drawn.tobytes() == np.stack([folded_row(c, p, 3) for p in stack]).tobytes()

    def test_seeds_are_read_block_by_block(self, monkeypatch):
        # two rows of one 28-sample period a block, over 5 rows
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", 56)
        read = []

        def seeds():
            for r in range(5):
                read.append(r)
                yield r

        cfg = config(order=7, periods=3, noise_sigma=0.5)
        draws = simulator.draw_folded([cfg], [np.zeros((5, 28))], [seeds()])
        for lo, expect in zip((0, 2, 4), ([0, 1], [0, 1, 2, 3], [0, 1, 2, 3, 4])):
            assert next(draws)[0] == lo
            assert read == expect
        assert next(draws, None) is None

    def test_each_config_scales_by_its_own_period_count(self):
        # one order-7 period folded over 2 and over 8 complete periods, on one
        # seed: each is the period plus sigma / sqrt(p) times the same normals
        cfgs = [config(order=7, periods=p, noise_sigma=0.4) for p in (2, 8)]
        period = np.random.default_rng(5).normal(size=28)
        stacks = [np.broadcast_to(period, (3, 28))] * 2
        ((_, folded),) = simulator.draw_folded(cfgs, stacks, [[11, 12, 13]] * 2)
        z = np.stack([np.random.default_rng(s).standard_normal(28) for s in (11, 12, 13)])
        for p, drawn in zip((2, 8), folded):
            noise = (drawn.reshape(3, 28) - period) * math.sqrt(p) / 0.4
            np.testing.assert_allclose(noise, z, rtol=1e-12, atol=1e-12)

    def test_an_overflowing_draw_gives_inf_unwarned(self):
        # 5 periods at sigma 1.7e308: a scale of 7.6e307, so normals beyond
        # about 2.36 overflow to inf, silently (any warning fails the test),
        # and no value is nan; 2000 rows hold hundreds of them
        cfg = config(order=7, periods=5, noise_sigma=1.7e308)
        ((_, (folded,)),) = simulator.draw_folded([cfg], [np.zeros((2000, 28))], [range(2000)])
        z = np.stack([np.random.default_rng(r).standard_normal(28) for r in range(2000)])
        overflows = np.abs(z) > np.finfo(float).max / (1.7e308 / math.sqrt(5))
        assert overflows.sum() > 500
        assert np.array_equal(np.isinf(folded).reshape(2000, 28), overflows)
        assert not np.isnan(folded).any()

    @pytest.mark.parametrize("p", [1, 9, 40])
    def test_noise_mean_and_variance_are_those_of_p_periods(self, p):
        # p complete periods of order 79 and 100 samples more: 2000 rows of
        # 316 values, each N(0, sigma^2 / p).  The sum of squares over
        # sigma^2 / p is chi-square with n = 632 000 degrees of freedom; its
        # two-sided 1e-6 quantiles, by the Wilson-Hilferty approximation,
        # are n (1 - 2 / (9 n) -+ 4.89 sqrt(2 / (9 n)))^3.  The mean is
        # N(0, sigma^2 / (p n)), inside 4.89 of its sd at the same level.
        sigma, rows = 0.7, 2000
        cfg = config(order=79, duration_s=(p * 316 + 100) / F_S, noise_sigma=sigma)
        periods = np.broadcast_to(np.zeros(316), (rows, 316))
        noise = np.concatenate(
            [f[0] for _, f in simulator.draw_folded([cfg], [periods], [range(rows)])]
        )
        n, var = noise.size, sigma**2 / p
        chi2 = float(np.square(noise).sum()) / var
        lo, hi = (n * (1 - 2 / (9 * n) + z * math.sqrt(2 / (9 * n))) ** 3 for z in (-4.89, 4.89))
        assert lo < chi2 < hi, (lo, chi2, hi)
        assert abs(noise.mean()) < 4.89 * math.sqrt(var / n)

    def test_draw_matches_the_period_mean_of_a_noisy_stream_in_distribution(self):
        # 400 folded draws against the average_periods of 400 explicit
        # streams, 5 periods of 28 samples and 9 more each, on independent
        # seeds: the two-sample Kolmogorov-Smirnov statistic of their
        # 11 200 noise values each must stay below its level-0.001 critical
        # value, 1.949 sqrt(2 / 11 200)
        rows = 400
        ph = phantom(extent=0.003)
        cfg = config(order=7, duration_s=(5 * 28 + 9) / F_S, noise_sigma=0.3)
        period = simulator.clean_period(cfg, ph)
        folded = np.concatenate([
            f[0] for _, f in simulator.draw_folded(
                [cfg], [np.broadcast_to(period, (rows, 28))],
                [(derive_seed(1, SCAN_SALT, r) for r in range(rows))],
            )
        ])
        streams = np.stack([
            demux.average_periods(
                simulator.stream_chunks(replace(cfg, seed=derive_seed(2, SCAN_SALT, r)), ph), cfg
            )
            for r in range(rows)
        ])
        clean = period.reshape(cfg.order, cfg.subsets_per_cycle)
        a, b = (folded - clean).ravel(), (streams - clean).ravel()
        assert ks_statistic(a, b) < 1.949 * math.sqrt((a.size + b.size) / (a.size * b.size))
        assert a.std() == pytest.approx(0.3 / math.sqrt(5), rel=0.05)


class TestStackedPeriods:
    @pytest.mark.parametrize("mode", ["coded", "single-pulse"])
    def test_stack_rows_equal_single_position_calls(self, mode):
        # off-axis positions on a (ny, nx) grid, including a fiber's own x
        cfg = config(mode, modulation_efficiency=0.7)
        ph = phantom()
        xs = np.array([-0.0075, -0.001, 0.0, 0.0023])
        ys = np.array([-0.002, 0.0, 0.0015])
        grid = np.stack(np.meshgrid(xs, ys), axis=-1)
        for f in (simulator.axial_profile, simulator.clean_period):
            stack = f(cfg, ph, grid)
            assert stack.shape == (ys.size, xs.size, cfg.period_samples)
            for iy, ix in np.ndindex(ys.size, xs.size):
                one = f(cfg, ph, (float(xs[ix]), float(ys[iy])))
                assert stack[iy, ix].tobytes() == one.tobytes()


class TestScan2d:
    def test_single_position_grid(self):
        ph = phantom()
        stack = simulator.scan_2d(config(), ph, ScanGrid(0.0, 0.0, 0.0, 0.0, 0.0005))
        assert stack.dtype == np.float64
        peaks = stack.max(axis=-1)
        assert peaks.shape == (1, 1)
        assert peaks[0, 0] == pytest.approx(1.0)

    def test_symmetric_phantom_gives_symmetric_map(self):
        ph = phantom()
        stack = simulator.scan_2d(config(), ph, ScanGrid(-0.006, 0.006, 0.0, 0.0, 0.002))
        row = stack.max(axis=-1)[0]
        np.testing.assert_allclose(row, row[::-1], rtol=1e-9)

    def test_noise_free_modes_give_identical_maps(self):
        ph = phantom()
        grid = ScanGrid(-0.004, 0.004, 0.0, 0.0, 0.002)
        mc = simulator.scan_2d(config("coded"), ph, grid)
        ms = simulator.scan_2d(config("single-pulse"), ph, grid)
        np.testing.assert_allclose(mc.max(axis=-1), ms.max(axis=-1), atol=1e-6)
        np.testing.assert_allclose(mc, ms, atol=1e-6)

    @pytest.mark.parametrize("solver_kind", ["spectral", "dense"])
    @pytest.mark.parametrize("mode", ["coded", "single-pulse"])
    def test_stack_equals_per_position_reconstruction_exactly(self, mode, solver_kind):
        ph = phantom()
        cfg = config(mode, periods=3, noise_sigma=0.2, seed=4)
        grid = ScanGrid(-0.002, 0.002, 0.0, 0.001, 0.001)
        stack = simulator.scan_2d(cfg, ph, grid, kind=solver_kind)
        xs, ys = grid.positions()
        expected = np.empty(stack.shape)
        for iy, y in enumerate(ys):
            for ix, x in enumerate(xs):
                period = simulator.clean_period(cfg, ph, (x, y))
                row = folded_row(cfg, period, derive_seed(cfg.seed, SCAN_SALT, iy, ix))
                expected[iy, ix] = reconstruct_profile(row, cfg, solver_kind)
        expected /= expected.max()
        assert stack.shape == (2, 5, cfg.period_samples)
        assert np.array_equal(stack, expected)
        assert np.array_equal(stack.max(axis=-1), expected.max(axis=-1))

    def test_position_seeds_are_traversal_independent(self):
        ph = phantom()
        cfg = config(noise_sigma=0.2, seed=9)
        a = simulator.scan_2d(cfg, ph, ScanGrid(-0.002, 0.002, 0.0, 0.0, 0.002))
        b = simulator.scan_2d(cfg, ph, ScanGrid(-0.002, 0.002, 0.0, 0.0, 0.002))
        np.testing.assert_array_equal(a, b)
