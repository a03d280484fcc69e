"""Forward model: waveforms, fluence kernel, stream synthesis, scans."""

import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aoimux import codes, demux, simulator
from aoimux.config import parse_run_config
from aoimux.errors import (
    ConfigError,
    InsufficientSamples,
    InvalidOrder,
    NonIntegerRatio,
    OutOfDomain,
)
from aoimux.seeding import SCAN_SALT, derive_seed
from aoimux.simulator import ScanGrid
from streams import profile_of

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

F_US = 1.25e6
F_S = 5e6
C = 990.0
BIN = C / F_S


def phantom(boundary=0.002, extent=0.03, mu_a=0.05, separation=0.015):
    half = separation / 2
    return simulator.Phantom(
        mu_s_prime_per_cm=15.0,
        mu_a_per_cm=mu_a,
        src_x_m=-half,
        det_x_m=half,
        boundary_z_m=boundary,
        depth_extent_m=extent,
    )


def config(mode="coded", order=79, periods=2, **kw):
    k = round(F_S / F_US)
    defaults = dict(
        f_us=F_US,
        f_s=F_S,
        c=C,
        mode=mode,
        order=order,
        duration_s=periods * order * k / F_S,
        seed=0,
    )
    defaults.update(kw)
    return simulator.AcquisitionConfig(**defaults)


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
            simulator.integer_ratio(f_s, f_us)


class TestFluence:
    def test_mirrored_axis_positions_match(self):
        ph = phantom()
        zs = np.linspace(ph.boundary_z_m, ph.boundary_z_m + ph.depth_extent_m, 64)
        left = simulator.fluence_profile(ph, zs, axis_xy=(-0.003, 0.0))
        right = simulator.fluence_profile(ph, zs, axis_xy=(0.003, 0.0))
        np.testing.assert_allclose(left, right, rtol=1e-12)
        up = simulator.fluence_profile(ph, zs, axis_xy=(0.0, 0.002))
        down = simulator.fluence_profile(ph, zs, axis_xy=(0.0, -0.002))
        np.testing.assert_allclose(up, down, rtol=1e-12)

    def test_absorption_steepens_decay(self):
        zs = np.linspace(0.002, 0.032, 200)
        weak = simulator.fluence_profile(phantom(mu_a=0.02), zs)
        strong = simulator.fluence_profile(phantom(mu_a=1.0), zs)
        # both normalized to peak 1; the absorbing phantom must fall off faster
        assert strong[-1] < weak[-1]
        assert np.all(strong[50:] <= weak[50:] + 1e-15)

    def test_peak_location_against_dense_oracle(self):
        # independent evaluation of the kernel product on a dense grid
        ph = phantom(mu_a=0.05)
        zs = np.linspace(ph.boundary_z_m, ph.boundary_z_m + ph.depth_extent_m, 4001)
        mu_eff = np.sqrt(3.0 * ph.mu_a_per_cm * ph.mu_s_prime_per_cm) * 100.0
        lt = 1.0 / (ph.mu_s_prime_per_cm * 100.0)
        d1 = np.maximum(np.hypot(0.0075, zs - (ph.boundary_z_m + lt)), lt)
        d2 = d1  # midpoint axis, symmetric geometry
        oracle = np.exp(-mu_eff * (d1 + d2)) / (d1 * d2)
        prof = simulator.fluence_profile(ph, zs, axis_xy=(0.0, 0.0))
        np.testing.assert_allclose(prof, oracle / oracle.max(), rtol=1e-10)
        # peak sits one transport length below the boundary plane
        assert zs[np.argmax(prof)] == pytest.approx(ph.boundary_z_m + lt, abs=2e-5)

    def test_fluence_scale_cache_matches_uncached(self):
        ph = phantom()
        assert simulator.fluence_scale(ph) == simulator.fluence_scale.__wrapped__(ph)

    def test_out_of_domain_raises(self):
        ph = phantom()
        with pytest.raises(OutOfDomain):
            simulator.fluence_profile(ph, np.array([ph.boundary_z_m - 0.001]))
        with pytest.raises(OutOfDomain):
            simulator.fluence_profile(
                ph, np.array([ph.boundary_z_m + ph.depth_extent_m + 0.001])
            )


class TestSimulateStream:
    def test_delta_phantom_gives_shifted_pulse(self):
        # phantom thinner than one bin -> a single occupied fine bin k;
        # the stream must be x_k times the time-reversed pulse footprint
        k_bin = 100
        ph = phantom(boundary=k_bin * BIN, extent=0.4 * BIN)
        cfg = config("single-pulse", periods=3)
        x = simulator.axial_profile(cfg, ph)
        assert np.count_nonzero(x) == 1 and x[k_bin] > 0
        stream = simulator.simulate_stream(cfg, ph)
        w = simulator.pulse_waveform(F_US, F_S)
        period = cfg.period_samples
        expected_one = np.zeros(period)
        for u, wu in enumerate(w):
            expected_one[(k_bin - u) % period] = x[k_bin] * wu
        expected = np.tile(expected_one, 3)
        np.testing.assert_allclose(stream.samples, expected, atol=1e-12)

    def test_coded_frames_satisfy_circulant_equation(self):
        # independent oracle: the windowed source vector for subset j is
        # x~_j[q] = sum_v x[qK + j + v] w[v];  frames must equal S @ x~_j
        order, k = 7, 4
        ph = phantom(boundary=0.0002, extent=0.004)
        cfg = config("coded", order=order, periods=2)
        stream = simulator.simulate_stream(cfg, ph)
        x = simulator.axial_profile(cfg, ph)
        w = simulator.pulse_waveform(F_US, F_S)
        s = codes.circulant_matrix(codes.generate_s_sequence(order)).astype(float)
        frames = stream.samples.reshape(-1, order, k)  # frames[p, :, j]: subset j
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
        n = noisy.samples.size
        reps = -(-1_000_000 // n)
        residuals = []
        for r in range(reps):
            s = simulator.simulate_stream(replace(cfg, seed=123 + r), ph)
            residuals.append(s.samples - quiet.samples)
        resid = np.concatenate(residuals)[:1_000_000]
        assert resid.std(ddof=1) == pytest.approx(0.37, rel=0.02)

    def test_seed_determinism_bit_identical(self):
        ph = phantom()
        cfg = config("coded", noise_sigma=0.5, seed=42)
        a = simulator.simulate_stream(cfg, ph)
        b = simulator.simulate_stream(cfg, ph)
        assert np.array_equal(a.samples, b.samples)

    def test_noise_drawn_in_chunks_equals_one_shot_draw(self):
        # two full stream chunks plus a partial one
        chunk = simulator.CHUNK_SAMPLES
        cfg = config(order=7, periods=-(-(2 * chunk + 1) // 28), noise_sigma=0.5, seed=9)
        assert cfg.n_samples > 2 * simulator.chunk_length(cfg.period_samples)
        ph = phantom(extent=0.003)
        quiet = simulator.simulate_stream(replace(cfg, noise_sigma=0.0), ph)
        noisy = simulator.simulate_stream(cfg, ph)
        draw = np.random.default_rng(9).normal(0.0, 0.5, cfg.n_samples)
        assert np.array_equal(noisy.samples, quiet.samples + draw)

    def test_stream_chunks_in_small_chunks_equal_one_shot_draw(self, monkeypatch):
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

    def test_in_place_draw_keeps_every_bit_of_the_period(self):
        # -0.0 and a partial last period: a noisy row is period + normal bit
        # for bit, and a row without noise is the period repeated, sign of zero
        # included
        periods = np.array([[-0.0, 0.0, 1.5], [-0.0, -2.0, 3.0]])
        out = np.full((2, 8), np.nan)
        simulator._draw(out, periods, [np.random.default_rng(3), None], 0.25)
        noisy = np.resize(periods[0], 8) + np.random.default_rng(3).normal(0.0, 0.25, 8)
        assert out[0].tobytes() == noisy.tobytes()
        assert out[1].tobytes() == np.resize(periods[1], 8).tobytes()

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
        whole = simulator.simulate_stream(cfg, ph).samples
        assert np.array_equal(np.concatenate(gathered), whole)
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", 1 << 16)
        assert np.array_equal(simulator.simulate_stream(cfg, ph).samples, whole)

    def test_chunk_is_never_shorter_than_one_period(self, monkeypatch):
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", 1)
        assert simulator.chunk_length(316) == 316
        assert simulator.chunk_length(1) == 1

    def test_distinct_seeds_differ(self):
        ph = phantom()
        a = simulator.simulate_stream(config(noise_sigma=0.5, seed=1), ph)
        b = simulator.simulate_stream(config(noise_sigma=0.5, seed=2), ph)
        assert not np.array_equal(a.samples, b.samples)

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
        coded = simulator.simulate_stream(config("coded", order=order), ph)
        single = simulator.simulate_stream(config("single-pulse", order=order), ph)
        pc = profile_of(coded)
        ps = profile_of(single)
        err = np.linalg.norm(pc.values - ps.values) / np.linalg.norm(ps.values)
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


class TestFoldStreams:
    """fold_streams folds each row as its own stream, bit for bit."""

    @pytest.mark.parametrize("chunk_samples", [1, 100, 1 << 16])
    @pytest.mark.parametrize("sigma", [0.0, 0.3])
    def test_each_row_equals_its_stream_folded_alone(self, monkeypatch, chunk_samples, sigma):
        # 9 periods of 28 and a partial one; row 1 draws no noise
        n = 9 * 28 + 5
        cfg = config(order=7, duration_s=n / F_S, noise_sigma=sigma)
        periods = np.random.default_rng(1).normal(size=(3, 28))
        seeds = [5, None, 7]
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", chunk_samples)
        folded = simulator.fold_streams(cfg, periods, seeds)
        for period, seed, row in zip(periods, seeds, folded):
            stream = np.resize(period, n)
            if seed is not None:
                stream = stream + np.random.default_rng(seed).normal(0.0, sigma, n)
            assert np.array_equal(row, demux.average_periods([stream], cfg))

    def test_no_complete_period_raises(self):
        cfg = config(order=7, duration_s=27 / F_S, noise_sigma=0.5)
        with pytest.raises(InsufficientSamples, match="27 samples < one period of 28"):
            simulator.fold_streams(cfg, np.zeros((2, 28)), [1, 2])

    def test_fewer_seeds_than_rows_raises(self, monkeypatch):
        # one row a group, so the seeds run out in the last group only
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", 1)
        monkeypatch.setattr(simulator, "usable_cpus", lambda: 1)
        cfg = config(order=7, duration_s=56 / F_S, noise_sigma=0.5)
        with pytest.raises(ValueError, match="3 rows but 2 seeds"):
            simulator.fold_streams(cfg, np.zeros((3, 28)), [1, 2])

    def test_no_rows_give_the_empty_stack(self):
        cfg = config(order=7, duration_s=56 / F_S, noise_sigma=0.5)
        folded = simulator.fold_streams(cfg, np.zeros((0, 28)), [])
        assert folded.shape == (0, 7, cfg.subsets_per_cycle)


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
        res = simulator.scan_2d(config(), ph, ScanGrid(0.0, 0.0, 0.0, 0.0, 0.0005))
        assert res.peak_map.shape == (1, 1)
        assert res.peak_map[0, 0] == pytest.approx(1.0)

    def test_symmetric_phantom_gives_symmetric_map(self):
        ph = phantom()
        res = simulator.scan_2d(config(), ph, ScanGrid(-0.006, 0.006, 0.0, 0.0, 0.002))
        row = res.peak_map[0]
        np.testing.assert_allclose(row, row[::-1], rtol=1e-9)

    def test_noise_free_modes_give_identical_maps(self):
        ph = phantom()
        grid = ScanGrid(-0.004, 0.004, 0.0, 0.0, 0.002)
        mc = simulator.scan_2d(config("coded"), ph, grid)
        ms = simulator.scan_2d(config("single-pulse"), ph, grid)
        np.testing.assert_allclose(mc.peak_map, ms.peak_map, atol=1e-6)
        np.testing.assert_allclose(mc.stack, ms.stack, atol=1e-6)

    @pytest.mark.parametrize("solver_kind", ["spectral", "dense"])
    @pytest.mark.parametrize("mode", ["coded", "single-pulse"])
    def test_stack_equals_per_position_reconstruction_exactly(self, mode, solver_kind):
        ph = phantom()
        cfg = config(mode, periods=3, noise_sigma=0.2, seed=4)
        res = simulator.scan_2d(
            cfg, ph, ScanGrid(-0.002, 0.002, 0.0, 0.001, 0.001), kind=solver_kind
        )
        expected = np.empty(res.stack.shape)
        for iy, y in enumerate(res.ys):
            for ix, x in enumerate(res.xs):
                pos_cfg = replace(cfg, seed=derive_seed(cfg.seed, SCAN_SALT, iy, ix))
                stream = simulator.simulate_stream(pos_cfg, ph, axis_xy=(x, y))
                expected[iy, ix] = profile_of(stream, solver_kind).values
        expected /= expected.max()
        assert res.stack.shape == (2, 5, cfg.period_samples)
        assert np.array_equal(res.stack, expected)
        assert np.array_equal(res.peak_map, expected.max(axis=-1))

    def test_position_seeds_are_traversal_independent(self):
        ph = phantom()
        cfg = config(noise_sigma=0.2, seed=9)
        a = simulator.scan_2d(cfg, ph, ScanGrid(-0.002, 0.002, 0.0, 0.0, 0.002))
        b = simulator.scan_2d(cfg, ph, ScanGrid(-0.002, 0.002, 0.0, 0.0, 0.002))
        np.testing.assert_array_equal(a.stack, b.stack)
