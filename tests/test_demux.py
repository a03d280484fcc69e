"""Circulant solves: hand-checked inverses, round trips, noise propagation."""

import re

import numpy as np
import pytest

from aoimux import codes, config, demux, pipeline, simulator
from aoimux.errors import (
    ConfigError,
    InsufficientSamples,
    LengthMismatch,
    NonFiniteSamples,
    NonIntegerRatio,
    OrderTooLarge,
    SingularSystem,
)
from streams import F_S, F_US, acquisition, demux_of, fold, phantom, profile_of


def system(n, kind="dense"):
    return demux.build_system(codes.generate_s_sequence(n), kind)


def make_stream(samples, f_us=1.25e6, f_s=5e6, order=3, mode="coded"):
    """(samples, cfg): the samples as float64 and an acquisition of their length."""
    cfg = acquisition(mode, order, f_us=f_us, f_s=f_s, duration_s=len(samples) / f_s)
    return np.asarray(samples, float), cfg


def fold_cfg(n, k):
    """The smallest config whose period is n code elements of k samples."""
    return acquisition("single-pulse", n, f_s=k * 1.25e6, duration_s=0.0)


class TestBuildSystem:
    def test_order3_dense_inverse_hand_checked(self):
        # bits (1,1,0): S rows are right shifts; inverse worked out by hand
        sys3 = system(3)
        s = sys3.matrix()
        assert np.array_equal(s, np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]]))
        expected_inv = 0.5 * (2.0 * s.T - np.ones((3, 3)))
        assert np.abs(s.astype(float) @ expected_inv - np.eye(3)).max() < 1e-15
        solver_inv = sys3.solve_many(np.eye(3)).T
        assert np.abs(solver_inv - expected_inv).max() < 1e-12

    def test_spectral_dc_term_equals_row_weight(self):
        assert system(7, "spectral").spectrum[0] == pytest.approx(4.0)

    @pytest.mark.parametrize("n", [3, 7, 19, 79])
    def test_condition_number_vs_svd_oracle(self, n):
        sys_n = system(n)
        sv = np.linalg.svd(sys_n.matrix().astype(float), compute_uv=False)
        oracle = sv.max() / sv.min()
        assert sys_n.condition_number() == pytest.approx(oracle, rel=1e-10)
        # singular values of an S-matrix give exactly sqrt(N + 1)
        assert oracle == pytest.approx(np.sqrt(n + 1.0), rel=1e-10)

    def test_zero_sequence_is_singular(self):
        broken = np.zeros(3, dtype=np.uint8)
        with pytest.raises(SingularSystem):
            demux.build_system(broken, "dense")

    def test_kind_is_the_string_given(self):
        seq = codes.generate_s_sequence(7)
        assert demux.build_system(seq, "dense").kind == "dense"
        assert demux.build_system(seq, "spectral").kind == "spectral"

    def test_unknown_kind_is_a_config_error(self):
        with pytest.raises(ConfigError, match="solver kind must be one of"):
            demux.build_system(codes.generate_s_sequence(7), "fast")


class TestDemultiplexFrame:
    @pytest.mark.parametrize("kind", ["dense", "spectral"])
    def test_unit_impulse_round_trip(self, kind):
        sys7 = system(7, kind)
        for k in range(7):
            e = np.zeros(7)
            e[k] = 1.0
            y = sys7.apply(e)
            assert np.abs(sys7.solve(y) - e).max() < 1e-10

    @pytest.mark.parametrize("n", [3, 7, 79])
    def test_all_ones_rhs(self, n):
        # row sums are (N+1)/2, so x = 2/(N+1) * ones solves S x = ones;
        # verified by substitution before asserting on the solver
        sys_n = system(n)
        x_expected = np.full(n, 2.0 / (n + 1))
        assert np.abs(sys_n.matrix() @ x_expected - 1.0).max() < 1e-12
        x = sys_n.solve(np.ones(n))
        assert np.abs(x - x_expected).max() < 1e-12

    def test_random_round_trip_order79(self):
        sys79 = system(79)
        rng = np.random.default_rng(1)
        x = rng.random(79)
        y = sys79.apply(x)
        rec = sys79.solve(y)
        assert np.linalg.norm(rec - x) / np.linalg.norm(x) < 1e-9

    def test_round_trip_all_valid_orders_to_1024(self):
        rng = np.random.default_rng(2)
        for n in codes.valid_orders(1024):
            sys_n = system(n, "spectral")
            x = rng.random(n)
            rec = sys_n.solve(sys_n.apply(x))
            assert np.linalg.norm(rec - x) / np.linalg.norm(x) < 1e-9

    @pytest.mark.parametrize("n", [3, 7, 19, 79, 1019])
    def test_dense_spectral_agreement(self, n):
        seq = codes.generate_s_sequence(n)
        sd = demux.build_system(seq, "dense")
        ss = demux.build_system(seq, "spectral")
        rng = np.random.default_rng(n)
        y = rng.normal(size=n)
        xd, xs = sd.solve(y), ss.solve(y)
        assert np.linalg.norm(xd - xs) / np.linalg.norm(xd) < 1e-8

    def test_linearity(self):
        sys19 = system(19)
        rng = np.random.default_rng(3)
        y1, y2 = rng.normal(size=19), rng.normal(size=19)
        a, b = 2.5, -1.25
        lhs = sys19.solve(a * y1 + b * y2)
        rhs = a * sys19.solve(y1) + b * sys19.solve(y2)
        assert np.abs(lhs - rhs).max() < 1e-10

    def test_shift_equivariance(self):
        sys19 = system(19)
        rng = np.random.default_rng(4)
        y = rng.normal(size=19)
        shifted = sys19.solve(np.roll(y, 1))
        assert np.abs(shifted - np.roll(sys19.solve(y), 1)).max() < 1e-10

    @pytest.mark.parametrize(
        "call, value",
        [
            ("solve", np.ones(6)),
            ("apply", np.ones(6)),  # used to give a wrong 7-sample result
            ("apply", np.ones(8)),  # used to raise numpy's broadcast ValueError
            ("apply", np.ones((3, 8))),
            ("apply", np.float64(1.0)),  # 0-d values used to raise IndexError
            ("dense solve_many", np.float64(1.0)),
            ("spectral solve_many", np.float64(1.0)),
            ("extract_modulated", np.float64(1.0)),
        ],
    )
    def test_a_last_axis_that_is_missing_or_does_not_fit_raises(self, call, value):
        calls = {
            "solve": system(7).solve,
            "apply": system(7).apply,
            "dense solve_many": system(7).solve_many,
            "spectral solve_many": system(7, "spectral").solve_many,
            "extract_modulated": lambda v: pipeline.extract_modulated(v, F_US, F_S),
        }
        with pytest.raises(LengthMismatch):
            calls[call](value)


class TestAnalyticInverse:
    @pytest.mark.parametrize("n,budget", [(3, 1e-12), (7, 1e-12), (79, 1e-10)])
    def test_closed_form_gap(self, n, budget):
        assert demux.analytic_inverse_check(system(n)) < budget
        assert demux.analytic_inverse_check(system(n, "spectral")) < budget

    def test_order_too_large(self):
        with pytest.raises(OrderTooLarge):
            demux.analytic_inverse_check(system(1031, "spectral"))


class TestNoisePropagation:
    def test_output_noise_matches_inverse_row_norm(self):
        # 10^4 trials of pure input noise through the solver; per-bin std
        # must match sigma * ||row of S^-1|| = sigma * 2 sqrt(N)/(N+1)
        n = 31
        sys_n = system(n)
        sigma = 1.0
        rng = np.random.default_rng(5)
        sol = sys_n.solve_many(rng.normal(0.0, sigma, (10_000, n)))
        per_bin = sol.std(axis=0, ddof=1)
        predicted = sigma * 2.0 * np.sqrt(n) / (n + 1)
        inv = np.linalg.inv(sys_n.matrix().astype(float))
        assert np.linalg.norm(inv, axis=1) == pytest.approx(predicted, rel=1e-12)
        assert np.abs(per_bin / predicted - 1.0).max() < 0.05


class TestInterleaving:
    """A stream's complete periods reshape to (periods, N, K): frames[p, :, j]
    is the length-N frame of subset j (samples j, j + K, ...) in period p."""

    def test_twelve_samples_three_by_four(self):
        frames = np.arange(12.0).reshape(-1, 3, 4)
        assert frames.shape == (1, 3, 4)
        assert np.array_equal(frames[0, :, 0], [0.0, 4.0, 8.0])
        assert np.array_equal(frames[0, :, 3], [3.0, 7.0, 11.0])
        # one period folds to itself
        folded = demux.average_periods([np.arange(12.0)], fold_cfg(3, 4))
        assert np.array_equal(folded, frames[0])

    def test_subset_count_from_reference_rates(self):
        assert config.integer_ratio(5e6, 1.25e6) == 4

    def test_deinterleave_reinterleave_bijection(self):
        rng = np.random.default_rng(6)
        samples = rng.normal(size=7 * 4 * 5)  # five complete periods
        frames = samples.reshape(-1, 7, 4)
        for p in range(5):
            for j in range(4):
                start = p * 28 + j
                assert np.array_equal(frames[p, :, j], samples[start : start + 28 : 4])
        assert np.array_equal(frames.reshape(-1), samples)

    def test_insufficient_samples(self):
        with pytest.raises(InsufficientSamples, match="11 samples < one period of 12"):
            demux.average_periods([np.arange(11.0)], fold_cfg(3, 4))

    def test_trailing_partial_period_discarded(self):
        folded = demux.average_periods([np.arange(15.0)], fold_cfg(3, 4))
        assert np.array_equal(folded, np.arange(12.0).reshape(3, 4))


class TestDemultiplexStream:
    def _phantom(self):
        return phantom(mu_a=0.1, boundary=0.002, extent=0.03)

    def _cfg(self, mode, periods=3, order=79):
        return acquisition(mode, order, periods, seed=11)

    def test_round_trip_against_forward_model(self):
        ph = self._phantom()
        coded_cfg, single_cfg = self._cfg("coded"), self._cfg("single-pulse")
        coded = simulator.simulate_stream(coded_cfg, ph)
        single = simulator.simulate_stream(single_cfg, ph)
        sys79 = system(79, "spectral")
        prof = demux_of(sys79, coded, coded_cfg)
        truth = profile_of(single, single_cfg, extract=False)
        err = np.linalg.norm(prof - truth) / np.linalg.norm(truth)
        assert err < 1e-9

    def test_zero_stream_gives_zero_profile(self):
        stream = make_stream(np.zeros(79 * 4 * 2), order=79)
        prof = demux_of(system(79, "spectral"), *stream)
        assert np.abs(prof).max() == 0.0

    def test_code_period_span(self):
        # 79 elements of width c/f_us: 79 * 990 / 1.25e6 = 62.568 mm
        cfg = self._cfg("coded")
        samples = simulator.simulate_stream(cfg, self._phantom())
        signal = demux_of(system(79, "spectral"), samples, cfg)
        span_m = signal.shape[-1] * cfg.bin_width_m
        assert span_m == pytest.approx(79 * 990.0 / 1.25e6, rel=1e-12)
        assert span_m == pytest.approx(0.0626, abs=1e-4)
        assert cfg.bin_width_m == pytest.approx(990.0 / 5e6, rel=1e-12)

    def test_order_mismatch_raises(self):
        small = phantom(mu_a=0.1, boundary=0.002, extent=0.01)
        cfg = self._cfg("coded", order=19)
        samples = simulator.simulate_stream(cfg, small)
        with pytest.raises(LengthMismatch):
            demux_of(system(79, "spectral"), samples, cfg)

    def test_average_periods_needs_one_period(self):
        with pytest.raises(InsufficientSamples):
            fold(*make_stream(np.zeros(100), order=79, mode="single-pulse"))


class TestFoldThenSolve:
    """The stream path folds over periods and solves once; the explicit
    per-frame path (reshape to (periods, N, K), solve every frame, merge
    back in time order, average) is the reference."""

    @staticmethod
    def _per_frame_reference(sys_n, samples, n, k):
        periods = samples.size // (n * k)
        frames = samples[: periods * n * k].reshape(periods, n, k)
        solved = np.empty_like(frames)
        for p in range(periods):
            for j in range(k):
                solved[p, :, j] = sys_n.solve(frames[p, :, j])
        return solved.reshape(periods, n * k).mean(axis=0)

    @pytest.mark.parametrize("kind", ["dense", "spectral"])
    @pytest.mark.parametrize("n", [7, 79])
    def test_matches_per_frame_path(self, kind, n):
        k = 4
        rng = np.random.default_rng(n)
        # ten complete periods plus a trailing partial one
        samples = rng.normal(size=10 * n * k + n * k // 2)
        stream = make_stream(samples, order=n)
        sys_n = system(n, kind)
        reference = self._per_frame_reference(sys_n, samples, n, k)
        folded = demux_of(sys_n, *stream)
        assert folded.shape == reference.shape == (n * k,)
        err = np.abs(folded - reference).max() / np.abs(reference).max()
        assert err < 1e-12

    @pytest.mark.parametrize("kind", ["dense", "spectral"])
    def test_one_solve_of_k_rows(self, kind, monkeypatch):
        n, k = 7, 4
        calls = []
        original = demux.CirculantSystem.solve_many

        def counting(self, ys):
            calls.append(np.shape(ys))
            return original(self, ys)

        monkeypatch.setattr(demux.CirculantSystem, "solve_many", counting)
        stream = make_stream(np.random.default_rng(2).normal(size=10 * n * k), order=n)
        demux_of(system(n, kind), *stream)
        assert calls == [(k, n)]


class TestNonFiniteSamples:
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_coded_stream_raises(self, bad):
        samples = np.random.default_rng(4).normal(size=3 * 7 * 4)
        samples[33] = bad
        with pytest.raises(NonFiniteSamples, match="1 of 84 samples"):
            demux_of(system(7, "spectral"), *make_stream(samples, order=7))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_single_pulse_stream_raises(self, bad):
        samples = np.random.default_rng(5).normal(size=3 * 7 * 4)
        samples[[0, 50]] = bad
        stream = make_stream(samples, order=7, mode="single-pulse")
        with pytest.raises(NonFiniteSamples, match="2 of 84 samples"):
            fold(*stream)

    @pytest.mark.parametrize("periods_per_chunk", [1, 2])
    def test_finite_samples_whose_sum_overflows_raise_without_warning(self, periods_per_chunk):
        # two periods of 1e308 sum past the float64 range, in one chunk or
        # when the first period's sum goes into the second chunk; the
        # warnings filter of the suite turns any numpy warning into an error
        samples = np.full(56, 1e308)
        step = periods_per_chunk * 28
        chunks = [samples[i : i + step].copy() for i in range(0, 56, step)]
        expected = f"the sum of the {samples.size} samples in the complete periods overflowed"
        with pytest.raises(NonFiniteSamples, match=expected):
            demux.average_periods(chunks, fold_cfg(7, 4))

    def test_trailing_partial_period_is_not_checked(self):
        samples = np.zeros(2 * 7 * 4 + 5)
        samples[-1] = np.nan  # discarded with the partial period
        prof = demux_of(system(7, "spectral"), *make_stream(samples, order=7))
        assert np.isfinite(prof).all()


class TestAveragePeriods:
    """The fold over chunks equals arr.mean(axis=0) of the whole
    (periods, N, K) array bit for bit, whatever the chunk sizes."""

    @staticmethod
    def _chunks(samples, periods_per_chunk, period):
        step = periods_per_chunk * period
        return [samples[i : i + step].copy() for i in range(0, samples.size, step)]

    @pytest.mark.parametrize("periods_per_chunk", [1, 2, 3, 7, 64, 1000])
    def test_equals_whole_array_mean_exactly(self, periods_per_chunk):
        n, k = 7, 4
        rng = np.random.default_rng(periods_per_chunk)
        # 100 periods (no chunk size above divides it but 1 and 2) and a partial one
        samples = rng.normal(size=100 * n * k + 13) * 1e3
        reference = samples[: 100 * n * k].reshape(100, n, k).mean(axis=0)
        chunks = self._chunks(samples, periods_per_chunk, n * k)
        folded = demux.average_periods(chunks, fold_cfg(n, k))
        assert np.array_equal(folded, reference)

    def test_array_fold_leaves_its_input_untouched(self):
        samples = np.random.default_rng(1).normal(size=5 * 28)
        before = samples.copy()
        demux.average_periods([samples], fold_cfg(7, 4))
        assert np.array_equal(samples, before)

    def test_nan_in_a_later_chunk_counts_every_bad_sample(self):
        n, k = 7, 4
        samples = np.random.default_rng(2).normal(size=10 * n * k + 5)
        samples[[3 * 28 + 1, 3 * 28 + 2]] = np.nan  # chunk 2 of 2-period chunks
        samples[9 * 28 + 27] = np.inf  # the last complete period
        samples[-1] = np.nan  # the trailing partial period is not used
        with pytest.raises(NonFiniteSamples, match="3 of 280 samples"):
            demux.average_periods(self._chunks(samples, 2, n * k), fold_cfg(n, k))

    @pytest.mark.parametrize("shape", [(2, 56), (1, 56), (56, 1), ()])
    @pytest.mark.parametrize("after_a_period", [False, True])
    def test_a_chunk_that_is_not_1d_raises(self, shape, after_a_period):
        # a stack of two streams is not read as consecutive periods of one,
        # nor a column or a scalar as samples, first chunk or later
        chunks = [np.zeros(28)] * after_a_period + [np.zeros(shape)]
        with pytest.raises(LengthMismatch, match=rf"1-D, got shape {re.escape(str(shape))}"):
            demux.average_periods(chunks, fold_cfg(7, 4))

    def test_no_complete_period_raises(self):
        with pytest.raises(InsufficientSamples, match="27 samples < one period of 28"):
            demux.average_periods([np.zeros(20), np.zeros(7)], fold_cfg(7, 4))

    def test_order_and_subsets_must_be_positive(self):
        # the fold reads N and K from a config, which rules out both below 1
        with pytest.raises(ConfigError, match="order must be a positive integer"):
            fold_cfg(0, 4)
        for k in (0.4, 2.5):  # K below 1 or not an integer
            with pytest.raises(NonIntegerRatio, match="is not a natural number"):
                fold_cfg(7, k)
