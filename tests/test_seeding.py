"""Seeding: the cached hashes equal numpy's, and no result depends on them.

``seeding.generator(s)`` must be ``default_rng(s)`` bit for bit, and
``derive_seed`` a fresh ``SeedSequence`` hash, whether or not the seed's
hashes are cached; a sweep derives each trial seed once per order and
mode but hashes it once per process, and seeds its generator once.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoimux import pipeline, seeding, simulator
from aoimux.config import parse_run_config
from aoimux.seeding import TRIAL_SALT, derive_seed, generator

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1]


def clear_caches():
    derive_seed.cache_clear()
    seeding._seed_words.cache_clear()


def assert_same_generator(seed: int, draws: int) -> None:
    ours, numpys = generator(seed), np.random.default_rng(seed)
    assert ours.bit_generator.state == numpys.bit_generator.state
    assert np.array_equal(ours.standard_normal(draws), numpys.standard_normal(draws))


class TestGenerator:
    @pytest.mark.parametrize("seed", EDGE_SEEDS)
    def test_equals_default_rng_cold_and_warm(self, seed):
        clear_caches()
        assert_same_generator(seed, 10_000)  # words hashed by this call
        assert_same_generator(seed, 10_000)  # words from the cache

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.integers(0, 2**64 - 1))
    def test_equals_default_rng_on_any_seed(self, seed):
        assert_same_generator(seed, 100)

    def test_cached_words_are_read_only(self):
        words = seeding._seed_words(12345)
        assert not words.flags.writeable
        with pytest.raises(ValueError):
            words[0] = 0
        assert words is seeding._seed_words(12345)

    def test_other_state_sizes_are_hashed_fresh(self):
        seq = seeding._cached_seed_sequence()(99)
        expect = np.random.SeedSequence(99).generate_state(3, np.uint32)
        assert np.array_equal(seq.generate_state(3), expect)


class TestDeriveSeed:
    @pytest.mark.parametrize("base", [2**32, 2**32 + 7, 2**63, 2**64 - 1, 2**80 + 3])
    @pytest.mark.parametrize("salt", [(TRIAL_SALT, 0), (TRIAL_SALT, 4999, 2), (2, 5, 6, 2**40)])
    def test_equals_a_fresh_seed_sequence(self, base, salt):
        expect = int(np.random.SeedSequence((base, *salt)).generate_state(1, np.uint64)[0])
        clear_caches()
        assert derive_seed(base, *salt) == expect  # hashed by this call
        assert derive_seed(base, *salt) == expect  # from the cache

    @pytest.mark.parametrize("args", [(-1, TRIAL_SALT, 0), (7, TRIAL_SALT, -3), (-(2**64),)])
    def test_negative_seed_raises_every_time(self, args):
        for _ in range(2):  # a failed hash is not cached
            with pytest.raises(ValueError, match="non-negative"):
                derive_seed(*args)

    def test_negative_generator_seed_raises_as_default_rng_does(self):
        with pytest.raises(ValueError, match="non-negative"):
            np.random.default_rng(-1)
        for _ in range(2):
            with pytest.raises(ValueError, match="non-negative"):
                generator(-1)


@pytest.fixture(scope="module")
def quick():
    run = parse_run_config(CONFIGS / "quick.cfg")
    return run.acquisition, run.phantom, run


class TestCacheIndependence:
    def test_sweep_cold_equals_warm(self, quick):
        cfg, ph, run = quick
        plan = pipeline.SweepPlan(orders=run.sweep.orders, n_trials=6)
        clear_caches()
        cold = pipeline.multiplexing_advantage(cfg, ph, plan)
        warm = pipeline.multiplexing_advantage(cfg, ph, plan)
        assert cold == warm

    def test_lone_measure_snr_before_and_after_a_sweep(self, quick):
        cfg, ph, run = quick
        clear_caches()
        before = pipeline.measure_snr(cfg, ph, 5)
        pipeline.multiplexing_advantage(cfg, ph, pipeline.SweepPlan(orders=(7, 79), n_trials=9))
        after = pipeline.measure_snr(cfg, ph, 5)
        assert before == after

    def test_scan_cold_equals_warm(self, quick):
        cfg, ph, run = quick
        clear_caches()
        cold = simulator.scan_2d(cfg, ph, run.scan)
        warm = simulator.scan_2d(cfg, ph, run.scan)
        assert np.array_equal(cold.stack, warm.stack)

    @pytest.mark.parametrize("n", [2, 5])
    def test_sweep_hashes_each_trial_seed_once(self, quick, n):
        cfg, ph, _ = quick
        clear_caches()
        pipeline.multiplexing_advantage(cfg, ph, pipeline.SweepPlan(orders=(7, 19), n_trials=n))
        # 2 orders x 2 modes derive n seeds each; the reference row draws nothing,
        # and each trial's generator is seeded once for all four
        assert derive_seed.cache_info().misses == n
        assert derive_seed.cache_info().hits == 3 * n
        assert seeding._seed_words.cache_info().misses == n
        assert seeding._seed_words.cache_info().hits == 0
