"""Seeding: the cached hash equals numpy's, and no result depends on it.

``derive_seed`` must be a fresh ``SeedSequence`` hash, whether or not the
seed is cached; a sweep derives each trial seed once per order and mode
but hashes it once per process.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aoimux import config, pipeline, simulator
from aoimux.config import parse_run_config
from aoimux.seeding import TRIAL_SALT, derive_seed
from streams import CONFIGS


class TestDeriveSeed:
    @pytest.mark.parametrize("base", [2**32, 2**32 + 7, 2**63, 2**64 - 1, 2**80 + 3])
    @pytest.mark.parametrize("salt", [(TRIAL_SALT, 0), (TRIAL_SALT, 4999, 2), (2, 5, 6, 2**40)])
    def test_equals_a_fresh_seed_sequence(self, base, salt):
        expect = int(np.random.SeedSequence((base, *salt)).generate_state(1, np.uint64)[0])
        derive_seed.cache_clear()
        assert derive_seed(base, *salt) == expect  # hashed by this call
        assert derive_seed(base, *salt) == expect  # from the cache

    @settings(max_examples=60, deadline=None, database=None)
    @given(st.lists(st.integers(0, 2**70), min_size=1, max_size=4))
    def test_equals_a_fresh_seed_sequence_on_any_words(self, words):
        expect = int(np.random.SeedSequence(words).generate_state(1, np.uint64)[0])
        assert derive_seed(*words) == expect
        assert derive_seed(*words) == expect  # from the cache

    @pytest.mark.parametrize("args", [(-1, TRIAL_SALT, 0), (7, TRIAL_SALT, -3), (-(2**64),)])
    def test_negative_seed_raises_every_time(self, args):
        for _ in range(2):  # a failed hash is not cached
            with pytest.raises(ValueError, match="non-negative"):
                derive_seed(*args)


@pytest.fixture(scope="module")
def quick():
    run = parse_run_config(CONFIGS / "quick.cfg")
    return run.acquisition, run.phantom, run


class TestCacheIndependence:
    def test_sweep_cold_equals_warm(self, quick):
        cfg, ph, run = quick
        plan = config.SweepPlan(orders=run.sweep.orders, n_trials=6)
        derive_seed.cache_clear()
        cold = pipeline.multiplexing_advantage(cfg, ph, plan)
        warm = pipeline.multiplexing_advantage(cfg, ph, plan)
        assert all((c == w).all() for c, w in zip(cold, warm))

    def test_lone_measure_snr_before_and_after_a_sweep(self, quick):
        cfg, ph, run = quick
        derive_seed.cache_clear()
        before = pipeline.measure_snr(cfg, ph, 5)
        pipeline.multiplexing_advantage(cfg, ph, config.SweepPlan(orders=(7, 79), n_trials=9))
        after = pipeline.measure_snr(cfg, ph, 5)
        assert (before == after).all()

    def test_scan_cold_equals_warm(self, quick):
        cfg, ph, run = quick
        derive_seed.cache_clear()
        cold = simulator.scan_2d(cfg, ph, run.scan)
        warm = simulator.scan_2d(cfg, ph, run.scan)
        assert np.array_equal(cold, warm)

    @pytest.mark.parametrize("n", [2, 5])
    def test_sweep_hashes_each_trial_seed_once(self, quick, n):
        cfg, ph, _ = quick
        derive_seed.cache_clear()
        pipeline.multiplexing_advantage(cfg, ph, config.SweepPlan(orders=(7, 19), n_trials=n))
        # 2 orders x 2 modes derive n seeds each, one per trial; the noise-free
        # reference is reconstructed apart and derives none
        assert derive_seed.cache_info().misses == n
        assert derive_seed.cache_info().hits == 3 * n
