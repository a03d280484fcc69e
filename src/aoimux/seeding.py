"""Seed derivation for reproducible, order-independent random streams.

Splitting rule: ``derive_seed(base, *salt)`` feeds the tuple
``(base, *salt)`` as entropy to ``numpy.random.SeedSequence`` and returns
the first uint64 word of its state.  The same inputs always produce the
same child seed, and distinct salts give statistically independent
streams, so trials, scan positions and modes can be generated in any
order without changing the results.  A child seed seeds its generator
as ``numpy.random.default_rng(seed)``.

The derivation is cached per process, since an SNR sweep derives the
same trial seeds once per order and mode.  ``simulator.draw_folded``
reads them a block of trials at a time, for every order and mode in
turn, so the cache need only hold one block's seeds, however many
trials the sweep makes: each trial's seed misses once and hits for
every other order and mode (10 000 misses and 70 000 hits for a
10 000-trial sweep of four orders in two modes).  The cache holds only
what numpy computed, so no result depends on it.
"""

from __future__ import annotations

import functools

import numpy as np

# salt tags used across the package
TRIAL_SALT = 1
SCAN_SALT = 2

# seeds the cache keeps: more than the trials of one folded-draw block
SEED_CACHE_SIZE = 1 << 13


@functools.lru_cache(maxsize=SEED_CACHE_SIZE)
def derive_seed(base: int, *salt: int) -> int:
    """Deterministic child seed for the given base seed and salt tuple."""
    ss = np.random.SeedSequence((int(base),) + tuple(int(s) for s in salt))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
