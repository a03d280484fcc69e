"""Seed derivation for reproducible, order-independent random streams.

Splitting rule: ``derive_seed(base, *salt)`` feeds the tuple
``(base, *salt)`` as entropy to ``numpy.random.SeedSequence`` and returns
the first uint64 word of its state.  The same inputs always produce the
same child seed, and distinct salts give statistically independent
streams, so trials, scan positions and modes can be generated in any
order without changing the results.  A child seed seeds its generator
as ``numpy.random.default_rng(seed)``.

The derivation is cached per process, since an SNR sweep derives the
same trial seeds once per order and mode.  The cache keeps the last
``SEED_CACHE_SIZE`` seeds; a sweep of more trials than that per order
and mode misses every time and hashes as often as without it.  The
cache holds only what numpy computed, so no result depends on it.
"""

from __future__ import annotations

import functools

import numpy as np

# salt tags used across the package
TRIAL_SALT = 1
SCAN_SALT = 2

# seeds the cache keeps: more trials than a sweep makes per order and mode
SEED_CACHE_SIZE = 1 << 13


@functools.lru_cache(maxsize=SEED_CACHE_SIZE)
def derive_seed(base: int, *salt: int) -> int:
    """Deterministic child seed for the given base seed and salt tuple."""
    ss = np.random.SeedSequence((int(base),) + tuple(int(s) for s in salt))
    return int(ss.generate_state(1, dtype=np.uint64)[0])
