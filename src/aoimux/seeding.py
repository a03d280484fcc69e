"""Seed derivation for reproducible, order-independent random streams.

Splitting rule: ``derive_seed(base, *salt)`` feeds the tuple
``(base, *salt)`` as entropy to ``numpy.random.SeedSequence`` and returns
the first uint64 word of its state.  The same inputs always produce the
same child seed, and distinct salts give statistically independent
streams, so trials, scan positions and modes can be generated in any
order (or in parallel) without changing the results.

``generator(seed)`` is ``numpy.random.default_rng(seed)``, bit for bit:
the four uint64 words that ``SeedSequence(seed)`` hands ``PCG64`` are
computed by numpy and passed to ``PCG64`` unchanged.

Both hashes are cached per process, since an SNR sweep derives the same
trial seeds, and seeds the same generators, once per order and mode.
Each cache keeps its last ``SEED_CACHE_SIZE`` seeds; together they hold
about 450 B per seed, so at most about 4 MB.  A sweep of more trials
than that per order and mode misses every time and hashes as often as
without the caches.  A cache holds only what numpy computed, so no
result depends on what is cached.
"""

from __future__ import annotations

import functools

import numpy as np

# salt tags used across the package
TRIAL_SALT = 1
SCAN_SALT = 2

# seeds each cache keeps: more trials than a sweep makes per order and mode
SEED_CACHE_SIZE = 1 << 13


@functools.lru_cache(maxsize=SEED_CACHE_SIZE)
def derive_seed(base: int, *salt: int) -> int:
    """Deterministic child seed for the given base seed and salt tuple."""
    ss = np.random.SeedSequence((int(base),) + tuple(int(s) for s in salt))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@functools.lru_cache(maxsize=SEED_CACHE_SIZE)
def _seed_words(seed: int) -> np.ndarray:
    """The read-only state words ``PCG64(seed)`` seeds itself from."""
    words = np.random.SeedSequence(seed).generate_state(4, np.uint64)
    words.flags.writeable = False
    return words


@functools.cache
def _cached_seed_sequence() -> type:
    """The ``ISeedSequence`` that hands ``PCG64`` a seed's cached words.

    Made on first use, so that importing this module loads no
    ``numpy.random``.
    """
    from numpy.random.bit_generator import ISeedSequence

    class CachedSeedSequence(ISeedSequence):
        def __init__(self, seed: int):
            self.seed = seed

        def generate_state(self, n_words, dtype=np.uint32):
            if n_words == 4 and np.dtype(dtype) == np.uint64:
                return _seed_words(self.seed)
            return np.random.SeedSequence(self.seed).generate_state(n_words, dtype)

    return CachedSeedSequence


def generator(seed: int) -> np.random.Generator:
    """``np.random.default_rng(seed)``, bit for bit, from the cached words
    of the seed's ``SeedSequence``."""
    return np.random.Generator(np.random.PCG64(_cached_seed_sequence()(seed)))
