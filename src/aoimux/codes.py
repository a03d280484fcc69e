"""Cyclic binary multiplexing codes (S-sequences) of prime order N = 4m + 3.

A code is a plain 1-D uint8 array of 0s and 1s, its order N its size.
generate_s_sequence returns one, memoised and read-only; every public
function that takes a code, here or in demux and fileio, checks it
through check_bits.

Bit convention, fixed here once for the whole package: bit 0 is 1, bit j
(1 <= j < N) is 1 exactly when j is a quadratic residue mod N.  That puts
(N+1)/2 ones in the sequence and makes the circulant matrix S built from
it satisfy

    S @ S.T == ((N + 1) / 4) * (I + J)        (J = all-ones matrix)

in exact integer arithmetic.  So does any cyclic shift of it: generation
checks for this construction, s_matrix_identity_error for the identity.

Entry (r, c) of S @ S.T is the cyclic autocorrelation of the bits at lag
c - r, so the identity holds exactly when lag 0 equals (N+1)/2 and every
other lag equals (N+1)/4.  Generation proves all N lags at every order in
O(N) time by the multiplier argument for quadratic-residue difference
sets (L. D. Baumert, Cyclic Difference Sets, LNM 182, 1971).  Let q
generate the nonzero squares mod N: its multiplicative order is (N-1)/2.
If bits[q j mod N] == bits[j] for every j, every lag has c[q l] = c[l],
so c is constant on the squares; N = 3 mod 4 makes -1 a non-square, and
c[-l] = c[l] carries that value to the non-squares.  So the weight, lag
0, and the count of adjacent ones, lag 1, decide every lag, both exact
integer counts.  The check reads the bits in blocks of 2**16 and traces
a peak under 1.1 MB at N = 1 048 571, about its one N-byte temporary.

One table answers "is N a usable order?" for validate_order, check_order
and valid_orders alike: a sieve of the candidates 3, 7, 11, ... up to
MAX_ORDER, built once on first use.  Every order outside it is rejected
in O(1), however large.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import InvalidOrder

MAX_ORDER = 1 << 20


@functools.cache
def _order_table() -> np.ndarray:
    """Read-only bool table of the usable orders up to MAX_ORDER.

    Slot (n - 3) / 4 holds n = 3, 7, 11, ...; it is True exactly when n
    is prime.  A sieve: a multiple m * p of an odd p is 3 mod 4 for every
    fourth odd m, so striking it for m > 1 steps 4 p through n, p slots
    through the table.  Every odd p up to sqrt(MAX_ORDER) strikes;
    composite p only repeat their factors' strikes.  Built on first use
    (262 144 slots), so importing the package does not pay for it.
    """
    usable = np.ones((MAX_ORDER - 3) // 4 + 1, dtype=bool)
    for p in range(3, math.isqrt(MAX_ORDER) + 1, 2):
        first = (5 if p % 4 == 3 else 3) * p  # smallest m * p > p that is 3 mod 4
        usable[(first - 3) // 4 :: p] = False
    usable.setflags(write=False)
    return usable


def validate_order(n: int) -> bool:
    """True iff n is a usable code order: a prime congruent to 3 mod 4, at most MAX_ORDER."""
    return 3 <= n <= MAX_ORDER and n % 4 == 3 and bool(_order_table()[(n - 3) // 4])


def check_order(n: int) -> None:
    """Raise InvalidOrder unless n is a usable order no larger than MAX_ORDER."""
    if n > MAX_ORDER:
        raise InvalidOrder(f"order {n} exceeds the supported maximum {MAX_ORDER}")
    if not validate_order(n):
        raise InvalidOrder(f"order must be a prime congruent to 3 mod 4, got {n}")


def valid_orders(limit: int) -> list[int]:
    """All usable code orders up to and including min(limit, MAX_ORDER), ascending."""
    if limit < 3:
        return []
    return (np.flatnonzero(_order_table()[: (limit - 3) // 4 + 1]) * 4 + 3).tolist()


def check_bits(code: np.ndarray) -> np.ndarray:
    """The code as a 1-D uint8 array of 0s and 1s; InvalidOrder otherwise.

    Every public function that takes a code checks it here.  The entries
    are checked in their own dtype: a cast to uint8 first would wrap 257
    to 1 and truncate 1.5 to 1.  A uint8 array is returned as it is.
    """
    bits = np.asarray(code)
    if bits.ndim != 1:
        raise InvalidOrder(f"bits must be one-dimensional, got shape {bits.shape}")
    if not bits.size:
        raise InvalidOrder("a code needs at least one entry")
    if not np.all((bits == 0) | (bits == 1)):
        raise InvalidOrder("sequence entries must be 0 or 1")
    return bits.astype(np.uint8, copy=False)


def circulant_view(code: np.ndarray, dtype: np.dtype | type) -> np.ndarray:
    """Read-only (N, N) view of S, entry (r, c) = code[(c - r) % N].

    Row r is the window ext[N - r : 2N - r] of the code written out
    twice in ``dtype``, so the view holds 2 N values, not N**2.
    """
    bits = check_bits(code)
    n = bits.size
    ext = np.concatenate([bits, bits], dtype=dtype)
    return np.lib.stride_tricks.sliding_window_view(ext, n)[n:0:-1]


def circulant_matrix(code: np.ndarray) -> np.ndarray:
    """Dense int64 circulant whose row r is the code shifted right by r.

    A contiguous copy of ``circulant_view``: the one N**2 array it allocates.
    """
    return circulant_view(code, np.int64).copy()


_LAG_BLOCK = 1 << 16  # entries of S that one block of lags reads


def s_matrix_identity_error(code: np.ndarray) -> int:
    """Max absolute deviation of S @ S.T from ((N+1)/4)(I + J), exact ints.

    Its entries are the N cyclic lags, each a row of the int64
    ``circulant_view`` times the bits, taken a block of about
    ``_LAG_BLOCK`` entries of S at a time: O(N) memory, and no code shared
    with generation's multiplier check.  Unlike that check it accepts
    every code that meets the identity, cyclic shifts included: it is
    the general exact checker.
    """
    s = circulant_view(code, np.int64)
    n, bits = len(s), s[0]
    rows = max(1, _LAG_BLOCK // n)
    lags = np.concatenate([s[r : r + rows] @ bits for r in range(0, n, rows)])
    target = np.full(n, (n + 1) // 4)
    target[0] *= 2  # the diagonal, I + J
    return int(np.abs(lags - target).max())


def _square_generator(n: int) -> int:
    """A generator q of the nonzero squares mod n: q has multiplicative order (n-1)/2.

    q = g**2 mod n for the first g = 2, 3, ... (a primitive root does)
    with q**h == 1 and q**(h / d) != 1 for every divisor d > 1 of
    h = (n - 1) / 2, listed by trial division to sqrt(h) < 1024.  h is
    odd, so -1 is no power of q, and the h powers of q and their
    negatives are n - 1 distinct units: n is prime.  Raises InvalidOrder
    when no such q exists, so when n is not a prime congruent to 3 mod 4.
    """
    h = (n - 1) // 2
    if n >= 3 and n % 4 == 3:
        small = [d for d in range(3, math.isqrt(h) + 1, 2) if h % d == 0]
        divisors = {h, *small, *(h // d for d in small)} - {1}
        for g in range(2, n):
            q = g * g % n
            if pow(q, h, n) == 1 and all(pow(q, h // d, n) != 1 for d in divisors):
                return q
    raise InvalidOrder(f"order must be a prime congruent to 3 mod 4, got {n}")


def _check_identity(bits: np.ndarray) -> None:
    """Raise InvalidOrder unless the uint8 bits are the quadratic-residue construction.

    Checks the weight and lag 1, then bits[q j mod N] == bits[j] for the
    generator q of the squares, which the module docstring shows proves
    S @ S.T == ((N+1)/4)(I + J).  Invariant bits of the right weight w
    have lag 1 = w (w - 1) / (N - 1) anyway; lag 1 comes first so that a
    sequence failing the identity is reported as such.  A cyclic shift
    meets the identity but fails the multiplier check, with its own
    message: this validates generation only.
    """
    n = bits.size
    q = _square_generator(n)
    lag1 = np.count_nonzero(bits[:-1] & bits[1:]) + int(bits[-1] & bits[0])
    if np.count_nonzero(bits) != (n + 1) // 2 or lag1 != (n + 1) // 4:
        raise InvalidOrder(f"order {n}: circulant identity check failed")
    block = 1 << 16
    for lo in range(0, n, block):
        j = np.arange(lo, min(lo + block, n), dtype=np.int64)
        j *= q
        j %= n
        if not np.array_equal(bits[j], bits[lo:lo + j.size]):
            raise InvalidOrder(
                f"order {n}: bits are not invariant under the multiplier {q}, "
                "so they are not the quadratic-residue construction"
            )


@functools.lru_cache(maxsize=64)
def generate_s_sequence(n: int) -> np.ndarray:
    """Generate the order-n sequence from the quadratic-residue construction.

    Self-validates at every order: the multiplier check proves all N
    cyclic autocorrelation lags, hence every entry of the circulant
    identity, exact in O(N) time.
    Returns the 1-D uint8 bits, memoised per order: every caller in the
    process shares one read-only array.
    """
    check_order(n)
    bits = np.zeros(n, dtype=np.uint8)
    bits[0] = 1
    k = np.arange(1, (n - 1) // 2 + 1, dtype=np.int64)
    k *= k
    k %= n
    bits[k] = 1
    del k  # 4 MB at MAX_ORDER, not held through the check
    _check_identity(bits)
    bits.setflags(write=False)
    return bits
