"""Cyclic binary multiplexing codes (S-sequences) of prime order N = 4m + 3.

Bit convention, fixed here once for the whole package: bit 0 is 1, bit j
(1 <= j < N) is 1 exactly when j is a quadratic residue mod N.  That puts
(N+1)/2 ones in the sequence and makes the circulant matrix S built from
it satisfy

    S @ S.T == ((N + 1) / 4) * (I + J)        (J = all-ones matrix)

in exact integer arithmetic.  Any cyclic shift of the sequence satisfies
the same identity, so correctness is defined by the identity, which is
re-checked at generation time, not by the particular tabulated pattern.

Entry (r, c) of S @ S.T is the cyclic autocorrelation of the bits at lag
c - r, so the identity holds exactly when lag 0 equals (N+1)/2 and every
other lag equals (N+1)/4.  Generation checks all N lags at every order
with a blocked FFT autocorrelation: FFTs of 2**16-bit blocks plus one
multiply-add per block pair and frequency (136 pairs at MAX_ORDER), and
rounding to integers only after a guard that no lag is 1/4 or more away
from an integer.  Its memory is the spectrum table of 16 N bytes and
little more: the check traces a peak of 22.0 MB at N = 1 048 571, 1.31
times its 16.8 MB table.

One table answers "is N a usable order?" for validate_order, check_order
and valid_orders alike: a sieve of the candidates 3, 7, 11, ... up to
MAX_ORDER, built once on first use.  Every order outside it is rejected
in O(1), however large.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidOrder

MAX_ORDER = 1 << 20

# Block length of the autocorrelation check; the (blocks, _BLOCK + 1)
# complex128 spectrum table is 16.8 MB at MAX_ORDER.
_BLOCK = 1 << 16


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


@dataclass(frozen=True)
class SSequence:
    """A length-N binary multiplexing code.

    bits is a one-dimensional uint8 array of 0s and 1s with Hamming
    weight (N+1)/2; the order N is its length.
    """

    bits: np.ndarray

    def __post_init__(self):
        # checked in their own dtype: a cast to uint8 first would wrap 257
        # to 1 and truncate 1.5 to 1.  A uint8 code, as generation makes,
        # is checked by its maximum: the three N-sized bool temporaries of
        # the general test stay resident after they are freed, and raise
        # the peak RSS of gen-code 1048571 by 0.7 MB.
        bits = np.asarray(self.bits)
        if bits.ndim != 1:
            raise InvalidOrder(f"bits must be one-dimensional, got shape {bits.shape}")
        if bits.dtype == np.uint8:
            binary = bits.max(initial=0) <= 1
        else:
            binary = np.all((bits == 0) | (bits == 1))
        if not binary:
            raise InvalidOrder("sequence entries must be 0 or 1")
        object.__setattr__(self, "bits", bits.astype(np.uint8, copy=False))

    @property
    def order(self) -> int:
        """The code length N."""
        return self.bits.size

    def __len__(self) -> int:
        return self.order

    @property
    def weight(self) -> int:
        """Number of ones; (N+1)/2 for a valid sequence."""
        return int(self.bits.sum())

    def shifted(self, k: int) -> "SSequence":
        """Cyclic shift by k positions; shifts stay valid codes."""
        return SSequence(np.roll(self.bits, k))

    def to_text(self) -> str:
        """Single-line text form ``"<order>:<bits>"``, e.g. ``"7:1110100"``."""
        return f"{self.order}:" + (self.bits + ord("0")).tobytes().decode("ascii")

    @classmethod
    def from_text(cls, text: str) -> "SSequence":
        head, _, body = text.strip().partition(":")
        try:
            order = int(head)
        except ValueError as exc:
            raise InvalidOrder(f"malformed sequence line: {text!r}") from exc
        if len(body) != order or set(body) - {"0", "1"}:
            raise InvalidOrder(f"malformed sequence line: {text!r}")
        return cls(np.frombuffer(body.encode(), dtype=np.uint8) - ord("0"))


def circulant_view(seq: SSequence, dtype: np.dtype | type) -> np.ndarray:
    """Read-only (N, N) view of S, entry (r, c) = bits[(c - r) % N].

    Row r is the window ext[N - r : 2N - r] of the sequence written out
    twice in ``dtype``, so the view holds 2 N values, not N**2.
    """
    n = seq.order
    ext = np.concatenate([seq.bits, seq.bits], dtype=dtype)
    return np.lib.stride_tricks.sliding_window_view(ext, n)[n:0:-1]


def circulant_matrix(seq: SSequence) -> np.ndarray:
    """Dense int64 circulant whose row r is the sequence shifted right by r.

    A contiguous copy of ``circulant_view``: the one N**2 array it allocates.
    """
    return circulant_view(seq, np.int64).copy()


def s_matrix_identity_error(seq: SSequence) -> int:
    """Max absolute deviation of S @ S.T from ((N+1)/4)(I + J), exact ints.

    Its entries are the N cyclic lags, each a direct int64 dot product:
    O(N) memory, and no code shared with generation's FFT check.
    """
    n = seq.order
    bits = seq.bits.astype(np.int64)
    lags = np.fromiter((bits @ np.roll(bits, -lag) for lag in range(n)), np.int64, n)
    target = np.full(n, (n + 1) // 4)
    target[0] *= 2  # the diagonal, I + J
    return int(np.abs(lags - target).max())


def _cyclic_autocorrelation(bits: np.ndarray) -> np.ndarray:
    """Exact int32 lags c[l] = sum_j bits[j] * bits[(j + l) % N], l = 0 .. N-1.

    The bits are cut into blocks of _BLOCK; each block's rfft, zero-padded
    to twice the block, fills one row of a preallocated table.  Blocks i
    and i + d together give the linear lags d*B - B + 1 .. d*B + B - 1, so
    one irfft per block offset d yields a run of lags.  Linear lag m adds
    to c[m] and, for m > 0, to c[N - m] (the pairs that wrap around), and
    c[l] == c[N - l]; so the runs are summed into the lags 0 .. N // 2
    alone, each straight from the rounded irfft, and the other half is
    their mirror, made once the table is freed.
    """
    n = bits.size
    block = min(_BLOCK, n)
    n_blocks = -(-n // block)
    table = np.empty((n_blocks, block + 1), dtype=np.complex128)
    for i in range(n_blocks):
        table[i] = np.fft.rfft(bits[i * block:(i + 1) * block], 2 * block)
    acc = np.empty(block + 1, dtype=np.complex128)
    prod = np.empty_like(acc)
    r_int = prod.view(np.float64)[:2 * block]  # prod's bytes, free once acc is summed
    half = n // 2
    lags = np.zeros(half + 1, dtype=np.int32)
    for d in range(n_blocks):
        acc[:] = 0
        for i in range(n_blocks - d):
            np.conjugate(table[i], out=prod)
            prod *= table[i + d]
            acc += prod
        r = np.fft.irfft(acc, 2 * block)
        np.rint(r, out=r_int)
        r -= r_int
        off = np.abs(r, out=r).max()
        del r  # freed before the next irfft allocates its output
        if off >= 0.25:
            raise InvalidOrder(f"order {n}: FFT autocorrelation is not near an integer")
        # lag t of this block pair, t in (-B, B), is linear lag d*B + t and
        # sits at r_int[t % 2B]: its t < 0 part at 2B + t, its t >= 0 part at t
        for t_lo, t_hi, at in ((1 - block, 0, 2 * block), (0, block, 0)):
            m_lo, m_hi = d * block + t_lo, d * block + t_hi
            shift = at - d * block  # r_int index of linear lag m is m + shift
            lo, hi = max(m_lo, 0), min(m_hi, half + 1)  # c[m]
            if lo < hi:
                dest = lags[lo:hi]
                np.add(dest, r_int[lo + shift:hi + shift], out=dest, casting="unsafe")
            lo, hi = max(m_lo, n - half), min(m_hi, n)  # c[N - m]
            if lo < hi:
                dest = lags[n - hi + 1:n - lo + 1]
                np.add(dest, r_int[lo + shift:hi + shift][::-1], out=dest, casting="unsafe")
    del table, acc, prod, r_int
    return np.concatenate([lags, lags[n - half - 1:0:-1]])


def _check_identity(seq: SSequence) -> None:
    """Raise InvalidOrder unless S @ S.T == ((N+1)/4)(I + J) exactly."""
    n = seq.order
    lags = _cyclic_autocorrelation(seq.bits)
    if lags[0] != (n + 1) // 2 or np.any(lags[1:] != (n + 1) // 4):
        raise InvalidOrder(f"order {n}: circulant identity check failed")


@functools.lru_cache(maxsize=64)
def generate_s_sequence(n: int) -> SSequence:
    """Generate the order-n sequence from the quadratic-residue construction.

    Self-validates at every order: all N cyclic autocorrelation lags,
    hence every entry of the circulant identity, are checked exactly.
    Memoised per order, so every caller in the process shares one value;
    its ``bits`` array is read-only (``shifted`` returns a fresh, writable
    copy).
    """
    check_order(n)
    bits = np.zeros(n, dtype=np.uint8)
    bits[0] = 1
    k = np.arange(1, (n - 1) // 2 + 1, dtype=np.int64)
    k *= k
    k %= n
    bits[k] = 1
    del k  # 4 MB at MAX_ORDER, not held through the check
    seq = SSequence(bits)
    _check_identity(seq)
    seq.bits.setflags(write=False)
    return seq
