"""Cyclic binary multiplexing codes (S-sequences) of prime order N = 4m + 3.

Bit convention, fixed here once for the whole package: bit 0 is 1, bit j
(1 <= j < N) is 1 exactly when j is a quadratic residue mod N.  That puts
(N+1)/2 ones in the sequence and makes the circulant matrix S built from
it satisfy

    S @ S.T == ((N + 1) / 4) * (I + J)        (J = all-ones matrix)

in exact integer arithmetic.  Any cyclic shift of the sequence satisfies
the same identity, so correctness is defined by the identity, which is
re-checked at generation time, not by the particular tabulated pattern.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import InvalidOrder

MAX_ORDER = 1 << 20

# Full O(N^2) identity check is cheap up to here; above it generation
# falls back to row weight plus spot-checked cyclic autocorrelation.
_FULL_CHECK_MAX = 1024
_SPOT_CHECK_LAGS = 64


def is_prime(n: int) -> bool:
    """Deterministic trial-division primality test, exact for n <= 2**31."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


def validate_order(n: int) -> bool:
    """True iff n is a usable code order: prime and congruent to 3 mod 4."""
    return n >= 3 and n % 4 == 3 and is_prime(n)


def quadratic_residues(n: int) -> set[int]:
    """Set {k*k mod n : k = 1 .. (n-1)/2} for an odd prime n.

    Has exactly (n-1)/2 elements and never contains 0.
    """
    if n < 3 or n % 2 == 0 or not is_prime(n):
        raise InvalidOrder(f"quadratic residues need an odd prime, got {n}")
    return {pow(k, 2, n) for k in range(1, (n - 1) // 2 + 1)}


@dataclass(frozen=True)
class SSequence:
    """A length-N binary multiplexing code.

    bits is a uint8 array of 0s and 1s with Hamming weight (N+1)/2.
    """

    order: int
    bits: np.ndarray

    def __post_init__(self):
        bits = np.asarray(self.bits, dtype=np.uint8)
        object.__setattr__(self, "bits", bits)
        if bits.shape != (self.order,):
            raise InvalidOrder(
                f"bit count {bits.size} does not match order {self.order}"
            )
        if not np.all((bits == 0) | (bits == 1)):
            raise InvalidOrder("sequence entries must be 0 or 1")

    def __len__(self) -> int:
        return self.order

    @property
    def weight(self) -> int:
        """Number of ones; (N+1)/2 for a valid sequence."""
        return int(self.bits.sum())

    def shifted(self, k: int) -> "SSequence":
        """Cyclic shift by k positions; shifts stay valid codes."""
        return SSequence(self.order, np.roll(self.bits, k))

    def to_text(self) -> str:
        """Single-line text form ``"<order>:<bits>"``, e.g. ``"7:1110100"``."""
        return f"{self.order}:" + "".join("1" if b else "0" for b in self.bits)

    @classmethod
    def from_text(cls, text: str) -> "SSequence":
        head, _, body = text.strip().partition(":")
        try:
            order = int(head)
        except ValueError as exc:
            raise InvalidOrder(f"malformed sequence line: {text!r}") from exc
        if len(body) != order or set(body) - {"0", "1"}:
            raise InvalidOrder(f"malformed sequence line: {text!r}")
        return cls(order, np.frombuffer(body.encode(), dtype=np.uint8) - ord("0"))


def circulant_matrix(seq: SSequence) -> np.ndarray:
    """Dense int64 circulant whose row r is the sequence shifted right by r."""
    n = seq.order
    idx = (np.arange(n)[None, :] - np.arange(n)[:, None]) % n
    return seq.bits.astype(np.int64)[idx]


def s_matrix_identity_error(seq: SSequence) -> int:
    """Max absolute deviation of S @ S.T from ((N+1)/4)(I + J), exact ints."""
    n = seq.order
    s = circulant_matrix(seq)
    target = ((n + 1) // 4) * (np.eye(n, dtype=np.int64) + np.ones((n, n), np.int64))
    return int(np.abs(s @ s.T - target).max())


def _autocorrelation(bits: np.ndarray, lag: int) -> int:
    return int(np.dot(bits.astype(np.int64), np.roll(bits, lag).astype(np.int64)))


@functools.lru_cache(maxsize=64)
def generate_s_sequence(n: int) -> SSequence:
    """Generate the order-n sequence from the quadratic-residue construction.

    Self-validates: the full circulant identity is checked for n <= 1024,
    row weight and spot-checked autocorrelation above that.  Memoised per
    order, so every caller in the process shares one value; its ``bits``
    array is read-only (``shifted`` returns a fresh, writable copy).
    """
    if not validate_order(n):
        raise InvalidOrder(f"order must be a prime congruent to 3 mod 4, got {n}")
    if n > MAX_ORDER:
        raise InvalidOrder(f"order {n} exceeds the supported maximum {MAX_ORDER}")
    bits = np.zeros(n, dtype=np.uint8)
    bits[0] = 1
    bits[sorted(quadratic_residues(n))] = 1
    seq = SSequence(n, bits)

    if seq.weight != (n + 1) // 2:
        raise InvalidOrder(f"generated weight {seq.weight} != {(n + 1) // 2}")
    if n <= _FULL_CHECK_MAX:
        if s_matrix_identity_error(seq) != 0:
            raise InvalidOrder(f"order {n}: circulant identity check failed")
    else:
        # every off-zero cyclic autocorrelation must equal (N+1)/4
        rng = np.random.default_rng(n)
        lags = rng.integers(1, n, size=_SPOT_CHECK_LAGS)
        for lag in lags:
            if _autocorrelation(bits, int(lag)) != (n + 1) // 4:
                raise InvalidOrder(f"order {n}: autocorrelation check failed")
    seq.bits.setflags(write=False)
    return seq


def valid_orders(limit: int) -> list[int]:
    """All usable code orders up to and including limit."""
    return [n for n in range(3, limit + 1, 4) if validate_order(n)]
