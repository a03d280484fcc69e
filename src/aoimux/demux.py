"""Circulant system construction, inversion and stream demultiplexing.

The measurement matrix S has the code sequence as its first row and each
following row cyclically shifted right by one, i.e. S[r, c] =
bits[(c - r) mod N].  Applying S is then a circular convolution with the
index-reversed sequence, which gives two interchangeable solvers: a
dense LAPACK solve against the stored S (the reference) and an FFT
circular deconvolution (O(N log N) per frame, used for long streams).
The solver kind is one of ``SOLVER_KINDS``: "dense" or "spectral".

A stream, in memory or read in chunks, is demultiplexed in two steps:
``average_periods`` folds its chunks into the (N, K) mean of its
complete periods, N and K read from the stream's acquisition config,
and ``demultiplex_stream`` solves a stack of such frames at once.
``pipeline.reconstruct_profile`` runs both and the envelope extraction.
"""

from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .codes import SSequence, circulant_matrix
from .errors import (
    ConfigError,
    InsufficientSamples,
    LengthMismatch,
    NonFiniteSamples,
    OrderTooLarge,
    SingularSystem,
)

if TYPE_CHECKING:  # simulator imports demux
    from .simulator import AcquisitionConfig

_DENSE_MAX = 1024
SOLVER_KINDS = ("dense", "spectral")


@dataclass
class DepthProfile:
    """Reconstructed signal versus depth along the acoustic axis.

    values is one profile or a stack of them; depth runs along the last
    axis.
    """

    values: np.ndarray
    bin_width_m: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.bin_width_m <= 0:
            raise ConfigError("bin_width_m must be positive")

    def __len__(self) -> int:
        """Number of depth bins."""
        return self.values.shape[-1]

    @property
    def depths(self) -> np.ndarray:
        return np.arange(len(self)) * self.bin_width_m

    @property
    def span_m(self) -> float:
        return len(self) * self.bin_width_m


class CirculantSystem:
    """Immutable solver for S x = y; shareable across threads once built."""

    def __init__(self, sequence: SSequence, kind: str):
        if kind not in SOLVER_KINDS:
            raise ConfigError(f"solver kind must be one of {SOLVER_KINDS}, got {kind!r}")
        self.sequence = sequence
        self.order = sequence.order
        self.kind = kind
        # first column of S; S x is a circular convolution with it
        kernel = np.roll(sequence.bits[::-1], 1).astype(np.float64)
        spectrum = np.fft.rfft(kernel)
        mags = np.abs(spectrum)
        if mags.max() == 0.0 or mags.min() < 1e-9 * mags.max():
            raise SingularSystem(
                f"circulant spectrum of order {self.order} is numerically singular"
            )
        self._spectrum = spectrum
        self._dense = None
        if kind == "dense":
            self._dense = self.matrix().astype(np.float64)

    def matrix(self) -> np.ndarray:
        """Dense integer S, rows are successive right shifts of the sequence."""
        return circulant_matrix(self.sequence)

    @property
    def spectrum(self) -> np.ndarray:
        """DFT of the solving kernel; its DC term equals the row weight."""
        return self._spectrum

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Forward map y = S x (spectral, exact to rounding)."""
        x = np.asarray(x, dtype=np.float64)
        return np.fft.irfft(np.fft.rfft(x, axis=-1) * self._spectrum, n=self.order, axis=-1)

    def solve(self, y: np.ndarray) -> np.ndarray:
        return self.solve_many(np.asarray(y, dtype=np.float64)[None, :])[0]

    def solve_many(self, ys: np.ndarray) -> np.ndarray:
        """Solve S x = y for each row of ys, shape (..., N)."""
        ys = np.asarray(ys, dtype=np.float64)
        if ys.shape[-1] != self.order:
            raise LengthMismatch(
                f"frame length {ys.shape[-1]} != system order {self.order}"
            )
        if self.kind == "dense":
            # one LAPACK gesv over all frames: a single LU of S per call
            flat = ys.reshape(-1, self.order)
            sol = np.linalg.solve(self._dense, flat.T).T
            return sol.reshape(ys.shape)
        return np.fft.irfft(
            np.fft.rfft(ys, axis=-1) / self._spectrum, n=self.order, axis=-1
        )

    def condition_number(self) -> float:
        """Spectral 2-norm condition number (singular values of a circulant
        are the magnitudes of its eigenvalues).  The kernel is real, so the
        stored half spectrum holds every distinct magnitude."""
        mags = np.abs(self._spectrum)
        return float(mags.max() / mags.min())


def build_system(seq: SSequence, kind: str) -> CirculantSystem:
    """Build the solver for the given sequence; kind picks the inverse path."""
    return CirculantSystem(seq, kind)


def analytic_inverse_check(sys: CirculantSystem) -> float:
    """Max elementwise gap between the solver inverse and the closed form.

    The closed-form inverse of an order-N system is
    (2 / (N + 1)) * (2 S^T - J); it is multiplied back against S and
    checked against the identity before being used as the reference.
    """
    n = sys.order
    if n > _DENSE_MAX:
        raise OrderTooLarge(f"dense check limited to order {_DENSE_MAX}, got {n}")
    s = sys.matrix().astype(np.float64)
    closed = (2.0 / (n + 1)) * (2.0 * s.T - np.ones((n, n)))
    if np.abs(s @ closed - np.eye(n)).max() > 1e-9:
        raise SingularSystem("closed-form inverse failed the identity check")
    solver_inv = sys.solve_many(np.eye(n)).T  # column i solves S x = e_i
    return float(np.abs(solver_inv - closed).max())


def average_periods(chunks: Iterable[np.ndarray], cfg: AcquisitionConfig) -> np.ndarray:
    """Mean of the complete repetition periods of a chunked stream.

    Each chunk must start on a period boundary of ``cfg.order *
    cfg.subsets_per_cycle`` samples; the samples after its last complete
    period are discarded, so only the last chunk of a stream may end in
    a partial period.  The sum runs in period order: the previous sum is
    added into the first period of each chunk, which is then summed along
    the period axis.  That is the sum ``arr.mean(axis=0)`` forms over the
    whole (periods, N, K) array, so the mean equals it bit for bit
    whatever the chunk sizes.  The first period of every chunk but the
    first may be overwritten; ``average_periods([samples], cfg)`` folds
    an in-memory array and leaves it unmodified.

    Column j of the (N, K) frame is interleaved subset j (samples j,
    j + K, ...), so its row-major flattening is the period mean in time
    order: the depth signal of a single-pulse stream, which needs no
    inversion.  Raises InsufficientSamples without a complete period and
    NonFiniteSamples if a used sample is NaN or infinite; from the chunk
    where the sum stops being finite on, the bad samples are counted, so
    the message gives their exact number.
    """
    n, k = cfg.order, cfg.subsets_per_cycle
    samples = 0  # seen, including a trailing partial period
    periods = 0  # complete periods folded
    total: np.ndarray | None = None
    bad: int | None = None  # non-finite samples, once the sum is not finite
    for chunk in chunks:
        samples += chunk.size
        frames = chunk[: chunk.size - chunk.size % (n * k)].reshape(-1, n, k)
        if not frames.size:
            continue
        periods += frames.shape[0]
        if bad is not None:  # the sum is lost already: only count
            bad += _count_non_finite(frames)
            continue
        if total is not None:
            frames[0] += total
        total = frames.sum(axis=0)
        if not np.isfinite(total).all():
            bad = _count_non_finite(frames)
    if not periods:
        raise InsufficientSamples(f"{samples} samples < one period of {n * k}")
    if bad is not None:
        raise NonFiniteSamples(
            f"{bad} of {periods * n * k} samples in the "
            f"complete periods are NaN or infinite; the period mean is not finite"
        )
    return total / periods


def _count_non_finite(values: np.ndarray) -> int:
    return values.size - np.count_nonzero(np.isfinite(values))


def demultiplex_stream(sys: CirculantSystem, folded: np.ndarray) -> np.ndarray:
    """Depth signal of a stack of folded coded frames, (..., N, K) -> (..., N * K).

    One solve_many call covers every subset of every frame (one length-N
    frame per subset); the K subsets are merged back in time order, so
    index i * K + j comes from subset j, element i.  S is linear and
    exactly invertible, so solving the period mean equals averaging the
    per-period solutions; only the summation order differs.  Sample i of
    a result maps to depth i * c / f_s; it spans one code period, N T c.
    Frames folded at another order raise LengthMismatch.
    """
    solved = sys.solve_many(np.swapaxes(folded, -1, -2))  # (..., K, N)
    return np.swapaxes(solved, -1, -2).reshape(folded.shape[:-2] + (-1,))
