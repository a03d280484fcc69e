"""Circulant system construction, inversion and stream demultiplexing.

The measurement matrix S has the code sequence as its first row and each
following row cyclically shifted right by one, i.e. S[r, c] =
bits[(c - r) mod N].  Applying S is then a circular convolution with the
index-reversed sequence, which gives two interchangeable solvers: a
dense LAPACK solve against the stored S (the reference) and an FFT
circular deconvolution (O(N log N) per frame, used for long streams).
The solver kind is one of ``SOLVER_KINDS``: "dense" or "spectral".

A stream, a 1-D float64 array in memory or its chunks read from a file,
is demultiplexed in two steps: ``average_periods`` folds its chunks
into the (N, K) mean of its complete periods, N and K read from the
``config.AcquisitionConfig`` that made the stream, and
``demultiplex_stream`` solves a stack of such frames at once.  Scan
positions and Monte-Carlo trials make no stream:
``simulator.draw_folded`` draws their period means directly.
``pipeline.reconstruct_profile`` runs the solve and the envelope
extraction.
"""

from __future__ import annotations

import math
from collections.abc import Iterable

import numpy as np

from .codes import check_bits, circulant_matrix, circulant_view, s_matrix_identity_error
from .config import AcquisitionConfig
from .errors import (
    ConfigError,
    InsufficientSamples,
    LengthMismatch,
    NonFiniteSamples,
    OrderTooLarge,
    SingularSystem,
)

_DENSE_MAX = 1024
SOLVER_KINDS = ("dense", "spectral")
# Values per block of the stack loops of the spectral solve and of
# pipeline.extract_modulated: 128 kB of float64, a cache-sized scratch.
BLOCK_SAMPLES = 1 << 14


class CirculantSystem:
    """Immutable solver for S x = y; shareable across threads once built.

    The dense solver stores S as ``codes.circulant_view``, a read-only
    strided view over 2 N floats; LAPACK's copy of it, made per solve,
    is the one N**2 array.
    """

    def __init__(self, code: np.ndarray, kind: str):
        if kind not in SOLVER_KINDS:
            raise ConfigError(f"solver kind must be one of {SOLVER_KINDS}, got {kind!r}")
        self.bits = check_bits(code)
        self.order = self.bits.size
        self.kind = kind
        # first column of S; S x is a circular convolution with it
        kernel = np.roll(self.bits[::-1], 1).astype(np.float64)
        spectrum = np.fft.rfft(kernel)
        mags = np.abs(spectrum)
        if mags.max() == 0.0 or mags.min() < 1e-9 * mags.max():
            raise SingularSystem(
                f"circulant spectrum of order {self.order} is numerically singular"
            )
        self._spectrum = spectrum
        self._dense = None
        if kind == "dense":
            self._dense = circulant_view(self.bits, np.float64)

    def matrix(self) -> np.ndarray:
        """Dense integer S, rows are successive right shifts of the code."""
        return circulant_matrix(self.bits)

    @property
    def spectrum(self) -> np.ndarray:
        """DFT of the solving kernel; its DC term equals the row weight."""
        return self._spectrum

    def _frames(self, ys) -> np.ndarray:
        """ys read as float64 frames, (..., N); a last axis that is missing
        or is not the system order raises LengthMismatch."""
        ys = np.asarray(ys, dtype=np.float64)
        if ys.shape[-1:] != (self.order,):
            length = ys.shape[-1] if ys.ndim else "none"
            raise LengthMismatch(f"frame length {length} != system order {self.order}")
        return ys

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Forward map y = S x of frames x, (..., N) (spectral, exact to rounding)."""
        x = self._frames(x)
        return np.fft.irfft(np.fft.rfft(x, axis=-1) * self._spectrum, n=self.order, axis=-1)

    def solve(self, y: np.ndarray) -> np.ndarray:
        """Solve S x = y for one frame y, as solve_many solves it."""
        return self.solve_many(y)

    def solve_many(self, ys: np.ndarray) -> np.ndarray:
        """Solve S x = y for each row of ys, shape (..., N).

        The dense solver makes one LAPACK gesv over all frames, a single
        LU of S per call.  The spectral one works through blocks of
        ys's first axis, about BLOCK_SAMPLES values each, so its scratch
        does not grow with the stack, and writes into one result laid
        out in memory as ys is: a view with swapped axes swaps back
        without a copy.  Each row equals the row solved alone, bit for
        bit, whatever the stack size.
        """
        ys = self._frames(ys)
        if self.kind == "dense":
            flat = ys.reshape(-1, self.order)
            sol = np.linalg.solve(self._dense, flat.T).T
            return sol.reshape(ys.shape)
        out = np.empty_like(ys)
        xs, sol = (ys, out) if ys.ndim > 1 else (ys[None], out[None])
        step = max(1, BLOCK_SAMPLES // max(1, math.prod(xs.shape[1:])))
        for start in range(0, len(xs), step):
            spectrum = np.fft.rfft(xs[start : start + step], axis=-1)
            spectrum /= self._spectrum
            sol[start : start + step] = np.fft.irfft(spectrum, n=self.order, axis=-1)
        return out

    def condition_number(self) -> float:
        """Spectral 2-norm condition number (singular values of a circulant
        are the magnitudes of its eigenvalues).  The kernel is real, so the
        stored half spectrum holds every distinct magnitude."""
        mags = np.abs(self._spectrum)
        return float(mags.max() / mags.min())


def build_system(code: np.ndarray, kind: str) -> CirculantSystem:
    """Build the solver for the given code; kind picks the inverse path."""
    return CirculantSystem(code, kind)


def analytic_inverse_check(sys: CirculantSystem) -> float:
    """Max elementwise gap between the solver inverse and the closed form.

    The closed-form inverse of an order-N system is
    (2 / (N + 1)) * (2 S^T - J).  It is S's inverse exactly when
    S S^T = ((N + 1) / 4)(I + J), which ``codes.s_matrix_identity_error``
    checks in exact integers; SingularSystem is raised otherwise.  The
    gap is formed in place on the solver's inverse, so the check holds
    two N**2 arrays at most.
    """
    n = sys.order
    if n > _DENSE_MAX:
        raise OrderTooLarge(f"dense check limited to order {_DENSE_MAX}, got {n}")
    if s_matrix_identity_error(sys.bits) != 0:
        raise SingularSystem("closed-form inverse failed the identity check")
    gap = sys.solve_many(np.eye(n))  # row i solves S x = e_i: column i of the inverse
    # minus the closed form's transpose, (2 / (N + 1)) * (2 S - J)
    gap -= (4.0 / (n + 1)) * circulant_view(sys.bits, np.float64)
    gap += 2.0 / (n + 1)
    return float(np.abs(gap, out=gap).max())


def average_periods(chunks: Iterable[np.ndarray], cfg: AcquisitionConfig) -> np.ndarray:
    """Mean of the complete repetition periods of a chunked stream, (N, K).

    Chunks are 1-D; any other shape raises LengthMismatch before it is
    folded.  Each chunk must start on a period boundary of
    ``cfg.order * cfg.subsets_per_cycle`` samples; the samples after its
    last complete period are discarded, so only the last chunk may end
    in a partial period.  The sum runs in period order: the previous sum
    is added into the first period of each chunk, which is then summed
    along the period axis.  That is the sum ``arr.mean(axis=0)`` forms
    over the whole (periods, N, K) array, so the mean equals it bit for
    bit whatever the chunk sizes.  The first period of every chunk but
    the first may be overwritten; ``average_periods([samples], cfg)``
    folds an in-memory array and leaves it unmodified.

    Column j of the (N, K) frame is interleaved subset j (samples j,
    j + K, ...), so its row-major flattening is the period mean in time
    order: the depth signal of a single-pulse stream, which needs no
    inversion.  Raises InsufficientSamples without a complete period and
    NonFiniteSamples if a used sample is NaN or infinite; from the chunk
    where the sum stops being finite on, the bad samples are counted, so
    the message gives their exact number.  A sum of finite samples that
    overflows raises NonFiniteSamples too, saying so, and emits no
    warning.
    """
    n, k = cfg.order, cfg.subsets_per_cycle
    samples = 0  # seen, including a trailing partial period
    periods = 0  # complete periods folded
    total: np.ndarray | None = None
    bad: int | None = None  # non-finite samples, once the sum is not finite
    for chunk in chunks:
        if chunk.ndim != 1:
            raise LengthMismatch(f"stream chunks must be 1-D, got shape {chunk.shape}")
        m = chunk.size
        samples += m
        frames = chunk[: m - m % (n * k)].reshape(-1, n, k)
        if not frames.size:
            continue
        periods += len(frames)
        if bad is not None:  # the sum is lost already: only count
            bad += _count_non_finite(frames)
            continue
        untouched, bad_first = frames, 0
        with np.errstate(over="ignore", invalid="ignore"):  # a lost sum is reported below
            if total is not None:  # into the first period, once its own samples are counted
                untouched, bad_first = frames[1:], _count_non_finite(frames[0])
                frames[0] += total
            total = frames.sum(axis=0)
        if not np.isfinite(total).all():
            bad = bad_first + _count_non_finite(untouched)
    if not periods:
        raise InsufficientSamples(f"{samples} samples < one period of {n * k}")
    if bad == 0:
        raise NonFiniteSamples(
            f"the sum of the {periods * total.size} samples in the complete periods "
            f"overflowed, though every one is finite; the period mean is not finite"
        )
    if bad is not None:
        raise NonFiniteSamples(
            f"{bad} of {periods * total.size} samples in the "
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
    Frames folded at another order raise LengthMismatch.  The spectral
    solve lays its result out as folded, so swapping the axes back and
    flattening them copies nothing: the stack path holds the frames,
    one result of their size and one block of solver scratch.
    """
    solved = sys.solve_many(np.swapaxes(folded, -1, -2))  # (..., K, N)
    return np.swapaxes(solved, -1, -2).reshape(folded.shape[:-2] + (-1,))
