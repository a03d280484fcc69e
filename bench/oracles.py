"""Correctness oracles over the files the CLI writes.

Each oracle returns None when the output is right and a one-line reason
when it is not.  They read files with numpy alone, so a defect in the
package's own readers cannot hide a defect in its writers.

numpy is imported inside the oracles that need it and files are compared
in chunks: the parent process must stay small while it starts children, because
a child's ru_maxrss includes the memory high-water mark of the process it
was forked from.
"""

from __future__ import annotations

import math
from pathlib import Path

_CHUNK = 1 << 20

# Measured SNR gains scatter around the exact value with a relative
# standard error of about 1.1 / sqrt(trials): each gain is a ratio of two
# noise-std estimates taken over Rayleigh-distributed envelope samples.
# Seven over sqrt(trials) is a band of about six standard errors.
GAIN_BAND_PER_ROOT_TRIAL = 7.0


def same_files(ref: Path, out: Path) -> str | None:
    """The two directories hold the same file names with identical bytes."""
    ref_names = sorted(p.name for p in ref.iterdir())
    out_names = sorted(p.name for p in out.iterdir())
    if ref_names != out_names:
        return f"{out.name}: files {out_names} differ from first run {ref_names}"
    for name in ref_names:
        if same_bytes(ref / name, out / name):
            return f"{out.name}/{name} differs from the first run with the same seed"
    return None


def same_bytes(a: Path, b: Path) -> str | None:
    with open(a, "rb") as fa, open(b, "rb") as fb:
        while True:
            chunk = fa.read(_CHUNK)
            if chunk != fb.read(_CHUNK):
                return f"{b} is not byte-identical to {a}"
            if not chunk:
                return None


def _profile(path: Path):
    import numpy as np

    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def profiles_close(a: Path, b: Path, rtol: float) -> str | None:
    """Same depth grid, amplitudes within rtol of the larger profile peak."""
    import numpy as np

    pa, pb = _profile(a), _profile(b)
    if pa.shape != pb.shape or not np.array_equal(pa[:, 0], pb[:, 0]):
        return f"{b} and {a} have different depth grids"
    scale = max(np.abs(pa[:, 1]).max(), np.abs(pb[:, 1]).max())
    gap = np.abs(pa[:, 1] - pb[:, 1]).max()
    if not gap <= rtol * scale:
        return f"{b} differs from {a} by {gap / scale:.2e} of the peak (limit {rtol})"
    return None


def sequence_identity(path: Path, order: int) -> str | None:
    """The written code parses back and satisfies S S^T = ((N+1)/4)(I + J).

    The entries of S S^T are the cyclic autocorrelations of the bits, so
    the identity holds exactly when the autocorrelation is (N+1)/2 at lag
    0 and (N+1)/4 at every other lag.  The FFT autocorrelation is rounded
    with rint, after checking that every value lies well inside its
    rounding interval.
    """
    import numpy as np

    head, _, body = path.read_text().strip().partition(":")
    if head != str(order) or len(body) != order or set(body) - {"0", "1"}:
        return f"{path} does not parse as an order-{order} sequence"
    bits = (np.frombuffer(body.encode("ascii"), dtype=np.uint8) - ord("0")).astype(np.float64)
    corr = np.fft.irfft(np.abs(np.fft.rfft(bits)) ** 2, n=order)
    rounded = np.rint(corr)
    if np.abs(corr - rounded).max() > 0.25:
        return f"{path}: autocorrelation is not resolved to integers"
    want = np.full(order, (order + 1) // 4, dtype=np.int64)
    want[0] = (order + 1) // 2
    if not np.array_equal(rounded.astype(np.int64), want):
        return f"{path}: S S^T != ((N+1)/4)(I + J)"
    return None


def gains_in_band(path: Path, orders: tuple[int, ...], trials: int) -> str | None:
    """Each measured gain lies within the band around (N+1)/(2 sqrt N)."""
    import numpy as np

    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if tuple(int(n) for n in rows[:, 0]) != tuple(sorted(orders)):
        return f"{path}: orders {rows[:, 0].tolist()} != {sorted(orders)}"
    band = GAIN_BAND_PER_ROOT_TRIAL / math.sqrt(trials)
    for n, measured in zip(rows[:, 0], rows[:, 1]):
        exact = (n + 1) / (2.0 * math.sqrt(n))
        if not abs(measured / exact - 1.0) <= band:
            return (
                f"{path}: gain {measured:.4f} at N={int(n)} is outside "
                f"{exact:.4f} +- {band:.1%}"
            )
    return None


def scan_map(path: Path, positions: int) -> str | None:
    """One row per scanned position, normalised to a global peak of 1."""
    import numpy as np

    rows = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if rows.shape != (positions, 3):
        return f"{path}: {rows.shape[0]} rows for {positions} positions"
    if rows[:, 2].max() != 1.0:
        return f"{path}: peak map maximum {rows[:, 2].max()} != 1"
    return None
