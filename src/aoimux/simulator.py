"""Forward model of pulsed and coded acousto-optic acquisition.

Model conventions, fixed here for the whole package:

* The acoustic axis is +z.  It is discretized into fine bins of width
  c / f_s; one code element spans K = f_s / f_us fine bins (the element
  width is one carrier period times the sound speed).  There is one
  sound speed, the acquisition's c: fine bin m sits at depth m c / f_s,
  and the phantom has no sound speed of its own.
* Streams are synthesized in cyclic steady state: at sample 0 the code
  pattern lies along the axis in sequence order, and it advances one
  fine bin per sample.  Every complete repetition period of the
  zero-noise stream is therefore identical, and each deinterleaved
  frame satisfies the circulant measurement equation exactly.
* The traveling pulse carries its one-cycle sine shape, so detector
  samples oscillate at f_us; the envelope is recovered downstream by
  quadrature demodulation.
* Light transport uses the steady-state diffusion approximation for an
  infinite medium: point-source kernel G(d) = exp(-mu_eff d) / d with
  mu_eff = sqrt(3 mu_a mu_s'), source and detector displaced one
  transport length 1 / mu_s' into the medium along +z, and distances
  clamped at one transport length (the kernel is not meaningful
  closer).  Modulated-light strength at a point is the product
  G(source -> point) * G(point -> detector).
* Detector noise is additive i.i.d. zero-mean Gaussian, independent of
  the signal.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields

import numpy as np

from . import codes, demux
from .errors import (
    ConfigError,
    InsufficientSamples,
    NonIntegerRatio,
    OutOfDomain,
)
from .seeding import SCAN_SALT, derive_seed

SPEED_OF_SOUND_WATER = 1482.0  # m/s, distilled water near room temperature

MODE_SINGLE_PULSE = "single-pulse"
MODE_CODED = "coded"

_CM_TO_M = 100.0  # 1/cm -> 1/m for optical coefficients
_SCALE_GRID = 2048  # axial samples used to fix the phantom fluence scale
# Streams are made, written and read in chunks of whole periods of at most
# this many samples (512 kB), so memory does not grow with stream length.
CHUNK_SAMPLES = 1 << 16


def integer_ratio(f_s: float, f_us: float) -> int:
    """The integer K = f_s / f_us; raises NonIntegerRatio otherwise."""
    if f_us <= 0 or f_s <= 0:
        raise NonIntegerRatio("rates must be positive")
    ratio = f_s / f_us
    if not math.isfinite(ratio):
        raise NonIntegerRatio(f"f_s/f_us = {ratio} is not a natural number")
    k = round(ratio)
    if k < 1 or abs(ratio - k) > 1e-9 * k:
        raise NonIntegerRatio(f"f_s/f_us = {ratio} is not a natural number")
    return k


def _check_finite(obj) -> None:
    """Reject a NaN or infinite value in any float field."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True, kw_only=True)
class Phantom:
    """Optically diffuse medium probed along the acoustic axis; the fields
    are the [phantom] config keys.

    Optical coefficients are in 1/cm, geometry in meters.  The source
    and detector fibers sit on the boundary plane z = boundary_z_m; the
    medium spans boundary_z_m .. boundary_z_m + depth_extent_m.  Sound
    crosses it at the acquisition's c.
    """

    mu_s_prime_per_cm: float  # reduced scattering
    mu_a_per_cm: float  # absorption
    src_x_m: float
    src_y_m: float = 0.0
    det_x_m: float
    det_y_m: float = 0.0
    boundary_z_m: float = 0.0
    depth_extent_m: float

    def __post_init__(self):
        _check_finite(self)
        if self.mu_s_prime_per_cm <= 0:
            raise ConfigError("mu_s_prime_per_cm must be positive")
        if self.mu_a_per_cm < 0:
            raise ConfigError("mu_a_per_cm must be non-negative")
        if self.depth_extent_m <= 0:
            raise ConfigError("depth_extent_m must be positive")

    @property
    def transport_length_m(self) -> float:
        return 1.0 / (self.mu_s_prime_per_cm * _CM_TO_M)

    @property
    def mu_eff_per_m(self) -> float:
        return math.sqrt(3.0 * self.mu_a_per_cm * self.mu_s_prime_per_cm) * _CM_TO_M


@dataclass(frozen=True, kw_only=True)
class AcquisitionConfig:
    """Physical and sampling parameters of one acquisition; the fields are
    the [acquisition] config keys.

    In coded mode ``order`` is the code length N (prime, 3 mod 4); in
    single-pulse mode it is the repetition period in carrier cycles, so
    the pulse spacing matches a coded run of the same order.
    """

    f_us: float  # ultrasound center frequency, Hz
    f_s: float  # sampling rate, Hz
    c: float  # sound speed used for depth mapping, m/s
    mode: str = MODE_CODED  # "coded" | "single-pulse"
    order: int = 79
    duration_s: float
    noise_sigma: float = 0.0
    modulation_efficiency: float = 1.0
    seed: int = 0
    water_sound_speed: float = SPEED_OF_SOUND_WATER
    water_path_m: float = 0.0

    def __post_init__(self):
        _check_finite(self)
        integer_ratio(self.f_s, self.f_us)
        if self.mode not in (MODE_SINGLE_PULSE, MODE_CODED):
            raise ConfigError(f"unknown mode {self.mode!r}")
        if self.mode == MODE_CODED:
            codes.check_order(self.order)
        if self.order < 1:
            raise ConfigError("order must be a positive integer")
        if self.c <= 0 or self.water_sound_speed <= 0:
            raise ConfigError("sound speeds must be positive")
        if self.duration_s < 0:
            raise ConfigError("duration_s must be non-negative")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be non-negative")
        if self.water_path_m < 0:
            raise ConfigError("water_path_m must be non-negative")
        if not math.isfinite(self.t0):
            raise ConfigError("t0 = water_path_m / water_sound_speed must be finite")
        if self.seed < 0:
            raise ConfigError("seed must be non-negative")

    @property
    def subsets_per_cycle(self) -> int:
        """K = f_s / f_us, the number of interleaved subsets."""
        return integer_ratio(self.f_s, self.f_us)

    @property
    def prf(self) -> float:
        """Repetition rate of the pulse (or of the full code sequence), Hz."""
        return self.f_us / self.order

    @property
    def period_samples(self) -> int:
        """Samples per repetition period."""
        return self.order * self.subsets_per_cycle

    @property
    def n_samples(self) -> int:
        return round(self.duration_s * self.f_s)

    @property
    def bin_width_m(self) -> float:
        """Width of one fine depth bin, c / f_s."""
        return self.c / self.f_s

    @property
    def span_m(self) -> float:
        """Axial distance covered by one repetition period, N T c."""
        return self.order * self.c / self.f_us

    @property
    def inter_pulse_spacing_m(self) -> float:
        """Distance between repetitions in the water path above the medium."""
        return self.water_sound_speed / self.prf

    @property
    def t0(self) -> float:
        """Time of the first sample: the sound's transit of the water path, s."""
        return self.water_path_m / self.water_sound_speed


@dataclass
class SampledStream:
    """Detector time series plus the configuration that produced it; the
    first sample is at config_snapshot.t0."""

    samples: np.ndarray
    config_snapshot: AcquisitionConfig

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)

    def __len__(self) -> int:
        return self.samples.size


def pulse_waveform(f_us: float, f_s: float) -> np.ndarray:
    """One cycle of a unit-amplitude sine at f_us sampled at f_s (K samples)."""
    k = integer_ratio(f_s, f_us)
    return np.sin(2.0 * np.pi * np.arange(k) / k)


def _fluence_raw(ph: Phantom, x, y, z) -> np.ndarray:
    """Unnormalized G(src->r) G(r->det) at the points (x, y, z), whose
    coordinates broadcast together."""
    mu = ph.mu_eff_per_m
    floor = ph.transport_length_m
    # both fibers sit one transport length into the medium
    dz2 = np.square(z - (ph.boundary_z_m + floor))
    d1 = np.maximum(np.sqrt(np.square(x - ph.src_x_m) + np.square(y - ph.src_y_m) + dz2), floor)
    d2 = np.maximum(np.sqrt(np.square(x - ph.det_x_m) + np.square(y - ph.det_y_m) + dz2), floor)
    return np.exp(-mu * (d1 + d2)) / (d1 * d2)


@functools.lru_cache(maxsize=64)
def fluence_scale(ph: Phantom) -> float:
    """Phantom-wide normalization constant for simulated signal amplitudes.

    Fixed as the maximum kernel value on the axial column through the
    source fiber (where the product peaks), sampled on a dense grid, so
    profiles at different transducer positions stay on a common scale.
    Memoised per phantom.
    """
    zs = np.linspace(ph.boundary_z_m, ph.boundary_z_m + ph.depth_extent_m, _SCALE_GRID + 1)
    return float(_fluence_raw(ph, ph.src_x_m, ph.src_y_m, zs).max())


def fluence_profile(
    ph: Phantom,
    axis_positions: np.ndarray,
    axis_xy: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Relative modulated-light strength along the acoustic axis.

    axis_positions are absolute z coordinates and must lie inside the
    phantom.  The returned profile is normalized to peak 1.
    """
    zs = np.asarray(axis_positions, dtype=np.float64)
    lo, hi = ph.boundary_z_m, ph.boundary_z_m + ph.depth_extent_m
    if zs.size == 0:
        raise OutOfDomain("no positions given")
    if zs.min() < lo - 1e-12 or zs.max() > hi + 1e-12:
        raise OutOfDomain(
            f"positions must lie within [{lo}, {hi}] along the acoustic axis"
        )
    raw = _fluence_raw(ph, *axis_xy, zs)
    return raw / raw.max()


def axial_profile(
    cfg: AcquisitionConfig,
    ph: Phantom,
    axis_xy: tuple[float, float] | np.ndarray = (0.0, 0.0),
) -> np.ndarray:
    """Fine-binned source vector x over one repetition period.

    axis_xy is one transducer position (x, y), or a stack of them,
    (..., 2); the result is (period_samples,), or (..., period_samples).
    Bin m sits at z = m * c / f_s; bins outside the phantom carry 0.
    Values are the diffusion kernel product divided by fluence_scale, so
    different transducer positions remain mutually comparable.
    """
    _check_geometry(cfg, ph)
    xy = np.asarray(axis_xy, dtype=np.float64)
    period = cfg.period_samples
    zs = np.arange(period) * cfg.bin_width_m
    inside = (zs >= ph.boundary_z_m) & (zs <= ph.boundary_z_m + ph.depth_extent_m)
    x = np.zeros(xy.shape[:-1] + (period,))
    if inside.any():
        raw = _fluence_raw(ph, xy[..., 0, None], xy[..., 1, None], zs[inside])
        x[..., inside] = raw / fluence_scale(ph)
    return x


def _check_geometry(cfg: AcquisitionConfig, ph: Phantom) -> None:
    if ph.boundary_z_m < 0:
        raise ConfigError("phantom boundary must be at non-negative depth")
    if ph.boundary_z_m + ph.depth_extent_m > cfg.span_m + 1e-12:
        # more than one pulse/sequence would occupy the medium at once
        raise ConfigError(
            f"phantom extends to {ph.boundary_z_m + ph.depth_extent_m:.4f} m but one "
            f"repetition period spans only {cfg.span_m:.4f} m"
        )


def _spatial_code_profile(cfg: AcquisitionConfig) -> np.ndarray:
    """Pressure pattern along the axis at sample 0, one repetition period."""
    pulse = pulse_waveform(cfg.f_us, cfg.f_s)
    if cfg.mode == MODE_CODED:
        bits = codes.generate_s_sequence(cfg.order).bits.astype(np.float64)
        return np.repeat(bits, cfg.subsets_per_cycle) * np.tile(pulse, cfg.order)
    prof = np.zeros(cfg.period_samples)
    prof[: pulse.size] = pulse
    return prof


def _circular_correlate(x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """out[..., n] = sum_m x[..., m] * c[(m - n) mod P], P = c.size."""
    return np.fft.irfft(np.fft.rfft(x) * np.conj(np.fft.rfft(c)), n=c.size)


def chunk_length(period: int) -> int:
    """Samples per stream chunk: the whole periods that fit in CHUNK_SAMPLES,
    never less than one period."""
    return max(1, CHUNK_SAMPLES // period) * period


def clean_period(
    cfg: AcquisitionConfig,
    ph: Phantom,
    axis_xy: tuple[float, float] | np.ndarray = (0.0, 0.0),
) -> np.ndarray:
    """One repetition period of the noise-free stream (cfg.period_samples),
    or one per position of a stack axis_xy, (..., 2) -> (..., P); the code
    pattern and its spectrum are built once for the whole stack."""
    x = axial_profile(cfg, ph, axis_xy)
    prof = _spatial_code_profile(cfg)
    return cfg.modulation_efficiency * _circular_correlate(x, prof)


def _draw(out: np.ndarray, periods: np.ndarray, rngs: list, sigma: float) -> np.ndarray:
    """Fill row r of out, (rows, m), with periods[r] repeated from its first
    sample plus sigma times the standard normals of rngs[r], and return
    out; a row whose rng is None gets no noise.

    The noise is drawn in place, with no temporary array, and row r is bit
    for bit ``np.resize(periods[r], m) + rngs[r].normal(0.0, sigma, m)``:
    numpy's ``normal`` is ``loc + scale * z`` over the same standard normals.
    """
    for row, rng in zip(out, rngs):
        if rng is None:
            row.fill(-0.0)  # x + -0.0 is x, bit for bit, for every x
        else:
            rng.standard_normal(out=row)
    out *= sigma
    p = periods.shape[-1]
    whole = out.shape[-1] - out.shape[-1] % p
    # a view, as the split axis is contiguous; a share of a chunk may have no rows
    tiled = out[:, :whole].reshape(out.shape[0], whole // p, p)
    tiled += periods[:, None]
    out[:, whole:] += periods[:, : out.shape[-1] - whole]
    return out


def _draw_chunks(
    buf: np.ndarray, periods: np.ndarray, seeds: Iterable, sigma: float, n_samples: int, draw=_draw
) -> Iterator[np.ndarray]:
    """Chunks of the streams of periods, one a row, as (rows, m) views of
    buf, drawn in place by draw: ``_draw``, or the threaded draw of
    ``fold_streams``, which fills its chunk as ``_draw`` does.

    Row r is periods[r] repeated for n_samples samples plus the
    N(0, sigma^2) noise of ``default_rng(seeds[r])``, in chunks of
    buf.shape[-1] samples but the last; a None seed or a zero sigma
    draws nothing.  Each chunk reuses buf: use it before asking for the next.
    """
    rngs = [None if seed is None or sigma == 0 else np.random.default_rng(seed) for seed in seeds]
    rows, step = len(periods), buf.shape[-1]
    for start in range(0, n_samples, step):
        yield draw(buf[:rows, : min(step, n_samples - start)], periods, rngs, sigma)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask, which ``taskset``
    or a cpuset limits, where the platform has one, else the CPU count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity mask on this platform
        return os.cpu_count() or 1


def fold_streams(
    cfg: AcquisitionConfig, periods: np.ndarray, seeds: Iterable[int | None]
) -> np.ndarray:
    """Period means of one noisy stream per row of periods, (R, P) -> (R, order, K).

    Row r is periods[r] repeated for cfg.n_samples samples plus the
    N(0, cfg.noise_sigma^2) noise of ``default_rng(seeds[r])``, folded:
    bit for bit ``demux.average_periods([np.resize(periods[r], n) +
    default_rng(seeds[r]).normal(0.0, sigma, n)], cfg)``.  A row whose
    seed is None gets no noise, and nothing is drawn when sigma is 0.
    Only the complete periods are drawn, since the fold discards the
    rest; without one, raises InsufficientSamples.  No rows give the
    empty (0, order, K) stack; fewer seeds than rows raise ValueError.

    The rows are drawn in groups, each chunk by chunk into one (rows, m)
    buffer by the chunk generator of ``stream_chunks``: a row's
    chunks are those of one stream (``chunk_length`` samples, or the
    whole stream if shorter), and a group has one row per thread, or as
    many more as fit ``CHUNK_SAMPLES`` samples per thread.  The draws of
    a chunk are spread over ``min(usable_cpus(), R)`` threads: thread w
    draws rows w, w + threads, ..., the calling thread taking share 0
    and a ``ThreadPoolExecutor`` the others, and a chunk is folded once
    every share is drawn.  A worker's exception is raised in the calling
    thread, and the workers are joined before this returns or raises; a
    single usable CPU starts no thread.  Only the calling thread derives,
    folds or calls anything else: it folds each group with one
    ``demux.average_periods`` call over its stacked chunks.  The result
    depends on neither the thread count nor the chunk size.  It is
    allocated first and seeds is read group by group, so a stack too
    large for memory raises MemoryError before any seed is derived.
    """
    from concurrent.futures import ThreadPoolExecutor  # local import: it loads logging

    rows, p = periods.shape
    n, sigma = cfg.n_samples, cfg.noise_sigma
    used = n - n % p
    if not used:
        raise InsufficientSamples(f"{n} samples < one period of {p}")
    folded = np.empty((rows, cfg.order, cfg.subsets_per_cycle))
    if not rows:
        return folded
    workers = min(usable_cpus(), rows)
    step = min(chunk_length(p), used)
    group = min(rows, max(workers, workers * CHUNK_SAMPLES // step))
    buf = np.empty((group, step))
    seeds = iter(seeds)
    with ThreadPoolExecutor(max(1, workers - 1)) as pool:

        def draw(out, periods, rngs, sigma):
            shares = [
                pool.submit(_draw, out[w::workers], periods[w::workers], rngs[w::workers], sigma)
                for w in range(1, workers)
            ]
            _draw(out[::workers], periods[::workers], rngs[::workers], sigma)
            for share in shares:
                share.result()
            return out

        for lo in range(0, rows, group):
            hi = min(lo + group, rows)
            group_seeds = list(itertools.islice(seeds, hi - lo))
            if len(group_seeds) < hi - lo:
                raise ValueError(f"{rows} rows but {lo + len(group_seeds)} seeds")
            chunks = _draw_chunks(buf, periods[lo:hi], group_seeds, sigma, used, draw)
            folded[lo:hi] = demux.average_periods(chunks, cfg)
    return folded


def stream_chunks(
    cfg: AcquisitionConfig,
    ph: Phantom,
    axis_xy: tuple[float, float] = (0.0, 0.0),
) -> Iterator[np.ndarray]:
    """The stream of one transducer position in chunks, the one-row case
    of the chunk generator of ``fold_streams``.

    Chunks hold ``chunk_length(cfg.period_samples)`` samples (whole
    periods), or the whole stream if it is shorter; only the last may
    end in a partial period.  The noise continues one
    ``default_rng(cfg.seed)`` Generator across chunks, so the samples
    equal ``period + rng.normal(0.0, cfg.noise_sigma, n_samples)``, bit
    for bit, whatever the chunk size; nothing is drawn when the sigma is
    0.  Each chunk is a view of one reused buffer: use it before asking
    for the next.  The configuration is checked before the first chunk
    is asked for.
    """
    n = cfg.n_samples
    if n < 1:
        raise InsufficientSamples(
            f"duration {cfg.duration_s} s at {cfg.f_s} Hz gives no samples"
        )
    period = clean_period(cfg, ph, axis_xy)
    p = period.size
    # no longer than the stream rounded up to whole periods
    buf = np.empty((1, min(chunk_length(p), -(-n // p) * p)))
    chunks = _draw_chunks(buf, period[None], [cfg.seed], cfg.noise_sigma, n)
    return (rows[0] for rows in chunks)


def simulate_stream(
    cfg: AcquisitionConfig,
    ph: Phantom,
    axis_xy: tuple[float, float] = (0.0, 0.0),
) -> SampledStream:
    """Synthesize a detector stream for one transducer position in memory.

    The samples are those of ``stream_chunks``, gathered into one array.
    """
    chunks = stream_chunks(cfg, ph, axis_xy)
    samples = np.empty(cfg.n_samples)
    start = 0
    for chunk in chunks:
        samples[start : start + chunk.size] = chunk
        start += chunk.size
    return SampledStream(samples, cfg)


@dataclass
class ScanResult:
    """Output of a 2D transducer scan, normalized to global peak 1."""

    xs: np.ndarray  # scanned x positions, m
    ys: np.ndarray  # scanned y positions, m
    stack: np.ndarray  # (ny, nx, depth bins) full profiles
    bin_width_m: float

    @property
    def peak_map(self) -> np.ndarray:
        """(ny, nx) peak profile value per position."""
        return self.stack.max(axis=-1)

    @property
    def depths(self) -> np.ndarray:
        return np.arange(self.stack.shape[-1]) * self.bin_width_m


@dataclass(frozen=True)
class ScanGrid:
    """Transducer grid of a 2D scan; the fields are the [scan] config keys.

    Each axis runs from its min up to its max in steps of step_m.  Every
    rule is checked when the grid is built: every value must be finite,
    the step positive, no range reversed (max < min), and each range
    must span fewer than 2^53 steps, beyond which a float no longer
    counts them exactly.
    """

    x_min_m: float = 0.0
    x_max_m: float = 0.0
    y_min_m: float = 0.0
    y_max_m: float = 0.0
    step_m: float = 0.0005

    def __post_init__(self):
        if not (math.isfinite(self.step_m) and self.step_m > 0):
            raise ConfigError(f"scan step must be finite and positive, got {self.step_m}")
        for name, lo, hi in self._ranges():
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ConfigError(f"scan {name} range must be finite, got [{lo}, {hi}]")
            if hi < lo:
                raise ConfigError(f"scan {name} range is reversed: max {hi} < min {lo}")
            if not (hi - lo) / self.step_m < 2**53:
                raise ConfigError(f"scan {name} range [{lo}, {hi}] spans too many steps")

    def _ranges(self) -> tuple[tuple[str, float, float], ...]:
        return (("x", self.x_min_m, self.x_max_m), ("y", self.y_min_m, self.y_max_m))

    def positions(self) -> tuple[np.ndarray, np.ndarray]:
        """x and y positions from each range's min up to its max in steps of step_m.

        A range that is not a whole number of steps stops at the last step
        below its max; a step past the max by less than 1e-9 of the span is
        float error, and counts as reaching it.
        """
        return tuple(
            lo + self.step_m * np.arange(math.floor((hi - lo) / self.step_m * (1 + 1e-9)) + 1)
            for _, lo, hi in self._ranges()
        )


def scan_2d(
    cfg: AcquisitionConfig,
    ph: Phantom,
    grid: ScanGrid,
    *,
    kind: str = "spectral",
) -> ScanResult:
    """Run the full acquire/demultiplex/extract pipeline over an XY grid.

    Per-position noise streams use seeds derived from
    ``(cfg.seed, SCAN_SALT, iy, ix)``, so the result is independent of
    traversal order.  One ``clean_period`` call on the calling thread
    simulates the noise-free period of every position, over the
    (ny, nx, 2) stack of the grid's positions; then one ``fold_streams``
    call draws each position's stream (the draw ``stream_chunks`` makes)
    over the usable cores and folds it to its (order, K) period mean,
    chunk by chunk, so no stream is ever held whole.  One
    ``pipeline.reconstruct_profile`` call then solves and extracts every
    position, each equal bit for bit to the profile of its stream
    reconstructed alone, whatever the number of cores.
    """
    from .pipeline import reconstruct_profile  # local import, avoids a cycle

    xs, ys = grid.positions()
    # derived lazily: fold_streams reads the seeds once its stack is allocated
    seeds = (derive_seed(cfg.seed, SCAN_SALT, iy, ix) for iy, ix in np.ndindex(ys.size, xs.size))
    periods = clean_period(cfg, ph, np.stack(np.meshgrid(xs, ys), axis=-1))
    folded = fold_streams(cfg, periods.reshape(-1, cfg.period_samples), seeds)
    folded = folded.reshape(ys.size, xs.size, cfg.order, cfg.subsets_per_cycle)
    stack = reconstruct_profile(folded, cfg, kind).values
    peak = stack.max()
    if peak > 0:
        stack = stack / peak
    return ScanResult(xs=xs, ys=ys, stack=stack, bin_width_m=cfg.bin_width_m)
