"""Forward model of pulsed and coded acousto-optic acquisition.

This module holds the forward model only: the records it reads, the
acquisition, the phantom and the scan grid, are ``config``'s.

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
from collections.abc import Iterable, Iterator, Sequence

import numpy as np

from . import codes
from .config import MODE_CODED, AcquisitionConfig, Phantom, ScanGrid, integer_ratio
from .errors import ConfigError, InsufficientSamples
from .seeding import SCAN_SALT, derive_seed

_SCALE_GRID = 2048  # axial samples used to fix the phantom fluence scale
# Streams are made, written and read in chunks of whole periods of at most
# this many samples (512 kB), and folded draws in blocks of at most this many
# values, so memory grows with neither stream length nor row count.
CHUNK_SAMPLES = 1 << 16


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
        bits = codes.generate_s_sequence(cfg.order).astype(np.float64)
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


def draw_folded(
    cfgs: Sequence[AcquisitionConfig],
    periods: Sequence[np.ndarray],
    seeds: Sequence[Iterable[int]],
) -> Iterator[tuple[int, list[np.ndarray]]]:
    """Period means of noisy streams, drawn folded, block of rows by block
    of rows.

    For each config c, periods[c] is (R, P_c), the same R rows for every
    config, and row r stands for periods[c][r] repeated for n_samples
    samples plus N(0, sigma^2) noise.  The mean of p i.i.d. N(0, sigma^2)
    samples is N(0, sigma^2 / p), so the mean of its p complete periods
    is drawn directly as ``periods[c][r] + (sigma / sqrt(p)) *
    default_rng(seeds[c][r]).standard_normal(P_c)``, reshaped to
    (order, K): exact in distribution, no stream made.  A config of zero
    sigma reads its seeds but draws no normals: its rows are copies of
    its periods, bit for bit.  A config without a complete period raises
    InsufficientSamples before any seed is read.

    Yields (lo, folded) per block of rows lo .. lo + b - 1, folded[c] the
    (b, order, K) means of config c, which hold at most CHUNK_SAMPLES
    values together (one row at least).  seeds[c] is read block by
    block; fewer seeds than rows raise ValueError.  Each distinct seed
    of a block seeds one generator, drawn to the longest period, and each
    config scales its own prefix: a generator's first m normals do not
    depend on how many it draws after them, so every row is what its
    config draws alone, bit for bit.  An overflowing draw gives inf,
    silently; ``pipeline.reconstruct_profile`` reports it.
    """
    for cfg in cfgs:
        n, p = cfg.n_samples, cfg.period_samples
        if n < p:
            raise InsufficientSamples(f"{n} samples < one period of {p}")
    scales = [cfg.noise_sigma / math.sqrt(cfg.n_samples // cfg.period_samples) for cfg in cfgs]
    rows = len(periods[0])
    longest = max(stack.shape[-1] for stack in periods)
    block = max(1, CHUNK_SAMPLES // sum(stack.shape[-1] for stack in periods))
    seeds = [iter(s) for s in seeds]
    for lo in range(0, rows, block):
        b = min(block, rows - lo)
        keys: dict[int, int] = {}  # seed -> its row of normals
        sources = []
        for scale, row_seeds in zip(scales, seeds):
            got = list(itertools.islice(row_seeds, b))
            if len(got) < b:
                raise ValueError(f"{rows} rows but {lo + len(got)} seeds")
            sources.append([keys.setdefault(s, len(keys)) for s in got] if scale else None)
        normals = np.empty((len(keys), longest))
        for i, seed in enumerate(keys):
            np.random.default_rng(seed).standard_normal(out=normals[i])
        folded = []
        for cfg, stack, scale, source in zip(cfgs, periods, scales, sources):
            if source is None:
                out = stack[lo : lo + b].copy()
            else:
                out = np.take(normals[:, : stack.shape[-1]], source, axis=0)
                with np.errstate(over="ignore"):
                    out *= scale
                    out += stack[lo : lo + b]
            folded.append(out.reshape(b, cfg.order, cfg.subsets_per_cycle))
        del normals  # the means are copies: free the draw while the caller uses them
        yield lo, folded


def stream_chunks(cfg: AcquisitionConfig, ph: Phantom) -> Iterator[np.ndarray]:
    """The stream of the transducer on the axis, x = y = 0, in chunks,
    each drawn in place into one reused 1-D buffer.

    Chunks hold ``chunk_length(cfg.period_samples)`` samples (whole
    periods), or the whole stream if it is shorter; only the last may
    end in a partial period.  Each chunk is filled with standard normals,
    scaled by the noise sigma, and the clean period is added over its
    whole periods and its partial tail, with no temporary array.  The
    noise continues one ``default_rng(cfg.seed)`` Generator across
    chunks, so the samples equal ``period + rng.normal(0.0,
    cfg.noise_sigma, n_samples)``, bit for bit, whatever the chunk size
    (numpy's ``normal`` is ``loc + scale * z`` over the same standard
    normals).  When the sigma is 0 no Generator is built, and the samples
    are the period repeated, bit for bit.  A sigma whose product with a
    normal overflows gives inf, silently; ``demux.average_periods``
    reports it.  Each chunk is a view of the buffer: use it before
    asking for the next.  The configuration is checked before the first
    chunk is asked for.
    """
    n = cfg.n_samples
    if n < 1:
        raise InsufficientSamples(
            f"duration {cfg.duration_s} s at {cfg.f_s} Hz gives no samples"
        )
    period = clean_period(cfg, ph)
    p = period.size
    # no longer than the stream rounded up to whole periods
    buf = np.empty(min(chunk_length(p), -(-n // p) * p))
    sigma = cfg.noise_sigma
    rng = np.random.default_rng(cfg.seed) if sigma else None

    def chunks() -> Iterator[np.ndarray]:
        for start in range(0, n, buf.size):
            chunk = buf[: min(buf.size, n - start)]
            if rng is None:
                chunk.fill(-0.0)  # added to x, it is x, bit for bit
            else:
                rng.standard_normal(out=chunk)
                with np.errstate(over="ignore"):  # average_periods reports the overflow
                    chunk *= sigma
            whole = chunk.size - chunk.size % p
            tiled = chunk[:whole].reshape(-1, p)  # a view: the buffer is contiguous
            tiled += period
            chunk[whole:] += period[: chunk.size - whole]
            yield chunk

    return chunks()


def simulate_stream(cfg: AcquisitionConfig, ph: Phantom) -> np.ndarray:
    """Synthesize the detector stream of the transducer on the axis in memory:
    the 1-D float64 samples of ``stream_chunks``, gathered into one array,
    the first at cfg.t0."""
    chunks = stream_chunks(cfg, ph)
    samples = np.empty(cfg.n_samples)
    start = 0
    for chunk in chunks:
        samples[start : start + chunk.size] = chunk
        start += chunk.size
    return samples


def scan_2d(
    cfg: AcquisitionConfig,
    ph: Phantom,
    grid: ScanGrid,
    *,
    kind: str = "spectral",
) -> np.ndarray:
    """Run the full acquire/demultiplex/extract pipeline over an XY grid.

    Returns the float64 (ny, nx, bins) stack of depth profiles, scaled
    to a global peak of 1 (left as it is when no value is positive):
    row [iy, ix] is the profile at (xs[ix], ys[iy]), where xs, ys =
    grid.positions(), and its bin m lies at depth m * cfg.bin_width_m.
    Per-position noise uses seeds derived from ``(cfg.seed, SCAN_SALT,
    iy, ix)``, so the result is independent of traversal order.  One
    ``clean_period`` call simulates the noise-free period of every
    position, over the (ny, nx, 2) stack of the grid's positions; then
    ``draw_folded`` draws each position's (order, K) period mean, the
    clean period plus its own draw of scale sigma / sqrt(p) over p
    complete periods, and no stream is made.  Each drawn block is
    reconstructed by one ``pipeline.reconstruct_profile`` call into the
    preallocated stack, each row equal bit for bit to its own folded
    draw reconstructed alone.
    """
    # pipeline imports this module; scan_2d stays here, where the benchmark
    # traces it as simulator.scan_2d
    from .pipeline import reconstruct_profile

    xs, ys = grid.positions()
    periods = clean_period(cfg, ph, np.stack(np.meshgrid(xs, ys), axis=-1))
    periods = periods.reshape(-1, cfg.period_samples)
    stack = np.empty(periods.shape)  # a profile has a bin per sample of the period
    # derived lazily, once the result is allocated
    seeds = (derive_seed(cfg.seed, SCAN_SALT, iy, ix) for iy, ix in np.ndindex(ys.size, xs.size))
    for lo, (block,) in draw_folded([cfg], [periods], [seeds]):
        stack[lo : lo + len(block)] = reconstruct_profile(block, cfg, kind)
    peak = stack.max()
    if peak > 0:
        stack /= peak
    return stack.reshape(ys.size, xs.size, -1)
