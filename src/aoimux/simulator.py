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
import math
from collections.abc import Iterator
from dataclasses import dataclass, fields, replace

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
    def src_pos(self) -> tuple[float, float, float]:
        return (self.src_x_m, self.src_y_m, self.boundary_z_m)

    @property
    def det_pos(self) -> tuple[float, float, float]:
        return (self.det_x_m, self.det_y_m, self.boundary_z_m)

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


def _effective_endpoints(ph: Phantom) -> tuple[np.ndarray, np.ndarray]:
    shift = np.array([0.0, 0.0, ph.transport_length_m])
    return np.asarray(ph.src_pos) + shift, np.asarray(ph.det_pos) + shift


def _axis_points(axis_xy: tuple[float, float], zs: np.ndarray) -> np.ndarray:
    """(n, 3) points at depths zs on the acoustic axis through axis_xy."""
    return np.column_stack(
        [np.full_like(zs, axis_xy[0]), np.full_like(zs, axis_xy[1]), zs]
    )


def _fluence_raw(ph: Phantom, points: np.ndarray) -> np.ndarray:
    """Unnormalized G(src->r) G(r->det) at an (n, 3) array of points."""
    src, det = _effective_endpoints(ph)
    mu = ph.mu_eff_per_m
    floor = ph.transport_length_m
    d1 = np.maximum(np.linalg.norm(points - src, axis=-1), floor)
    d2 = np.maximum(np.linalg.norm(points - det, axis=-1), floor)
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
    return float(_fluence_raw(ph, _axis_points(ph.src_pos[:2], zs)).max())


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
    raw = _fluence_raw(ph, _axis_points(axis_xy, zs))
    return raw / raw.max()


def axial_profile(
    cfg: AcquisitionConfig,
    ph: Phantom,
    axis_xy: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """Fine-binned source vector x over one repetition period.

    Bin m sits at z = m * c / f_s; bins outside the phantom carry 0.
    Values are the diffusion kernel product divided by fluence_scale, so
    different transducer positions remain mutually comparable.
    """
    _check_geometry(cfg, ph)
    period = cfg.period_samples
    zs = np.arange(period) * cfg.bin_width_m
    inside = (zs >= ph.boundary_z_m) & (zs <= ph.boundary_z_m + ph.depth_extent_m)
    x = np.zeros(period)
    if inside.any():
        pts = _axis_points(axis_xy, zs[inside])
        x[inside] = _fluence_raw(ph, pts) / fluence_scale(ph)
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
    """out[n] = sum_m x[m] * c[(m - n) mod P]."""
    p = x.size
    return np.fft.irfft(np.fft.rfft(x) * np.conj(np.fft.rfft(c)), n=p)


def chunk_length(period: int) -> int:
    """Samples per stream chunk: the whole periods that fit in CHUNK_SAMPLES,
    never less than one period."""
    return max(1, CHUNK_SAMPLES // period) * period


def clean_period(
    cfg: AcquisitionConfig,
    ph: Phantom,
    axis_xy: tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """One repetition period of the noise-free stream (cfg.period_samples)."""
    x = axial_profile(cfg, ph, axis_xy)
    prof = _spatial_code_profile(cfg)
    return cfg.modulation_efficiency * _circular_correlate(x, prof)


def noisy_chunks(
    period: np.ndarray, n_samples: int, sigma: float, seed: int
) -> Iterator[np.ndarray]:
    """The first n_samples of period repeated, plus N(0, sigma^2) noise, in chunks.

    Chunks hold ``chunk_length(period.size)`` samples (whole periods),
    or the whole stream if it is shorter; only the last may be shorter
    and end in a partial period.  The noise
    continues one ``default_rng(seed)`` Generator across chunks, and its
    draws do not depend on the chunk size, so the samples equal a
    one-shot draw over the whole stream.  Nothing is drawn when sigma is
    0.  Every chunk is a view of one reused buffer: use it before asking
    for the next.
    """
    p = period.size
    # no longer than the stream rounded up to whole periods, and at least one
    step = min(chunk_length(p), -(-n_samples // p) * p) or p
    buf = np.empty(step)
    rng = np.random.default_rng(seed) if sigma > 0 else None
    for start in range(0, n_samples, step):
        chunk = buf[: min(step, n_samples - start)]
        whole = chunk.size - chunk.size % p
        chunk[:whole].reshape(-1, p)[:] = period
        if whole < chunk.size:  # the last chunk's partial period
            chunk[whole:] = period[: chunk.size - whole]
        if rng is not None:
            chunk += rng.normal(0.0, sigma, chunk.size)
        yield chunk


def stream_chunks(
    cfg: AcquisitionConfig,
    ph: Phantom,
    axis_xy: tuple[float, float] = (0.0, 0.0),
) -> Iterator[np.ndarray]:
    """The stream of one transducer position as ``noisy_chunks``.

    The zero-noise stream is periodic with cfg.period_samples; noise is
    drawn from ``default_rng(cfg.seed)``, so identical configurations
    give bit-identical streams, whatever the chunk size.  The
    configuration is checked before the first chunk is asked for.
    """
    if cfg.n_samples < 1:
        raise InsufficientSamples(
            f"duration {cfg.duration_s} s at {cfg.f_s} Hz gives no samples"
        )
    period = clean_period(cfg, ph, axis_xy)
    return noisy_chunks(period, cfg.n_samples, cfg.noise_sigma, cfg.seed)


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
        """x and y positions from each range's min up to its max in steps of step_m."""
        return tuple(
            lo + self.step_m * np.arange(round((hi - lo) / self.step_m) + 1)
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
    traversal order.  Each position's stream is folded to its (order, K)
    period mean by ``demux.average_periods`` chunk by chunk as it is
    drawn (``stream_chunks``), so no stream is ever held whole; one
    ``pipeline.reconstruct_profile`` call then solves and extracts every
    position, each equal bit for bit to the profile of its stream
    reconstructed alone.
    """
    from .pipeline import reconstruct_profile  # local import, avoids a cycle

    xs, ys = grid.positions()
    folded = np.empty((ys.size, xs.size, cfg.order, cfg.subsets_per_cycle))
    for iy, y in enumerate(ys):
        for ix, x in enumerate(xs):
            pos_cfg = replace(cfg, seed=derive_seed(cfg.seed, SCAN_SALT, iy, ix))
            chunks = stream_chunks(pos_cfg, ph, axis_xy=(float(x), float(y)))
            folded[iy, ix] = demux.average_periods(chunks, cfg)
    stack = reconstruct_profile(folded, cfg, kind).values
    peak = stack.max()
    if peak > 0:
        stack = stack / peak
    return ScanResult(xs=xs, ys=ys, stack=stack, bin_width_m=cfg.bin_width_m)
