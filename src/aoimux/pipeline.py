"""Envelope extraction, depth-profile metrics and SNR experiments."""

from __future__ import annotations

import math
from dataclasses import replace
from functools import lru_cache, partial

import numpy as np

from . import codes, demux, simulator
from .config import MODE_CODED, MODES, AcquisitionConfig, Phantom, SweepPlan, integer_ratio
from .errors import (
    ConfigError,
    EdgePeak,
    InsufficientSamples,
    LengthMismatch,
    NoPeak,
    NonFiniteSamples,
    NyquistViolation,
)
from .seeding import TRIAL_SALT, derive_seed


def exact_multiplexing_gain(order):
    """Exact gain (N + 1) / (2 sqrt(N)) implied by the inverse row norm, of
    an order or, elementwise, of an int array of orders."""
    return (order + 1) / (2.0 * np.sqrt(order))


def _circular_box_mean(ext: np.ndarray, width: int, out: np.ndarray) -> np.ndarray:
    """Centered circular moving average along the last axis, over width
    samples, into out, (..., n), which is returned.

    ext is (..., n + width) and holds the signal at [half, half + n),
    half = width // 2.  Its other columns are filled with the signal's
    wrap-around, and ext is overwritten with its running sum.
    """
    n = out.shape[-1]
    half = width // 2
    ext[..., :half] = ext[..., n : n + half]
    ext[..., half + n :] = ext[..., half:width]
    np.cumsum(ext, axis=-1, out=ext)
    out[..., 0] = ext[..., width - 1]  # the first window sum needs nothing subtracted
    np.subtract(ext[..., width : width + n - 1], ext[..., : n - 1], out=out[..., 1:])
    out /= width
    return out


def extract_modulated(values: np.ndarray, f_us: float, f_s: float) -> np.ndarray:
    """Quadrature-demodulate the carrier out of a demultiplexed signal.

    Mixes the signal, read as float64, with cos and sin at f_us,
    low-passes each branch over exactly one carrier period (circular
    window; profiles cover whole periods) and returns the envelope
    2 sqrt(I^2 + Q^2), of the signal's shape, which for a clean carrier
    of amplitude A is A.  Works along the last axis: a
    stack of signals is demodulated in blocks of rows, about
    ``demux.BLOCK_SAMPLES`` samples each, into one preallocated result,
    so its scratch is one block whatever the stack size, and each row
    equals the row demodulated alone, bit for bit.  values is not
    modified.  The envelope peak of a single pulse lands up to one
    carrier period shy of the pulse's trailing bin, an offset inherent
    to envelope detection.
    """
    k = integer_ratio(f_s, f_us)
    if k < 2:
        raise NyquistViolation(f"f_s = {f_s} is below twice f_us = {f_us}")
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 0:
        raise LengthMismatch("extract_modulated works along the last axis; a 0-d value has none")
    n = values.shape[-1]
    if n < k:
        raise InsufficientSamples(f"{n} samples < smoothing window {k}")
    phase = 2.0 * np.pi * f_us / f_s * np.arange(n)
    cos, sin = np.cos(phase), np.sin(phase)
    rows = values.reshape(-1, n)
    envelope = np.empty(rows.shape)
    step = max(1, demux.BLOCK_SAMPLES // n)
    ext = np.empty((min(step, len(rows)), n + k))  # one arm of a block, wrapped
    q_arm = np.empty((len(ext), n))
    signal = slice(k // 2, k // 2 + n)
    for start in range(0, len(rows), step):
        block = rows[start : start + step]
        b = len(block)
        out = envelope[start : start + b]
        np.multiply(block, cos, out=ext[:b, signal])
        i_arm = _circular_box_mean(ext[:b], k, out)
        np.multiply(block, sin, out=ext[:b, signal])
        np.hypot(i_arm, _circular_box_mean(ext[:b], k, q_arm[:b]), out=out)
        out *= 2.0
    return envelope.reshape(values.shape)


def measure_fwhm(values: np.ndarray, bin_width_m: float) -> float:
    """Full width at half maximum of the peak of one profile, read as
    float64, in meters: bin m lies at depth m * bin_width_m.

    Crossing points are linearly interpolated.  Raises LengthMismatch
    for values that are not 1-D, NoPeak for a flat profile and EdgePeak
    when the maximum sits on the boundary or the half level is never
    crossed on one side.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim != 1:
        raise LengthMismatch(f"measure_fwhm takes one profile, got shape {v.shape}")
    if v.size < 3 or not np.isfinite(v).all():
        raise NoPeak("profile too short or not finite")
    peak = int(np.argmax(v))
    if v[peak] <= 0 or np.all(v == v[peak]):
        raise NoPeak("profile has no usable maximum")
    if peak == 0 or peak == v.size - 1:
        raise EdgePeak("profile maximum sits on the boundary")
    half = v[peak] / 2.0

    left = None
    for i in range(peak, 0, -1):
        if v[i - 1] <= half < v[i]:
            left = (i - 1) + (half - v[i - 1]) / (v[i] - v[i - 1])
            break
    right = None
    for i in range(peak, v.size - 1):
        if v[i + 1] <= half < v[i]:
            right = i + (v[i] - half) / (v[i] - v[i + 1])
            break
    if left is None or right is None:
        raise EdgePeak("half maximum is not crossed inside the profile")
    return float((right - left) * bin_width_m)


@lru_cache(maxsize=64)
def _system(order: int, kind: str) -> demux.CirculantSystem:
    """The solver of an order and kind, built once per process, as
    ``generate_s_sequence`` builds the code once; CirculantSystem is
    immutable, so every caller may share it.  Built through the module
    attribute ``demux.build_system``, so a wrapper put there sees each
    build."""
    return demux.build_system(codes.generate_s_sequence(order), kind)


def reconstruct_profile(
    folded: np.ndarray,
    cfg: AcquisitionConfig,
    kind: str = "spectral",
    *,
    extract: bool = True,
) -> np.ndarray:
    """Depth profiles of a stack of period means, (..., order, K) -> (..., bins).

    folded holds ``demux.average_periods`` results, so a stream is
    reconstructed, whether in memory or chunked, as
    ``reconstruct_profile(average_periods(chunks, cfg), cfg)``, and
    ``simulator.scan_2d`` and the SNR sweep call it once a block of
    ``simulator.draw_folded`` rows.
    The one reconstruction path: a coded stack is demultiplexed by one
    ``demux.demultiplex_stream`` call with the solver of the given kind,
    built once per order and kind in a process; a single-pulse stack is
    its flattened period means; then one envelope
    extraction runs unless ``extract=False``.  In either mode a kind not
    in ``demux.SOLVER_KINDS`` raises ConfigError, and period means, read
    as float64, whose last two axes are not (cfg.order,
    cfg.subsets_per_cycle) raise LengthMismatch, before any solve.  Each
    row depends only on its own period mean, bit for bit, whatever the
    stack size.  The result is a float64 array; bin m of a row lies at
    depth m * cfg.bin_width_m.  The spectral solve and
    the extraction work in row blocks, so besides folded a stack holds
    its demultiplexed signal, its envelope and one block of scratch at
    a time; the dense solve's one gesv over the stack takes stack-sized
    copies of its own before the extraction starts.  A result that is
    not finite, as from an overflow, raises NonFiniteSamples, unwarned.
    """
    if kind not in demux.SOLVER_KINDS:
        raise ConfigError(f"solver kind must be one of {demux.SOLVER_KINDS}, got {kind!r}")
    folded = np.asarray(folded, dtype=np.float64)
    frame = (cfg.order, cfg.subsets_per_cycle)
    if folded.shape[-2:] != frame:
        raise LengthMismatch(f"period means of shape {folded.shape} need frames {frame}")
    with np.errstate(over="ignore", invalid="ignore"):
        if cfg.mode == MODE_CODED:
            profile = demux.demultiplex_stream(_system(cfg.order, kind), folded)
        else:
            profile = folded.reshape(folded.shape[:-2] + (-1,))
        if extract:
            profile = extract_modulated(profile, cfg.f_us, cfg.f_s)
    if not np.isfinite(profile).all():
        raise NonFiniteSamples("the reconstructed profile is not finite: its samples overflow")
    return profile


def measure_snr(
    cfg: AcquisitionConfig,
    ph: Phantom,
    n_trials: int,
    *,
    subtract_noise_floor: bool = False,
) -> np.ndarray:
    """Monte-Carlo SNR of the reconstructed profile, as the float64 (3,)
    array of signal mean, noise std and SNR; the SNR is inf when the
    noise std vanished.  A signal mean or noise std that is not finite,
    as from an overflow, raises NonFiniteSamples, unwarned.

    Signal is the mean over trials of the amplitude at the peak bin of
    the noise-free reference (NoPeak if it has none, before any trial
    seed is derived); noise is the std over trials of the amplitude at
    the signal-free bin farthest from that peak.  With
    ``subtract_noise_floor`` the mean off-peak amplitude (the envelope
    detector's Rayleigh floor) is removed from the signal first.

    Trial t is the (order, K) mean of a stream's p complete periods,
    drawn folded: the noise-free period plus sigma / sqrt(p) times the
    standard normals of ``default_rng(derive_seed(cfg.seed, TRIAL_SALT,
    t))`` (``simulator.draw_folded``).  This is the one-config case of
    the sweep's Monte-Carlo path, ``_measure_snrs``: its statistics
    equal those of the same config measured beside others in a sweep,
    bit for bit, and no stream is made.
    """
    return _measure_snrs([cfg], ph, n_trials, subtract_noise_floor)[0]


def _measure_snrs(
    cfgs: list[AcquisitionConfig],
    ph: Phantom,
    n_trials: int,
    subtract_noise_floor: bool,
) -> np.ndarray:
    """The (len(cfgs), 3) statistics of the configs, each row as
    ``measure_snr`` returns it, from one pass over the trials.

    Before any seed is derived, the per-trial amplitudes are allocated
    (a run too large for memory raises MemoryError), and each config's
    noise-free period is simulated and reconstructed once, as one
    (order, K) frame: that reference fixes its peak and off bins, or
    raises NoPeak.  One ``simulator.draw_folded`` pass then draws, block
    of rows by block of rows, each config's trials (row t is trial t);
    configs whose trial seeds are equal (every config of a sweep) share
    one generator per trial, drawn to the longest period among them.
    Each config's block is reconstructed by one ``reconstruct_profile``
    call, keeping only its trials' amplitudes at the reference's bins.
    Each trial's profile equals that of its own folded draw reconstructed
    alone, bit for bit, so the statistics do not depend on the block
    size or the configs measured beside each other.
    """
    if n_trials < 2:
        raise ConfigError("n_trials must be at least 2")
    shape = (len(cfgs), 2, n_trials)  # the peak and off-bin amplitude of each trial
    if math.prod(shape) > np.iinfo(np.intp).max // 8:  # numpy refuses the shape
        raise MemoryError(f"the amplitudes of {n_trials} trials of {len(cfgs)} configs")
    amplitudes = np.empty(shape)
    periods = [simulator.clean_period(cfg, ph) for cfg in cfgs]
    bins = []  # each config's peak and off bin
    for cfg, period in zip(cfgs, periods):
        reference = reconstruct_profile(period.reshape(cfg.order, -1), cfg)
        peak_bin = int(np.argmax(reference))
        if reference[peak_bin] <= 0:
            raise NoPeak("noise-free reference profile is empty")
        bins.append([peak_bin, 0 if peak_bin >= reference.size // 2 else reference.size - 1])
    trials = [np.broadcast_to(p, (n_trials, p.size)) for p in periods]  # one period each
    # partial binds each config's own seed now; the trial seeds are derived as read
    seeds = [map(partial(derive_seed, cfg.seed, TRIAL_SALT), range(n_trials)) for cfg in cfgs]
    for lo, folded in simulator.draw_folded(cfgs, trials, seeds):
        for cfg, stack, amps, cols in zip(cfgs, folded, amplitudes, bins):
            amps[:, lo : lo + len(stack)] = reconstruct_profile(stack, cfg)[:, cols].T
    peaks, offs = amplitudes[:, 0], amplitudes[:, 1]
    with np.errstate(all="ignore"):  # an overflow is raised below, unwarned
        signal = peaks.mean(axis=-1) - (offs.mean(axis=-1) if subtract_noise_floor else 0.0)
        noise = offs.std(axis=-1, ddof=1)
        snr = np.where(noise == 0, np.inf, signal / noise)
    for cfg, finite in zip(cfgs, np.isfinite(signal) & np.isfinite(noise)):
        if not finite:
            raise NonFiniteSamples(
                f"the signal mean or noise std of order {cfg.order} {cfg.mode} overflows"
            )
    return np.stack([signal, noise, snr], axis=-1)


def _max_rate_order(cfg: AcquisitionConfig, ph: Phantom) -> int:
    """Smallest repetition period (in carrier cycles) keeping one pulse in
    the medium at a time."""
    k = cfg.subsets_per_cycle
    occupied_bins = (ph.boundary_z_m + ph.depth_extent_m) / (cfg.c / cfg.f_s)
    return max(1, math.ceil(occupied_bins / k))


def multiplexing_advantage(
    cfg_base: AcquisitionConfig,
    ph: Phantom,
    plan: SweepPlan,
) -> tuple[np.ndarray, np.ndarray]:
    """SNR statistics of coded and single-pulse acquisition per order.

    Both modes run for cfg_base.duration_s (equal wall-clock time), at
    each of the plan's orders, sorted and without repeats, with the
    plan's single-pulse reference.  Returns (orders, stats): orders, an
    int64 (n, 2) array, holds the coded and the single-pulse order of
    each swept order, and stats, a float64 (n, 2, 3) array, the coded
    then the single-pulse statistics, each as ``measure_snr`` returns
    them.  The measured gain is ``stats[:, 0, 2] / stats[:, 1, 2]``.
    Without noise every SNR is infinite, so a zero noise_sigma raises
    ConfigError before any trial is drawn, and so does, after the
    trials, a noise std of 0 in any order and mode, as from a
    noise_sigma so small that the noise rounds away.

    Every order and mode shares cfg_base's seed, so trial t has the same
    seed in each: one ``_measure_snrs`` pass draws each trial's normals
    once, to the longest period among them, and each order and mode
    scales its own prefix of them.  Each row of stats equals
    ``measure_snr`` on its config alone, bit for bit.
    """
    if cfg_base.noise_sigma == 0:
        raise ConfigError("noise_sigma must be positive to measure an SNR gain")
    orders = np.array([[n, n] for n in sorted(set(map(int, plan.orders)))], dtype=np.int64)
    if plan.reference != "matched":
        orders[:, 1] = _max_rate_order(cfg_base, ph)
    cfgs = [
        replace(cfg_base, mode=mode, order=n)
        for row in orders.tolist()
        for mode, n in zip(MODES, row)
    ]
    stats = _measure_snrs(cfgs, ph, plan.n_trials, plan.subtract_noise_floor)
    for cfg, noise in zip(cfgs, stats[:, 1].tolist()):
        if noise == 0:
            raise ConfigError(
                f"the trial noise of order {cfg.order} {cfg.mode} vanished: noise_sigma = "
                f"{cfg.noise_sigma!r} is too small to measure an SNR gain"
            )
    return orders, stats.reshape(-1, 2, 3)
