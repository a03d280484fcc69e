"""Envelope extraction, depth-profile metrics and SNR experiments."""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import codes, demux, simulator
from .demux import DepthProfile
from .errors import (
    ConfigError,
    EdgePeak,
    InsufficientSamples,
    InvalidOrder,
    NoPeak,
    NyquistViolation,
)
from .seeding import TRIAL_SALT, derive_seed


def exact_multiplexing_gain(order: int) -> float:
    """Exact gain (N + 1) / (2 sqrt(N)) implied by the inverse row norm."""
    return (order + 1) / (2.0 * math.sqrt(order))


def _circular_box_mean(x: np.ndarray, width: int) -> np.ndarray:
    """Centered circular moving average along the last axis; the window
    covers width samples."""
    n = x.shape[-1]
    if n < width:
        raise InsufficientSamples(f"{n} samples < smoothing window {width}")
    half = width // 2
    ext = np.concatenate([x[..., -half:], x, x[..., : width - half]], axis=-1)
    csum = np.cumsum(ext, axis=-1)
    csum = np.concatenate([np.zeros(x.shape[:-1] + (1,)), csum], axis=-1)
    return (csum[..., width:] - csum[..., :-width])[..., :n] / width


def extract_modulated(profile: DepthProfile, f_us: float, f_s: float) -> DepthProfile:
    """Quadrature-demodulate the carrier out of a demultiplexed signal.

    Mixes with cos and sin at f_us, low-passes each branch over exactly
    one carrier period (circular window; profiles cover whole periods)
    and returns the profile with values 2 sqrt(I^2 + Q^2), which for a
    clean carrier of amplitude A is A.  Works along the last axis, so a
    stack of signals is demodulated row by row in one pass.  The envelope
    peak of a single pulse lands up to one carrier period shy of the
    pulse's trailing bin, an offset inherent to envelope detection.
    """
    k = simulator.integer_ratio(f_s, f_us)
    if k < 2:
        raise NyquistViolation(f"f_s = {f_s} is below twice f_us = {f_us}")
    values = profile.values
    phase = 2.0 * np.pi * f_us / f_s * np.arange(values.shape[-1])
    i_arm = _circular_box_mean(values * np.cos(phase), k)
    q_arm = _circular_box_mean(values * np.sin(phase), k)
    return replace(profile, values=2.0 * np.hypot(i_arm, q_arm))


def measure_fwhm(profile: DepthProfile) -> float:
    """Full width at half maximum of the profile peak, in meters.

    Crossing points are linearly interpolated.  Raises NoPeak for a flat
    profile and EdgePeak when the maximum sits on the boundary or the
    half level is never crossed on one side.
    """
    v = profile.values
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
    return float((right - left) * profile.bin_width_m)


def reconstruct_profile(
    folded: np.ndarray,
    cfg: simulator.AcquisitionConfig,
    kind: str = "spectral",
    *,
    extract: bool = True,
) -> DepthProfile:
    """Depth profiles of a stack of period means, (..., order, K) -> (..., bins).

    folded holds ``demux.average_periods`` results, so a stream is
    reconstructed, whether in memory or chunked, as
    ``reconstruct_profile(average_periods(chunks, cfg), cfg)``.
    The one reconstruction path: a coded stack is demultiplexed by one
    ``demux.demultiplex_stream`` call with the solver of the given kind, a
    single-pulse stack is its flattened period means; then one envelope
    extraction runs unless ``extract=False``.  Each row depends only on
    its own period mean, bit for bit, whatever the stack size.  The
    profile's bins are cfg.bin_width_m wide.
    """
    if cfg.mode == simulator.MODE_CODED:
        system = demux.build_system(codes.generate_s_sequence(cfg.order), kind)
        raw = demux.demultiplex_stream(system, folded)
    else:
        raw = folded.reshape(folded.shape[:-2] + (-1,))
    profile = DepthProfile(raw, bin_width_m=cfg.bin_width_m)
    if not extract:
        return profile
    return extract_modulated(profile, cfg.f_us, cfg.f_s)


@dataclass(frozen=True)
class SnrReport:
    """Trial statistics at the reference peak bin of one acquisition mode;
    snr is inf when noise_std vanished."""

    mode: str
    order: int
    n_trials: int
    signal_mean: float
    noise_std: float
    snr: float


@dataclass(frozen=True)
class AdvantageCurve:
    """Measured and theoretical SNR gain versus code order, computed from
    reports: the coded, then the single-pulse SnrReport of each order."""

    reports: tuple[SnrReport, ...]

    @property
    def orders(self) -> list[int]:
        return [coded.order for coded in self.reports[::2]]

    @property
    def measured_gain(self) -> list[float]:
        pairs = zip(self.reports[::2], self.reports[1::2])
        return [coded.snr / single.snr for coded, single in pairs]

    @property
    def theoretical_gain(self) -> list[float]:
        return [exact_multiplexing_gain(n) for n in self.orders]


def measure_snr(
    cfg: simulator.AcquisitionConfig,
    ph: simulator.Phantom,
    n_trials: int,
    *,
    subtract_noise_floor: bool = False,
) -> SnrReport:
    """Monte-Carlo SNR of the reconstructed profile.

    Signal is the mean over trials of the amplitude at the peak bin of
    the noise-free reference; noise is the std over trials of the
    amplitude at the signal-free bin farthest from that peak.  With
    ``subtract_noise_floor`` the mean off-peak amplitude (the envelope
    detector's Rayleigh floor) is removed from the signal first.

    One batched path: the noise-free period is simulated once; trial t
    is that period repeated plus the noise of ``default_rng(derive_seed(
    cfg.seed, TRIAL_SALT, t))`` (``simulator.noisy_chunks``, the draw
    ``stream_chunks`` makes), folded chunk by chunk by
    ``demux.average_periods`` into one row of an (n_trials + 1, order, K)
    stack whose row 0 is the noise-free reference.  One
    ``reconstruct_profile`` call then solves and extracts every row, so
    each trial equals the profile of its own stream reconstructed alone,
    bit for bit, and no stream is ever held whole.  A stack too large for
    numpy to shape raises MemoryError, as one too large to allocate does.
    """
    if n_trials < 2:
        raise ConfigError("n_trials must be at least 2")
    period = simulator.clean_period(cfg, ph)
    shape = (n_trials + 1, cfg.order, cfg.subsets_per_cycle)
    if math.prod(shape) > np.iinfo(np.intp).max // 8:  # numpy refuses the shape
        raise MemoryError(f"a stack of {n_trials} trials of shape {shape[1:]}")
    folded = np.empty(shape)
    clean = simulator.noisy_chunks(period, cfg.n_samples, 0.0, cfg.seed)
    folded[0] = demux.average_periods(clean, cfg)  # raises without a complete period
    # only the complete periods are folded, so only their noise is drawn
    used = cfg.n_samples - cfg.n_samples % period.size
    for t in range(n_trials):
        seed = derive_seed(cfg.seed, TRIAL_SALT, t)
        chunks = simulator.noisy_chunks(period, used, cfg.noise_sigma, seed)
        folded[t + 1] = demux.average_periods(chunks, cfg)
    profiles = reconstruct_profile(folded, cfg).values

    reference = profiles[0]
    peak_bin = int(np.argmax(reference))
    if reference[peak_bin] <= 0:
        raise NoPeak("noise-free reference profile is empty")
    off_bin = 0 if peak_bin >= reference.size // 2 else reference.size - 1
    peaks = profiles[1:, peak_bin]
    offs = profiles[1:, off_bin]

    signal = float(peaks.mean())
    if subtract_noise_floor:
        signal -= float(offs.mean())
    noise = float(offs.std(ddof=1))
    snr = signal / noise if noise else math.inf
    return SnrReport(cfg.mode, cfg.order, n_trials, signal, noise, snr)


def _max_rate_order(cfg: simulator.AcquisitionConfig, ph: simulator.Phantom) -> int:
    """Smallest repetition period (in carrier cycles) keeping one pulse in
    the medium at a time."""
    k = cfg.subsets_per_cycle
    occupied_bins = (ph.boundary_z_m + ph.depth_extent_m) / (cfg.c / cfg.f_s)
    return max(1, math.ceil(occupied_bins / k))


@dataclass(frozen=True)
class SweepPlan:
    """An SNR sweep; the fields are the [sweep] config keys.

    ``reference`` picks the single-pulse reference: "matched" fires one
    pulse per code length, prf = f_us / N; "max-rate" packs pulses as
    tightly as the medium allows, which lowers the measured advantage by
    the square root of the rate ratio.  Every rule is checked when the
    plan is built: ``orders`` must be usable code orders, at least one,
    and ``n_trials`` at least 2.
    """

    orders: tuple[int, ...] = (7, 19, 31, 79)
    n_trials: int = 200  # Monte-Carlo trials per order and mode
    reference: str = "matched"  # "matched" | "max-rate"
    subtract_noise_floor: bool = False

    def __post_init__(self):
        if not self.orders:
            raise ConfigError("orders list is empty")
        try:
            for n in self.orders:
                codes.check_order(n)
        except InvalidOrder as exc:
            raise ConfigError(f"sweep {exc}") from exc
        if self.n_trials < 2:
            raise ConfigError("n_trials must be at least 2")
        if self.reference not in ("matched", "max-rate"):
            raise ConfigError(
                f"sweep reference must be matched or max-rate, got {self.reference!r}"
            )


def multiplexing_advantage(
    cfg_base: simulator.AcquisitionConfig,
    ph: simulator.Phantom,
    plan: SweepPlan,
) -> AdvantageCurve:
    """Measured SNR gain of coded over single-pulse acquisition per order.

    Both modes run for cfg_base.duration_s (equal wall-clock time), at
    each of the plan's orders, sorted and without repeats, with the
    plan's single-pulse reference.  The curve's reports hold the coded
    and single-pulse SnrReport of each order.  Without noise every SNR
    is infinite, so a zero noise_sigma raises ConfigError.
    """
    if cfg_base.noise_sigma == 0:
        raise ConfigError("noise_sigma must be positive to measure an SNR gain")
    reports: list[SnrReport] = []
    for n in sorted(set(int(n) for n in plan.orders)):
        coded_cfg = replace(cfg_base, mode=simulator.MODE_CODED, order=n)
        sp_order = n if plan.reference == "matched" else _max_rate_order(cfg_base, ph)
        sp_cfg = replace(cfg_base, mode=simulator.MODE_SINGLE_PULSE, order=sp_order)
        reports += [
            measure_snr(c, ph, plan.n_trials, subtract_noise_floor=plan.subtract_noise_floor)
            for c in (coded_cfg, sp_cfg)
        ]
    return AdvantageCurve(tuple(reports))
