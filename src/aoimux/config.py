"""A run's configuration: its four records, their rules, and its file format.

This module owns a run's schema.  ``AcquisitionConfig``, ``Phantom``,
``ScanGrid`` and ``SweepPlan`` hold the values of the four sections;
each checks every rule on its values when it is built, so every command
rejects a bad value in any section.  Config files are flat key=value
text with [sections], and a run manifest is the same format with every
value resolved, so a manifest can be fed back in as the config of an
identical run.

The sections are the fields of ``RunConfig``, in declaration order, and
each section's keys are the fields of its record in declaration order
(``record_fields``): the config key is the attribute name, or its
unit-suffixed form from ``_UNIT_KEYS``; the type and default are the
field's own, and a tuple of orders is written comma-separated.  A
section may be left out only when its record has a default for every
field.  The config is a run's whole plan: no command-line flag
overrides a section.  Stream headers use the attribute names of the
``AcquisitionConfig`` fields.
"""

from __future__ import annotations

import configparser
import functools
import math
import typing
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

from . import codes
from .errors import ConfigError, InvalidOrder, NonIntegerRatio

SPEED_OF_SOUND_WATER = 1482.0  # m/s, distilled water near room temperature

MODE_SINGLE_PULSE = "single-pulse"
MODE_CODED = "coded"
MODES = (MODE_CODED, MODE_SINGLE_PULSE)  # in the order of an SNR sweep's statistics

_CM_TO_M = 100.0  # 1/cm -> 1/m for optical coefficients


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
        if self.mode not in MODES:
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
        if not math.isfinite(self.duration_s * self.f_s):
            raise ConfigError("the sample count duration_s * f_s must be finite")
        if self.period_samples > np.iinfo(np.intp).max // 8:  # numpy refuses the shape
            raise ConfigError(f"a period of {self.period_samples} samples is too large")
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


# AcquisitionConfig attribute -> config key, where the key carries a unit suffix
_UNIT_KEYS = {
    "f_us": "f_us_hz",
    "f_s": "f_s_hz",
    "c": "sound_speed_m_s",
    "water_sound_speed": "water_sound_speed_m_s",
}
_ORDERS = tuple[int, ...]  # the type of SweepPlan.orders


@functools.cache
def record_fields(record: type) -> tuple[tuple[str, str, type, object], ...]:
    """(attribute, config key, type, default or None if required) per field
    of a config record class."""
    hints = typing.get_type_hints(record)
    return tuple(
        (
            f.name,
            _UNIT_KEYS.get(f.name, f.name),
            hints[f.name],
            None if f.default is MISSING else f.default,
        )
        for f in fields(record)
    )


def format_value(value, kind: type = float) -> str:
    """Text form of a value of the given type; floats in shortest round-trip form."""
    if kind is float:
        return repr(float(value))
    if kind is bool:
        return "true" if value else "false"
    if kind == _ORDERS:
        return ",".join(map(str, value))
    return str(value)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters for one CLI run; the fields are the sections."""

    acquisition: AcquisitionConfig
    phantom: Phantom
    scan: ScanGrid
    sweep: SweepPlan


_SECTIONS = typing.get_type_hints(RunConfig)  # section name -> record class


def _coerce(section: str, key: str, raw: str, kind):
    try:
        if kind == _ORDERS:  # comma-separated; empty items are skipped
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        if kind is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return kind(raw)
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _read_section(parser: configparser.ConfigParser, name: str, record: type):
    """The section's record; a key left out takes the field's default."""
    present = dict(parser[name]) if parser.has_section(name) else {}
    spec = record_fields(record)
    unknown = set(present) - {key for _, key, _, _ in spec}
    if unknown:
        raise ConfigError(f"[{name}]: unknown keys {sorted(unknown)}")
    values = {}
    for attr, key, kind, default in spec:
        if key in present:
            values[attr] = _coerce(name, key, present[key], kind)
        elif default is None:
            raise ConfigError(f"[{name}]: missing required key {key}")
    return record(**values)


def parse_run_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(Path(path).read_text(encoding="utf-8"), source=str(path))
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    unknown = set(parser.sections()) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")
    for name, record in _SECTIONS.items():
        required = any(default is None for *_, default in record_fields(record))
        if required and not parser.has_section(name):
            raise ConfigError(f"{path}: missing [{name}] section")
    return RunConfig(
        **{name: _read_section(parser, name, record) for name, record in _SECTIONS.items()}
    )


def manifest_text(rc: RunConfig) -> str:
    """Config text with every parameter resolved; reparsing it reproduces rc."""
    sections = []
    for name in _SECTIONS:
        record = getattr(rc, name)
        lines = [f"[{name}]"]
        for attr, key, kind, _ in record_fields(type(record)):
            lines.append(f"{key} = {format_value(getattr(record, attr), kind)}")
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"


def write_manifest(rc: RunConfig, path: str | Path) -> None:
    # fileio imports this module; write_manifest stays here, where the
    # benchmark traces it as config.write_manifest
    from .fileio import _write_text

    _write_text(path, manifest_text(rc))
