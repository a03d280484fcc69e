"""Run configuration files: flat key=value text with [sections].

A run manifest is the same format with every value resolved, so a
manifest can be fed back in as the config of an identical run.

The [acquisition], [scan] and [sweep] keys are the fields of
``AcquisitionConfig``, ``ScanGrid`` and ``SweepPlan`` in declaration
order (``record_fields``): the config key is the attribute name, or its
unit-suffixed form from ``_UNIT_KEYS``; the type and default are the
field's own, and a tuple of orders is written comma-separated.  Each
record checks its values when it is built, so every command rejects a
bad value in any of these sections.  The [phantom] keys do not map one
to one onto ``Phantom``'s fields, so they stay a hand table.  Stream
headers use the attribute names of the ``AcquisitionConfig`` fields.
"""

from __future__ import annotations

import configparser
import functools
import typing
from dataclasses import MISSING, dataclass, fields
from operator import attrgetter
from pathlib import Path

from .errors import ConfigError
from .pipeline import SweepPlan
from .simulator import MODE_CODED, AcquisitionConfig, Phantom, ScanGrid

# AcquisitionConfig attribute -> config key, where the key carries a unit suffix
_UNIT_KEYS = {
    "f_us": "f_us_hz",
    "f_s": "f_s_hz",
    "c": "sound_speed_m_s",
    "water_sound_speed": "water_sound_speed_m_s",
}
# defaults a config file may rely on that AcquisitionConfig does not set
_CONFIG_DEFAULTS = {"mode": MODE_CODED, "order": 79}
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
            _CONFIG_DEFAULTS.get(f.name) if f.default is MISSING else f.default,
        )
        for f in fields(record)
    )


# A section's key table maps config key -> (type, default or None if
# required, resolved value for the manifest).
def _record_keys(section: str, record: type) -> dict:
    return {
        key: (kind, default, attrgetter(f"{section}.{attr}"))
        for attr, key, kind, default in record_fields(record)
    }


_PHANTOM_KEYS = {
    "mu_s_prime_per_cm": (float, None, lambda rc: rc.phantom.mu_s_prime),
    "mu_a_per_cm": (float, None, lambda rc: rc.phantom.mu_a),
    "src_x_m": (float, None, lambda rc: rc.phantom.src_pos[0]),
    "src_y_m": (float, 0.0, lambda rc: rc.phantom.src_pos[1]),
    "det_x_m": (float, None, lambda rc: rc.phantom.det_pos[0]),
    "det_y_m": (float, 0.0, lambda rc: rc.phantom.det_pos[1]),
    "boundary_z_m": (float, 0.0, lambda rc: rc.phantom.boundary_z),
    "sound_speed_m_s": (float, None, lambda rc: rc.phantom.sound_speed),
    "depth_extent_m": (float, None, lambda rc: rc.phantom.depth_extent),
}

_SECTIONS = {
    "acquisition": _record_keys("acquisition", AcquisitionConfig),
    "phantom": _PHANTOM_KEYS,
    "scan": _record_keys("scan", ScanGrid),
    "sweep": _record_keys("sweep", SweepPlan),
}


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
    """Fully resolved parameters for one CLI run."""

    acquisition: AcquisitionConfig
    phantom: Phantom
    scan: ScanGrid
    sweep: SweepPlan


def _coerce(section: str, key: str, raw: str, kind):
    if kind == _ORDERS:
        return parse_orders(raw, f"[{section}] {key}")
    try:
        if kind is bool:
            low = raw.strip().lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError(raw)
        return kind(raw)
    except ValueError as exc:
        raise ConfigError(f"[{section}] {key}: cannot parse {raw!r}") from exc


def _read_section(parser: configparser.ConfigParser, name: str) -> dict:
    spec = _SECTIONS[name]
    present = dict(parser[name]) if parser.has_section(name) else {}
    unknown = set(present) - set(spec)
    if unknown:
        raise ConfigError(f"[{name}]: unknown keys {sorted(unknown)}")
    out = {}
    for key, (kind, default, _) in spec.items():
        if key in present:
            out[key] = _coerce(name, key, present[key], kind)
        elif default is None:
            raise ConfigError(f"[{name}]: missing required key {key}")
        else:
            out[key] = default
    return out


def parse_orders(text: str, source: str) -> tuple[int, ...]:
    """Code orders from comma-separated text; empty items are skipped.
    A ConfigError names the source of the text."""
    try:
        return tuple(int(tok) for tok in text.split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def parse_run_config(path: str | Path) -> RunConfig:
    parser = configparser.ConfigParser(interpolation=None)
    text = Path(path).read_text()
    try:
        parser.read_string(text, source=str(path))
    except configparser.Error as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    unknown = set(parser.sections()) - set(_SECTIONS)
    if unknown:
        raise ConfigError(f"{path}: unknown sections {sorted(unknown)}")
    for required in ("acquisition", "phantom"):
        if not parser.has_section(required):
            raise ConfigError(f"{path}: missing [{required}] section")

    values = {name: _read_section(parser, name) for name in _SECTIONS}

    def record(cls, section):
        return cls(**{attr: values[section][key] for attr, key, _, _ in record_fields(cls)})

    pha = values["phantom"]
    return RunConfig(
        acquisition=record(AcquisitionConfig, "acquisition"),
        phantom=Phantom(
            mu_s_prime=pha["mu_s_prime_per_cm"],
            mu_a=pha["mu_a_per_cm"],
            src_pos=(pha["src_x_m"], pha["src_y_m"], pha["boundary_z_m"]),
            det_pos=(pha["det_x_m"], pha["det_y_m"], pha["boundary_z_m"]),
            sound_speed=pha["sound_speed_m_s"],
            depth_extent=pha["depth_extent_m"],
        ),
        scan=record(ScanGrid, "scan"),
        sweep=record(SweepPlan, "sweep"),
    )


def manifest_text(rc: RunConfig) -> str:
    """Config text with every parameter resolved; reparsing it reproduces rc."""
    sections = []
    for name, spec in _SECTIONS.items():
        lines = [f"[{name}]"]
        for key, (kind, _, get) in spec.items():
            lines.append(f"{key} = {format_value(get(rc), kind)}")
        sections.append("\n".join(lines))
    return "\n\n".join(sections) + "\n"


def write_manifest(rc: RunConfig, path: str | Path) -> None:
    Path(path).write_text(manifest_text(rc))
