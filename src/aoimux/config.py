"""Run configuration files: flat key=value text with [sections].

A run manifest is the same format with every value resolved, so a
manifest can be fed back in as the config of an identical run.

The sections are the fields of ``RunConfig``, in declaration order, and
each section's keys are the fields of its record (``AcquisitionConfig``,
``Phantom``, ``ScanGrid``, ``SweepPlan``) in declaration order
(``record_fields``): the config key is the attribute name, or its
unit-suffixed form from ``_UNIT_KEYS``; the type and default are the
field's own, and a tuple of orders is written comma-separated.  A
section may be left out only when its record has a default for every
field.  Each record checks every rule on its values when it is built,
so every command rejects a bad value in any section.  The config is a
run's whole plan: no command-line flag overrides a section.  Stream
headers use the attribute names of the ``AcquisitionConfig`` fields.
"""

from __future__ import annotations

import configparser
import functools
import typing
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

from .errors import ConfigError
from .pipeline import SweepPlan
from .simulator import AcquisitionConfig, Phantom, ScanGrid

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
    from .fileio import _write_text  # fileio imports this module

    _write_text(path, manifest_text(rc))
