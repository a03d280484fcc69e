"""Run configuration files: flat key=value text with [sections].

A run manifest is the same format with every value resolved, so a
manifest can be fed back in as the config of an identical run.

The [acquisition] keys are the fields of ``AcquisitionConfig`` in
declaration order: the config key is the attribute name, or its
unit-suffixed form from ``_UNIT_KEYS``; the type and default are the
field's own.  Stream headers use the attribute names of the same fields.
"""

from __future__ import annotations

import configparser
import functools
import typing
from dataclasses import MISSING, dataclass, fields
from operator import attrgetter
from pathlib import Path

from .errors import ConfigError
from .simulator import MODE_CODED, AcquisitionConfig, Phantom

# attribute -> config key, where the key carries a unit suffix
_UNIT_KEYS = {
    "f_us": "f_us_hz",
    "f_s": "f_s_hz",
    "c": "sound_speed_m_s",
    "water_sound_speed": "water_sound_speed_m_s",
}
# defaults a config file may rely on that AcquisitionConfig does not set
_CONFIG_DEFAULTS = {"mode": MODE_CODED, "order": 79}


@functools.cache
def acquisition_fields() -> tuple[tuple[str, str, type, object], ...]:
    """(attribute, config key, type, default or None if required) per field."""
    hints = typing.get_type_hints(AcquisitionConfig)
    return tuple(
        (
            f.name,
            _UNIT_KEYS.get(f.name, f.name),
            hints[f.name],
            _CONFIG_DEFAULTS.get(f.name) if f.default is MISSING else f.default,
        )
        for f in fields(AcquisitionConfig)
    )


# config key -> (type, default or None if required, resolved value for the manifest)
_ACQ_KEYS = {
    key: (kind, default, attrgetter(f"acquisition.{attr}"))
    for attr, key, kind, default in acquisition_fields()
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

_SCAN_KEYS = {
    "x_min_m": (float, 0.0, lambda rc: rc.scan_x[0]),
    "x_max_m": (float, 0.0, lambda rc: rc.scan_x[1]),
    "y_min_m": (float, 0.0, lambda rc: rc.scan_y[0]),
    "y_max_m": (float, 0.0, lambda rc: rc.scan_y[1]),
    "step_m": (float, 0.0005, lambda rc: rc.scan_step),
}

_SWEEP_KEYS = {
    "orders": (str, "7,19,31,79", lambda rc: ",".join(map(str, rc.sweep_orders))),
    "n_trials": (int, 200, lambda rc: rc.sweep_trials),
    "reference": (str, "matched", lambda rc: rc.sweep_reference),
    "subtract_noise_floor": (bool, False, lambda rc: rc.sweep_subtract_noise_floor),
}

_SECTIONS = {
    "acquisition": _ACQ_KEYS,
    "phantom": _PHANTOM_KEYS,
    "scan": _SCAN_KEYS,
    "sweep": _SWEEP_KEYS,
}


def format_value(value, kind: type = float) -> str:
    """Text form of a value of the given type; floats in shortest round-trip form."""
    if kind is float:
        return repr(float(value))
    if kind is bool:
        return "true" if value else "false"
    return str(value)


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved parameters for one CLI run."""

    acquisition: AcquisitionConfig
    phantom: Phantom
    scan_x: tuple[float, float]
    scan_y: tuple[float, float]
    scan_step: float
    sweep_orders: tuple[int, ...]
    sweep_trials: int
    sweep_reference: str
    sweep_subtract_noise_floor: bool


def _coerce(section: str, key: str, raw: str, kind):
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

    acq = _read_section(parser, "acquisition")
    pha = _read_section(parser, "phantom")
    scan = _read_section(parser, "scan")
    sweep = _read_section(parser, "sweep")

    acquisition = AcquisitionConfig(
        **{attr: acq[key] for attr, key, _, _ in acquisition_fields()}
    )
    phantom = Phantom(
        mu_s_prime=pha["mu_s_prime_per_cm"],
        mu_a=pha["mu_a_per_cm"],
        src_pos=(pha["src_x_m"], pha["src_y_m"], pha["boundary_z_m"]),
        det_pos=(pha["det_x_m"], pha["det_y_m"], pha["boundary_z_m"]),
        sound_speed=pha["sound_speed_m_s"],
        depth_extent=pha["depth_extent_m"],
    )
    try:
        orders = tuple(int(tok) for tok in sweep["orders"].split(",") if tok.strip())
    except ValueError as exc:
        raise ConfigError(f"[sweep] orders: {exc}") from exc
    if sweep["reference"] not in ("matched", "max-rate"):
        raise ConfigError("[sweep] reference must be matched or max-rate")
    return RunConfig(
        acquisition=acquisition,
        phantom=phantom,
        scan_x=(scan["x_min_m"], scan["x_max_m"]),
        scan_y=(scan["y_min_m"], scan["y_max_m"]),
        scan_step=scan["step_m"],
        sweep_orders=orders,
        sweep_trials=sweep["n_trials"],
        sweep_reference=sweep["reference"],
        sweep_subtract_noise_floor=sweep["subtract_noise_floor"],
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
