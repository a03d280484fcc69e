"""The four workloads: the configs each one generates and the CLI steps of one iteration.

An iteration runs only the workload's own commands, at scale, so that
the time of one iteration is the time of the work the workload is
about and not of interpreter starts.
"""

from __future__ import annotations

import configparser
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import oracles

# snr-sweep trials on the sweep workload: 8 * 501 = 4008 simulated streams.
SWEEP_TRIALS = 500
SWEEP_ORDERS = (7, 19, 31, 79)
# scan2d duration per position on the scan workload (500 k samples).
SCAN_DURATION_S = 0.1
HIGH_ORDER = 1019
MAX_VALID_ORDER = 1048571  # largest prime = 3 mod 4 below aoimux.codes.MAX_ORDER
HIGH_PERIODS = 4
PROFILE_RTOL = 1e-8  # dense against spectral, as in acceptance criterion 2


@dataclass(frozen=True)
class Step:
    """One CLI invocation; "{cfg}" and "{it}" in args name the run's config
    directory and the iteration's output directory."""

    command: str
    out: str
    args: tuple[str, ...] = ()


@dataclass(frozen=True)
class Check:
    """An oracle over one iteration's outputs; a miss fails the invocation of ``step``."""

    step: str
    run: Callable[[Path], str | None]


@dataclass(frozen=True)
class Part:
    """Steps of one iteration with their oracles and the derive_seed calls they make."""

    steps: tuple[Step, ...]
    checks: tuple[Check, ...] = ()
    seeds: int = 0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    configs: dict[str, str]  # file name -> text
    config: str  # the workload's own config, "<name>.cfg"; setup_s parses it
    steps: tuple[Step, ...]
    checks: tuple[Check, ...]
    seeds_per_iteration: int


def _derive(base: Path, seed: int, overrides: dict[str, dict[str, object]]) -> str:
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(base.read_text(), source=str(base))
    parser["acquisition"]["seed"] = str(seed)
    for section, values in overrides.items():
        if not parser.has_section(section):
            parser.add_section(section)
        for key, value in values.items():
            parser[section][key] = str(value)
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _gen(order: int, out: str) -> Part:
    path = f"{out}/s_sequence_{order}.txt"
    return Part(
        (Step("gen-code", out, (str(order),)),),
        (Check(out, lambda it: oracles.sequence_identity(it / path, order)),),
    )


def _sim_demux(cfg: str, solver: str = "spectral") -> Part:
    """simulate, then demux (spectral) of the stream file it wrote."""
    steps = (
        Step("simulate", "sim", ("--config", f"{{cfg}}/{cfg}", "--solver", solver)),
        Step("demux", "dmx", ("--stream", "{it}/sim/stream.bin")),
    )
    if solver == "spectral":
        check = Check(
            "dmx",
            lambda it: oracles.same_bytes(it / "sim" / "profile.csv", it / "dmx" / "profile.csv"),
        )
    else:
        check = Check(
            "dmx",
            lambda it: oracles.profiles_close(
                it / "sim" / "profile.csv", it / "dmx" / "profile.csv", PROFILE_RTOL
            ),
        )
    return Part(steps, (check,))


def _sweep(cfg: str, orders: tuple[int, ...], trials: int) -> Part:
    checks = (
        Check("swp", lambda it: oracles.gains_in_band(it / "swp" / "advantage.csv", orders, trials)),
    )
    # one derived seed per trial, per mode (coded and single pulse), per order
    return Part(
        (Step("snr-sweep", "swp", ("--config", f"{{cfg}}/{cfg}")),), checks, trials * 2 * len(orders)
    )


def _scan(cfg: str, positions: int) -> Part:
    # one derived seed per scan position
    return Part(
        (Step("scan2d", "scn", ("--config", f"{{cfg}}/{cfg}", "--stack")),),
        (Check("scn", lambda it: oracles.scan_map(it / "scn" / "scan_map.csv", positions)),),
        positions,
    )


def _scan_positions(text: str) -> int:
    """Grid size of a config's [scan] section, by the rule of simulator.scan_positions."""
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    scan = parser["scan"]
    step = float(scan["step_m"])

    def count(lo: str, hi: str) -> int:
        span = float(scan.get(hi, "0")) - float(scan.get(lo, "0"))
        return max(int(round(span / step)) + 1, 1)

    return count("x_min_m", "x_max_m") * count("y_min_m", "y_max_m")


WHY = {
    "stream": "simulate and demux of one 10 M-sample order-79 stream: solve_many over 126 k frames, "
    "noise generation and an 80 MB write then read",
    "sweep": "snr-sweep at orders 7-79 over 4008 short streams: per-call overhead, per-stream code, "
    "fluence scale, seeding and extraction",
    "scan": "scan2d --stack over 37 positions of 500 k samples each: mid-size kernels with "
    "position-dependent fluence and the stack writer",
    "highorder": "gen-code at 1019 and 1048571 around the 1024 full-check limit, dense simulate "
    "and spectral demux at order 1019: code generation and the dense LU build",
}


def build(name: str, seed: int, configs_dir: Path) -> Workload:
    """The workload ``name`` with every generated config carrying ``seed``."""
    quick = configs_dir / "quick.cfg"
    default = configs_dir / "default.cfg"
    configs: dict[str, str] = {}
    if name == "stream":
        configs["stream.cfg"] = _derive(default, seed, {})
        parts = [_sim_demux("stream.cfg")]
    elif name == "sweep":
        configs["sweep.cfg"] = _derive(
            quick,
            seed,
            {"sweep": {"orders": ",".join(map(str, SWEEP_ORDERS)), "n_trials": SWEEP_TRIALS}},
        )
        parts = [_sweep("sweep.cfg", SWEEP_ORDERS, SWEEP_TRIALS)]
    elif name == "scan":
        configs["scan.cfg"] = _derive(default, seed, {"acquisition": {"duration_s": SCAN_DURATION_S}})
        positions = _scan_positions(configs["scan.cfg"])
        parts = [_scan("scan.cfg", positions)]
    elif name == "highorder":
        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(quick.read_text())
        duration = HIGH_PERIODS * HIGH_ORDER / float(parser["acquisition"]["f_us_hz"])
        configs["highorder.cfg"] = _derive(
            quick, seed, {"acquisition": {"order": HIGH_ORDER, "duration_s": repr(duration)}}
        )
        parts = [
            _gen(HIGH_ORDER, "gen_small"),
            _gen(MAX_VALID_ORDER, "gen_max"),
            _sim_demux("highorder.cfg", solver="dense"),
        ]
    else:
        raise KeyError(name)
    return Workload(
        name,
        WHY[name],
        configs,
        f"{name}.cfg",
        tuple(step for part in parts for step in part.steps),
        tuple(check for part in parts for check in part.checks),
        sum(part.seeds for part in parts),
    )
