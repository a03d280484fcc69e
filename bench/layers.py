"""The package functions the traced run wraps, and the metrics it reports.

Kept free of aoimux imports so run.py can list the per-layer metrics
without loading the package under test.
"""

from __future__ import annotations

# module -> public functions wrapped in that module ("Class.method" for methods).
TARGETS: dict[str, tuple[str, ...]] = {
    "codes": ("generate_s_sequence",),
    "demux": (
        "build_system",
        "CirculantSystem.solve_many",
        "demultiplex_stream",
        "average_periods",
    ),
    "simulator": ("simulate_stream", "fluence_scale", "axial_profile", "scan_2d"),
    "pipeline": (
        "reconstruct_profile",
        "extract_modulated",
        "measure_snr",
        "multiplexing_advantage",
    ),
    "fileio": (
        "write_stream",
        "read_stream",
        "write_profile_csv",
        "write_scan_stack_csv",
        "write_scan_map_csv",
        "write_pgm",
        "write_sequence",
        "write_advantage_csv",
        "write_advantage_svg",
        "write_snr_reports_csv",
    ),
    "config": ("parse_run_config", "write_manifest"),
    "seeding": ("derive_seed",),
    "cli": ("main",),
}


def span_name(module: str, target: str) -> str:
    """Metric prefix of a wrapped function: the class name is dropped."""
    return f"{module}.{target.rsplit('.', 1)[-1]}"


SPAN_NAMES: tuple[str, ...] = tuple(
    span_name(module, target) for module, targets in TARGETS.items() for target in targets
)

# Work counts summed over the spans of one iteration: name -> unit.
WORK_COUNTS: dict[str, str] = {
    "demux.solve_many.frames": "count",
    "demux.solve_many.bytes": "B",
    "simulator.simulate_stream.samples": "count",
    "fileio.write_stream.bytes": "B",
    "fileio.read_stream.bytes": "B",
}

# Distinct arguments seen per process, summed over processes, over calls.
UNIQUE_RATIOS: dict[str, str] = {
    "codes.generate_s_sequence.orders_unique_ratio": "codes.generate_s_sequence",
    "simulator.fluence_scale.phantoms_unique_ratio": "simulator.fluence_scale",
}

# The CLI commands, each timed from spawn to exit on the untraced iterations.
COMMANDS = ("gen-code", "simulate", "demux", "snr-sweep", "scan2d")

# Figures taken from the traced iterations' spans and counts: name -> unit.
SPAN_UNITS: dict[str, str] = {
    f"{name}.{field}": unit
    for name in SPAN_NAMES
    for field, unit in (("calls", "count"), ("self_s", "s"), ("total_s", "s"))
}
SPAN_UNITS.update(WORK_COUNTS)
SPAN_UNITS.update({name: "ratio" for name in UNIQUE_RATIOS})
SPAN_UNITS["trace.residual_s"] = "s"


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}
    for command in COMMANDS:
        units[f"cmd.{command}_s"] = "s"
        units[f"cmd.{command}.peak_rss_mb"] = "MB"
    units.update(SPAN_UNITS)
    units["trace.overhead_s"] = "s"
    return units
