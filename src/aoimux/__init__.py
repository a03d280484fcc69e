"""Coded-transmission acousto-optic imaging workbench.

Cyclic binary multiplexing codes, circulant demultiplexing of
interleaved detector streams, a forward simulator of pulsed and coded
acquisition over a diffuse phantom, and Monte-Carlo SNR experiments.
"""

from .codes import (
    SSequence,
    generate_s_sequence,
    quadratic_residues,
    valid_orders,
    validate_order,
)
from .demux import (
    CirculantSystem,
    DepthProfile,
    analytic_inverse_check,
    average_periods,
    build_system,
    demultiplex_stream,
)
from .pipeline import (
    AdvantageCurve,
    SnrReport,
    SweepPlan,
    exact_multiplexing_gain,
    extract_modulated,
    measure_fwhm,
    measure_snr,
    multiplexing_advantage,
    reconstruct_profile,
)
from .simulator import (
    AcquisitionConfig,
    Phantom,
    SampledStream,
    ScanGrid,
    ScanResult,
    axial_profile,
    fluence_profile,
    pulse_waveform,
    scan_2d,
    simulate_stream,
)

__version__ = "0.1.0"

__all__ = [
    "AcquisitionConfig",
    "AdvantageCurve",
    "CirculantSystem",
    "DepthProfile",
    "Phantom",
    "SSequence",
    "SampledStream",
    "ScanGrid",
    "ScanResult",
    "SnrReport",
    "SweepPlan",
    "analytic_inverse_check",
    "average_periods",
    "axial_profile",
    "build_system",
    "demultiplex_stream",
    "exact_multiplexing_gain",
    "extract_modulated",
    "fluence_profile",
    "generate_s_sequence",
    "measure_fwhm",
    "measure_snr",
    "multiplexing_advantage",
    "pulse_waveform",
    "quadratic_residues",
    "reconstruct_profile",
    "scan_2d",
    "simulate_stream",
    "valid_orders",
    "validate_order",
    "__version__",
]
