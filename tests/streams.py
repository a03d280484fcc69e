"""Whole in-memory streams through the chunked reconstruction API.

A ``SampledStream``'s samples are the one chunk that
``demux.average_periods`` folds; the fold then goes through
``demux.demultiplex_stream`` or ``pipeline.reconstruct_profile`` as the
CLI commands use them.
"""

from aoimux import demux, pipeline
from aoimux.demux import DepthProfile


def fold(stream):
    """The (order, K) mean of the stream's complete periods."""
    return demux.average_periods([stream.samples], stream.config_snapshot)


def profile_of(stream, kind="spectral", extract=True):
    """The depth profile of the stream, as ``aoimux demux`` writes it."""
    cfg = stream.config_snapshot
    return pipeline.reconstruct_profile(fold(stream), cfg, kind, extract=extract)


def demux_of(system, stream):
    """The carrier-band depth signal of a coded stream, solved by system."""
    signal = demux.demultiplex_stream(system, fold(stream))
    return DepthProfile(signal, bin_width_m=stream.config_snapshot.bin_width_m)
