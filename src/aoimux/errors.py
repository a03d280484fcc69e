"""Exception hierarchy for the aoimux package.

The CLI exits 4 on a NumericalError and 2 on every other AoimuxError.
"""


class AoimuxError(Exception):
    """Base class for all package errors."""


class InvalidOrder(AoimuxError):
    """Code order is not a prime congruent to 3 mod 4, or exceeds the cap."""


class NumericalError(AoimuxError):
    """Base class for failures of the numerics rather than of the input."""


class SingularSystem(NumericalError):
    """Circulant system is not invertible; indicates a corrupted sequence."""


class LengthMismatch(AoimuxError):
    """Array length or shape does not fit: frames whose last axis is
    missing or is not the system order, a signal to demodulate with no
    last axis, period means whose frame is not (order, K), stream
    samples, written or folded, or a single profile that are not 1-D, a
    stream file whose samples are not its header's length, a scan map
    or stack that is not its grid's, sweep statistics that do not fit
    their orders, an advantage curve that is not 1-D arrays of one
    length, or an image that is not 2-D."""


class NonIntegerRatio(AoimuxError):
    """Sampling rate is not an integer multiple of the carrier frequency."""


class InsufficientSamples(AoimuxError):
    """Stream is too short for the requested operation."""


class OrderTooLarge(NumericalError):
    """Order exceeds the limit for a dense-matrix operation."""


class NyquistViolation(AoimuxError):
    """Sampling rate below twice the carrier frequency."""


class NoPeak(NumericalError):
    """Profile has no usable global maximum."""


class EdgePeak(NumericalError):
    """Profile maximum sits at the edge or half maximum is never crossed."""


class ConfigError(AoimuxError):
    """Invalid or inconsistent run configuration."""


class NonFiniteSamples(NumericalError):
    """Samples folded, a profile reconstructed, a sweep's signal mean or
    noise std, an advantage curve's gains or an image written hold NaN or
    infinite values."""
