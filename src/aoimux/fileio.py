"""On-disk formats: sequence lines, stream files, CSV tables, PGM, SVG.

Stream files carry one ASCII header line followed by raw little-endian
float64 samples::

    aoimux-stream 1 f_s=... t0=... length=... f_us=... c=... mode=...
        order=... duration_s=... noise_sigma=... modulation_efficiency=...
        seed=... water_sound_speed=... water_path_m=...\\n

(single line, fields space separated, floats in shortest round-trip
form).  ``t0`` is the configuration's ``water_path_m /
water_sound_speed``; a header whose ``t0`` disagrees with its other
fields is rejected on read.  After ``length`` come the
``AcquisitionConfig`` fields in declaration order, keyed by attribute
name (``f_s`` appears once, first).  A header is rejected on read unless
each of these keys appears exactly once.  The header line must end
within ``_HEADER_MAX_BYTES``.

Streams move through files in chunks of whole repetition periods, so
memory does not grow with stream length.  ``stream_writer`` writes the
header from the configuration, with ``length`` known up front, then
the payload chunk by chunk; the file appears under its name only once
it is complete.  ``open_stream`` parses and checks the header once,
including the payload size against ``length``; ``StreamFile.chunks``
then reads the payload into one reused whole-period buffer.
``write_stream`` and ``read_stream`` are the one-chunk, in-memory forms.

All CSV output uses explicit units in the column headers and shortest
round-trip float formatting, so identical runs produce byte identical
files.
"""

from __future__ import annotations

import contextlib
import os
from collections import Counter
from collections.abc import Callable, Iterator
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .codes import SSequence
from .config import format_value as _fmt, record_fields
from .demux import DepthProfile
from .errors import ConfigError, LengthMismatch
from .pipeline import AdvantageCurve, SnrReport
from .simulator import AcquisitionConfig, SampledStream, ScanResult, chunk_length

_STREAM_MAGIC = "aoimux-stream"
_STREAM_VERSION = 1
_HEADER_MAX_BYTES = 4096  # a header is about 300 bytes; longer means not a stream
_HEADER_KEYS = Counter(["t0", "length"] + [attr for attr, *_ in record_fields(AcquisitionConfig)])


# ---------------------------------------------------------------- sequences


def write_sequence(seq: SSequence, path: str | Path) -> None:
    Path(path).write_text(seq.to_text() + "\n")


def read_sequence(path: str | Path) -> SSequence:
    return SSequence.from_text(Path(path).read_text())


# ------------------------------------------------------------------ streams


def _stream_header(cfg: AcquisitionConfig, length: int) -> bytes:
    fields = {"f_s": _fmt(cfg.f_s), "t0": _fmt(cfg.t0), "length": str(length)}
    for attr, _, kind, _ in record_fields(AcquisitionConfig):  # f_s is already there
        fields.setdefault(attr, _fmt(getattr(cfg, attr), kind))
    tokens = [_STREAM_MAGIC, str(_STREAM_VERSION)] + [f"{k}={v}" for k, v in fields.items()]
    return (" ".join(tokens) + "\n").encode("ascii")


@contextlib.contextmanager
def stream_writer(
    path: str | Path, cfg: AcquisitionConfig, length: int
) -> Iterator[Callable[[np.ndarray], np.ndarray]]:
    """Write a stream file of ``length`` samples chunk by chunk.

    Yields a function that appends samples to the payload and returns
    them, so ``map(write, chunks)`` writes each chunk as it is drawn.
    The file is written under a temporary name and renamed to ``path``
    only when the block ends without error and every sample was written,
    so a failed run leaves no partial stream file behind.
    """
    path = Path(path)
    part = path.with_name(path.name + ".part")
    written = 0

    def write(samples: np.ndarray) -> np.ndarray:
        nonlocal written
        # the array's own buffer: no second copy of the payload
        fh.write(np.ascontiguousarray(samples, dtype="<f8").data)
        written += samples.size
        return samples

    try:
        with open(part, "wb") as fh:
            fh.write(_stream_header(cfg, length))
            yield write
        if written != length:
            raise LengthMismatch(f"{path}: header says {length} samples, {written} written")
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def write_stream(stream: SampledStream, path: str | Path) -> None:
    samples = stream.samples
    with stream_writer(path, stream.config_snapshot, samples.size) as write:
        write(samples)


class StreamFile:
    """An open stream file: its header, parsed and checked once, and its payload."""

    def __init__(self, fh: BinaryIO, path: str | Path):
        self._fh = fh
        self.path = path
        line = fh.readline(_HEADER_MAX_BYTES)
        if not line.endswith(b"\n"):
            raise ConfigError(f"{path}: no stream header line within {len(line)} bytes")
        try:
            header = line.decode("ascii").strip()
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: stream header is not ASCII") from exc
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        tokens = header.split()
        if len(tokens) < 2 or tokens[0] != _STREAM_MAGIC or tokens[1] != str(_STREAM_VERSION):
            raise ConfigError(f"{path}: not an aoimux stream file")
        pairs = [tok.split("=", 1) for tok in tokens[2:]]
        counts = Counter(pair[0] for pair in pairs)
        bad = (counts - _HEADER_KEYS) + (_HEADER_KEYS - counts)  # unknown, repeated, missing
        if bad:
            raise ConfigError(
                f"{path}: stream header keys must each appear once: {', '.join(sorted(bad))}"
            )
        try:
            kv = dict(pairs)
            self.config = AcquisitionConfig(
                **{attr: kind(kv[attr]) for attr, _, kind, _ in record_fields(AcquisitionConfig)}
            )
            self.length = int(kv["length"])
            t0 = float(kv["t0"])
        except ValueError as exc:
            raise ConfigError(f"{path}: malformed stream header: {exc}") from exc
        if t0 != self.config.t0:
            raise ConfigError(
                f"{path}: stream header t0={kv['t0']} is not water_path_m / "
                f"water_sound_speed = {_fmt(self.config.t0)}"
            )
        if payload % 8:
            raise ConfigError(
                f"{path}: payload of {payload} bytes is not a whole number of samples"
            )
        if payload // 8 != self.length:
            raise ConfigError(
                f"{path}: header says {self.length} samples, file holds {payload // 8}"
            )

    def read_into(self, samples: np.ndarray) -> None:
        """Fill a contiguous float64 array with the next payload samples."""
        if self._fh.readinto(samples.data) != samples.nbytes:
            raise ConfigError(f"{self.path}: payload ended before {self.length} samples")

    def chunks(self) -> Iterator[np.ndarray]:
        """The payload in chunks of ``simulator.chunk_length`` samples of
        the header's repetition period; only the last may end in a partial
        period.  Every chunk is a view of one reused buffer: use it before
        asking for the next."""
        step = chunk_length(self.config.period_samples)
        buf = np.empty(min(step, self.length), dtype="<f8")
        for start in range(0, self.length, step):
            chunk = buf[: min(step, self.length - start)]
            self.read_into(chunk)
            yield chunk


@contextlib.contextmanager
def open_stream(path: str | Path) -> Iterator[StreamFile]:
    """Open a stream file and check its header; raises ConfigError on a
    malformed header or a payload whose size disagrees with it."""
    with open(path, "rb") as fh:
        yield StreamFile(fh, path)


def read_stream(path: str | Path) -> SampledStream:
    with open_stream(path) as sf:
        # one buffer, filled in place: no second copy of the payload
        samples = np.empty(sf.length, dtype="<f8")
        sf.read_into(samples)
    return SampledStream(samples, sf.config)


# ----------------------------------------------------------------- profiles


def write_profile_csv(profile: DepthProfile, path: str | Path) -> None:
    lines = ["depth_m,amplitude"]
    for z, v in zip(profile.depths, profile.values):
        lines.append(f"{_fmt(z)},{_fmt(v)}")
    Path(path).write_text("\n".join(lines) + "\n")


def read_profile_csv(path: str | Path) -> DepthProfile:
    rows = Path(path).read_text().strip().splitlines()
    if not rows or rows[0] != "depth_m,amplitude":
        raise ConfigError(f"{path}: not a depth-profile CSV")
    depths, values = [], []
    try:
        for row in rows[1:]:
            z, v = row.split(",")
            depths.append(float(z))
            values.append(float(v))
    except ValueError as exc:
        raise ConfigError(f"{path}: malformed profile row {row!r}: {exc}") from exc
    if len(depths) < 2:
        raise ConfigError(f"{path}: profile needs at least two rows")
    if depths[0] != 0.0:
        raise ConfigError(f"{path}: first depth is {depths[0]}, not 0")
    # write_profile_csv writes the depths of DepthProfile: bin m at m * width
    if not np.array_equal(depths, np.arange(len(depths)) * depths[1]):
        raise ConfigError(f"{path}: depths are not the multiples of {depths[1]}")
    return DepthProfile(np.array(values), bin_width_m=depths[1])


# -------------------------------------------------------------- experiments


def write_snr_reports_csv(reports: list[SnrReport], path: str | Path) -> None:
    lines = ["mode,order,n_trials,signal_mean,noise_std,snr"]
    for r in reports:
        lines.append(
            f"{r.mode},{r.order},{r.n_trials},{_fmt(r.signal_mean)},"
            f"{_fmt(r.noise_std)},{_fmt(r.snr)}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def write_advantage_csv(curve: AdvantageCurve, path: str | Path) -> None:
    lines = ["order,measured_gain,theoretical_gain"]
    for n, m, t in zip(curve.orders, curve.measured_gain, curve.theoretical_gain):
        lines.append(f"{n},{_fmt(m)},{_fmt(t)}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_advantage_svg(curve: AdvantageCurve, path: str | Path) -> None:
    """Self-contained line chart: theoretical gain in blue, measured in red."""
    width, height = 640, 440
    ml, mr, mt, mb = 70, 20, 30, 50
    xs = np.asarray(curve.orders, dtype=float)
    all_y = np.asarray(curve.measured_gain + curve.theoretical_gain, dtype=float)
    x_lo, x_hi = xs.min(), xs.max()
    y_lo, y_hi = 0.0, float(all_y.max()) * 1.1 + 1e-12
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    def polyline(ys, color):
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        return (
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>'
        )

    def markers(ys, color):
        return "".join(
            f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{color}"/>'
            for x, y in zip(xs, ys)
        )

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{ml}" y1="{height - mb}" x2="{width - mr}" y2="{height - mb}" stroke="black"/>',
        f'<line x1="{ml}" y1="{mt}" x2="{ml}" y2="{height - mb}" stroke="black"/>',
    ]
    for x in xs:
        parts.append(
            f'<text x="{px(x):.2f}" y="{height - mb + 18}" font-size="12" '
            f'text-anchor="middle">{int(x)}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = y_lo + frac * (y_hi - y_lo)
        parts.append(
            f'<text x="{ml - 8}" y="{py(y) + 4:.2f}" font-size="12" '
            f'text-anchor="end">{y:.2f}</text>'
        )
    parts += [
        polyline(curve.theoretical_gain, "blue"),
        markers(curve.theoretical_gain, "blue"),
        polyline(curve.measured_gain, "red"),
        markers(curve.measured_gain, "red"),
        f'<text x="{width - mr - 10}" y="{mt + 10}" font-size="12" text-anchor="end" '
        f'fill="blue">theoretical (N+1)/(2 sqrt N)</text>',
        f'<text x="{width - mr - 10}" y="{mt + 26}" font-size="12" text-anchor="end" '
        f'fill="red">measured</text>',
        f'<text x="{(ml + width - mr) / 2}" y="{height - 12}" font-size="13" '
        f'text-anchor="middle">code order N</text>',
        f'<text x="16" y="{(mt + height - mb) / 2}" font-size="13" '
        f'text-anchor="middle" transform="rotate(-90 16 {(mt + height - mb) / 2})">'
        f"SNR gain</text>",
        "</svg>",
    ]
    Path(path).write_text("\n".join(parts) + "\n")


# -------------------------------------------------------------------- scans


def write_scan_map_csv(result: ScanResult, path: str | Path) -> None:
    lines = ["x_m,y_m,peak_amplitude"]
    peak_map = result.peak_map  # a property: one max over the stack per read
    for iy, y in enumerate(result.ys):
        for ix, x in enumerate(result.xs):
            lines.append(f"{_fmt(x)},{_fmt(y)},{_fmt(peak_map[iy, ix])}")
    Path(path).write_text("\n".join(lines) + "\n")


def write_scan_stack_csv(result: ScanResult, path: str | Path) -> None:
    lines = ["x_m,y_m,depth_m,amplitude"]
    depths = result.depths
    for iy, y in enumerate(result.ys):
        for ix, x in enumerate(result.xs):
            for iz, z in enumerate(depths):
                lines.append(
                    f"{_fmt(x)},{_fmt(y)},{_fmt(z)},{_fmt(result.stack[iy, ix, iz])}"
                )
    Path(path).write_text("\n".join(lines) + "\n")


def write_pgm(image: np.ndarray, path: str | Path, *, db_floor: float | None = None) -> None:
    """8-bit binary portable graymap of a non-negative image.

    Linear mapping by default (0 .. peak -> 0 .. 255); with ``db_floor``
    the image is written on a decibel scale clipped at that floor.
    """
    img = np.asarray(image, dtype=np.float64)
    peak = img.max()
    if peak <= 0:
        scaled = np.zeros_like(img)
    elif db_floor is None:
        scaled = img / peak
    else:
        if db_floor >= 0:
            raise ConfigError("db_floor must be negative")
        db = 20.0 * np.log10(np.maximum(img, 1e-300) / peak)
        scaled = np.clip(1.0 - db / db_floor, 0.0, 1.0)
    data = np.round(255.0 * scaled).astype(np.uint8)
    h, w = data.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
