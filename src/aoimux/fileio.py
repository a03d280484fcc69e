"""On-disk formats: sequence lines, stream files, CSV tables, PGM, SVG.
Stream files are the one format read back; the rest are written only.

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
``write_stream(samples, path, cfg)`` and ``read_stream(path)``, which
returns ``(samples, cfg)``, are the one-chunk forms for a whole stream
in memory, a 1-D float64 array.  Samples that are not 1-D are refused
with LengthMismatch before they are written, as the fold refuses them.

Tables move through files in blocks of at most ``_TABLE_ROWS`` rows, so
a writer's memory does not grow with the row count.  Each CSV writer
formats its rows a block at a time and hands them to ``_write_table``,
which writes each block before the next is formatted.  The two depth
tables, ``profile.csv`` and ``scan_stack.csv``, share one row loop,
``_write_depth_rows``: each profile's bins are cut into blocks, so a
writer's memory does not grow with the bins of a position either.
Every file written here, and the manifest, is written under a temporary
name and appears under its own only once it is complete.

All CSV output uses explicit units in the column headers and shortest
round-trip float formatting, so identical runs produce byte identical
files.
"""

from __future__ import annotations

import contextlib
import functools
import os
from collections import Counter
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .codes import check_bits
from .config import MODES, AcquisitionConfig, format_value as _fmt, record_fields
from .demux import BLOCK_SAMPLES
from .errors import ConfigError, LengthMismatch, NonFiniteSamples
from .simulator import chunk_length

_STREAM_MAGIC = "aoimux-stream"
_STREAM_VERSION = 1
_HEADER_MAX_BYTES = 4096  # a header is about 300 bytes; longer means not a stream
_HEADER_KEYS = Counter(["t0", "length"] + [attr for attr, *_ in record_fields(AcquisitionConfig)])


@contextlib.contextmanager
def _replacing(path: Path) -> Iterator[Path]:
    """Yield a temporary name beside path, renamed to path when the block
    ends without error and deleted when it raises: a failed write leaves
    no partial file behind."""
    part = path.with_name(path.name + ".part")
    try:
        yield part
        os.replace(part, path)
    except BaseException:
        part.unlink(missing_ok=True)
        raise


def _write_text(path: str | Path, text: str) -> None:
    """Write a text file under a temporary name, as the tables are."""
    with _replacing(Path(path)) as part, open(part, "w", encoding="utf-8") as fh:
        fh.write(text)


# ---------------------------------------------------------------- sequences


def write_sequence(code: np.ndarray, path: str | Path) -> None:
    """Write a code as one line ``"<order>:<bits>\\n"``, e.g. ``"7:1110100\\n"``.

    A code that check_bits rejects raises InvalidOrder before any file is made.
    """
    bits = check_bits(code)
    _write_text(path, f"{bits.size}:" + (bits + ord("0")).tobytes().decode("ascii") + "\n")


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
    them, so ``map(write, chunks)`` writes each chunk as it is drawn;
    samples that are not 1-D raise LengthMismatch before they are written.
    The file is written under a temporary name and renamed to ``path``
    only when the block ends without error and every sample was written,
    so a failed run leaves no partial stream file behind.
    """
    written = 0

    def write(samples: np.ndarray) -> np.ndarray:
        nonlocal written
        if samples.ndim != 1:
            raise LengthMismatch(f"stream chunks must be 1-D, got shape {samples.shape}")
        # the array's own buffer: no second copy of the payload
        fh.write(np.ascontiguousarray(samples, dtype="<f8").data)
        written += samples.size
        return samples

    with _replacing(Path(path)) as part:
        with open(part, "wb") as fh:
            fh.write(_stream_header(cfg, length))
            yield write
        if written != length:
            raise LengthMismatch(f"{path}: header says {length} samples, {written} written")


def write_stream(samples: np.ndarray, path: str | Path, cfg: AcquisitionConfig) -> None:
    """Write an in-memory stream of cfg, its samples as one chunk."""
    with stream_writer(path, cfg, samples.size) as write:
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


def read_stream(path: str | Path) -> tuple[np.ndarray, AcquisitionConfig]:
    """Read a whole stream file: its float64 samples and its configuration."""
    with open_stream(path) as sf:
        # one buffer, filled in place: no second copy of the payload
        samples = np.empty(sf.length, dtype="<f8")
        sf.read_into(samples)
    return samples, sf.config


# ------------------------------------------------------------------- tables

# Rows per block of a CSV table: a block's values and their lines and text
# are all that a table writer holds at a time, a few MB at most.  A row's
# floats come from .tolist(), one block at a time, and are formatted with
# repr, which for a Python float is format_value.
_TABLE_ROWS = BLOCK_SAMPLES


def _write_table(path: str | Path, header: str, blocks: Iterable[list[str]]) -> None:
    """Write a CSV table: the header line, then each block's rows, one line
    each, every block written before the next is asked for."""
    with _replacing(Path(path)) as part, open(part, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for rows in blocks:
            if rows:
                fh.write("\n".join(rows) + "\n")


# ----------------------------------------------------------------- profiles


def _write_depth_rows(
    path: str | Path, header: str, width: float, profiles: Iterable[tuple[str, np.ndarray]]
) -> None:
    """Write a depth table: for each (prefix, values) profile, one row
    ``<prefix><depth>,<value>`` a bin, in blocks of ``_TABLE_ROWS`` bins.
    Bin m lies at depth m * width, as ``reconstruct_profile`` places it.  Each
    profile starts a block of its own; a block over the last block's bins
    reuses its depth texts, so profiles of one block each format them once."""

    @functools.lru_cache(maxsize=1)
    def depths(start: int, stop: int) -> list[str]:
        return [repr(z) for z in (np.arange(start, stop) * width).tolist()]

    def blocks():
        for prefix, values in profiles:
            for start in range(0, len(values), _TABLE_ROWS):
                block = values[start : start + _TABLE_ROWS].tolist()
                texts = depths(start, start + len(block))
                yield [f"{prefix}{z},{v!r}" for z, v in zip(texts, block)]

    _write_table(path, header, blocks())


def write_profile_csv(values: np.ndarray, bin_width_m: float, path: str | Path) -> None:
    """Write one profile, read as float64, bin m at depth m * bin_width_m;
    values that are not 1-D raise LengthMismatch before any file is made."""
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise LengthMismatch(f"write_profile_csv takes one profile, got shape {values.shape}")
    _write_depth_rows(path, "depth_m,amplitude", bin_width_m, [("", values)])


# -------------------------------------------------------------- experiments


def write_snr_reports_csv(
    orders: np.ndarray, stats: np.ndarray, n_trials: int, path: str | Path
) -> None:
    """Write one row per order and mode of a sweep, coded then single
    pulse: orders[i, j] and stats[i, j], the signal mean, noise std and
    SNR of its n_trials trials, as ``pipeline.multiplexing_advantage``
    returns them.  Orders that are not (n, 2), or stats that are not
    (n, 2, 3), raise LengthMismatch before any file is made."""
    orders, stats = np.asarray(orders), np.asarray(stats, dtype=np.float64)
    if orders.shape[1:] != (2,) or stats.shape != orders.shape + (3,):
        raise LengthMismatch(f"sweep statistics {stats.shape} do not fit orders {orders.shape}")
    rows = [
        f"{mode},{n},{n_trials},{_fmt(signal)},{_fmt(noise)},{_fmt(snr)}"
        for pair, modes in zip(orders.tolist(), stats.tolist())
        for mode, n, (signal, noise, snr) in zip(MODES, pair, modes)
    ]
    # one row per order and mode: a single block
    _write_table(path, "mode,order,n_trials,signal_mean,noise_std,snr", [rows])


def _gains(orders, measured, theoretical) -> list[list]:
    """The orders, measured and theoretical gains of an advantage curve as
    lists; arrays that are not 1-D of one length raise LengthMismatch, and
    a gain that is NaN or infinite raises NonFiniteSamples."""
    curve = [np.asarray(a) for a in (orders, measured, theoretical)]
    if any(a.ndim != 1 for a in curve) or len({a.size for a in curve}) != 1:
        shapes = ", ".join(str(a.shape) for a in curve)
        raise LengthMismatch(f"an advantage curve takes 1-D arrays of one length, got {shapes}")
    bad = sum(a.size - np.count_nonzero(np.isfinite(a)) for a in curve[1:])
    if bad:
        raise NonFiniteSamples(f"{bad} of {2 * curve[0].size} gains are NaN or infinite")
    return [a.tolist() for a in curve]


def write_advantage_csv(
    orders: np.ndarray, measured: np.ndarray, theoretical: np.ndarray, path: str | Path
) -> None:
    """Write one row per order of an advantage curve: the coded orders and
    their measured and theoretical gains, 1-D arrays of one length.  Any
    other shapes raise LengthMismatch, and a NaN or infinite gain raises
    NonFiniteSamples, before any file is made."""
    rows = [f"{n},{_fmt(m)},{_fmt(t)}" for n, m, t in zip(*_gains(orders, measured, theoretical))]
    _write_table(path, "order,measured_gain,theoretical_gain", [rows])


def write_advantage_svg(
    orders: np.ndarray, measured: np.ndarray, theoretical: np.ndarray, path: str | Path
) -> None:
    """Self-contained line chart of an advantage curve, taken as
    ``write_advantage_csv`` takes it and refused as it refuses, and a
    curve of no orders raises LengthMismatch too: theoretical gain in
    blue, measured in red."""
    orders, measured, theoretical = _gains(orders, measured, theoretical)
    if not orders:
        raise LengthMismatch("an advantage chart needs at least one order")
    width, height = 640, 440
    ml, mr, mt, mb = 70, 20, 30, 50
    xs = np.asarray(orders, dtype=float)
    x_lo, x_hi = xs.min(), xs.max()
    y_lo, y_hi = 0.0, max(measured + theoretical) * 1.1 + 1e-12
    if x_hi == x_lo:
        x_hi = x_lo + 1.0

    def px(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * (width - ml - mr)

    def py(y):
        return height - mb - (y - y_lo) / (y_hi - y_lo) * (height - mt - mb)

    def polyline(ys, color):
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        return f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{pts}"/>'

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
        polyline(theoretical, "blue"),
        markers(theoretical, "blue"),
        polyline(measured, "red"),
        markers(measured, "red"),
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
    _write_text(path, "\n".join(parts) + "\n")


# -------------------------------------------------------------------- scans


def _on_grid(xs, ys, values, ndim: int, name: str) -> tuple[list[str], list[str], np.ndarray]:
    """The texts of the x and y positions, and values read as float64,
    which must be (ys.size, xs.size) followed by ndim - 2 more axes, xs
    and ys 1-D; anything else raises LengthMismatch."""
    xs, ys, values = (np.asarray(a, dtype=np.float64) for a in (xs, ys, values))
    grid = (ys.size, xs.size)
    if xs.ndim != 1 or ys.ndim != 1 or values.ndim != ndim or values.shape[:2] != grid:
        raise LengthMismatch(f"{name} of shape {values.shape} does not fit a grid of {grid}")
    return [_fmt(x) for x in xs.tolist()], [_fmt(y) for y in ys.tolist()], values


def write_scan_map_csv(xs: np.ndarray, ys: np.ndarray, peaks: np.ndarray, path: str | Path) -> None:
    """Write a peak map, a row per position, x fastest: peaks[iy, ix] lies
    at (xs[ix], ys[iy]).  Peaks that are not (ys.size, xs.size) raise
    LengthMismatch before any file is made."""
    xs, ys, peaks = _on_grid(xs, ys, peaks, 2, "peak map")

    def blocks():
        for y, row in zip(ys, peaks):
            for start in range(0, len(xs), _TABLE_ROWS):
                stop = start + _TABLE_ROWS
                yield [
                    f"{x},{y},{v!r}" for x, v in zip(xs[start:stop], row[start:stop].tolist())
                ]

    _write_table(path, "x_m,y_m,peak_amplitude", blocks())


def write_scan_stack_csv(
    xs: np.ndarray, ys: np.ndarray, stack: np.ndarray, bin_width_m: float, path: str | Path
) -> None:
    """Write a scan's depth stack, a row per bin, position by position, x
    fastest: stack[iy, ix] is the profile at (xs[ix], ys[iy]), its bin m
    at depth m * bin_width_m.  A stack that is not (ys.size, xs.size,
    bins) raises LengthMismatch before any file is made."""
    xs, ys, stack = _on_grid(xs, ys, stack, 3, "stack")
    # y-major, each position formatted once; a plane at a time, so an empty
    # stack is positions of no rows
    positions = ((f"{x},{y},", p) for y, plane in zip(ys, stack) for x, p in zip(xs, plane))
    _write_depth_rows(path, "x_m,y_m,depth_m,amplitude", bin_width_m, positions)


def write_pgm(image: np.ndarray, path: str | Path, *, db_floor: float | None = None) -> None:
    """8-bit binary portable graymap of a non-negative image.

    Linear mapping by default (0 .. peak -> 0 .. 255); with ``db_floor``
    the image is written on a decibel scale clipped at that floor.  In
    either mapping a negative pixel is written as 0.  A db_floor that is
    not negative, NaN included, raises ConfigError whatever the image; an
    image that is not 2-D, or has no pixels, raises LengthMismatch; a NaN
    or infinite pixel raises NonFiniteSamples.  Each is raised before any
    file is made.
    """
    if db_floor is not None and not db_floor < 0:
        raise ConfigError("db_floor must be negative")
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2 or img.size == 0:
        raise LengthMismatch(f"write_pgm takes a non-empty 2-D image, got shape {img.shape}")
    bad = img.size - np.count_nonzero(np.isfinite(img))
    if bad:
        raise NonFiniteSamples(f"{bad} of {img.size} pixels are NaN or infinite")
    peak = img.max()
    if peak <= 0:
        scaled = np.zeros_like(img)
    elif db_floor is None:
        scaled = np.maximum(img / peak, 0.0)
    else:
        db = 20.0 * np.log10(np.maximum(img, 1e-300) / peak)
        scaled = np.clip(1.0 - db / db_floor, 0.0, 1.0)
    data = np.round(255.0 * scaled).astype(np.uint8)
    h, w = data.shape
    with _replacing(Path(path)) as part, open(part, "wb") as fh:
        fh.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        fh.write(data.tobytes())
