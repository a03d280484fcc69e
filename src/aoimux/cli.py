"""Command-line front end.

Commands: gen-code, simulate, demux, snr-sweep, scan2d.  Exit codes:
0 success, 2 configuration or validation error (a run too large for
memory included), 3 I/O error (a stdout that cannot be written
included), 4 numerical failure.  The default output directory is the
current directory, overridable with --out-dir or the AOIMUX_OUTPUT_DIR
environment variable.  ``simulate``, ``snr-sweep`` and ``scan2d``
leave all of their outputs or, when they fail, none.

``main(argv)`` runs one command in-process and returns its exit code;
``run()``, the console script and ``python -m aoimux.cli``, ends the
process with that code as soon as the command's outputs are closed.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from collections.abc import Callable, Iterator
from pathlib import Path

import numpy as np

from . import codes, demux, fileio, pipeline, simulator
from .config import parse_run_config, write_manifest
from .errors import AoimuxError, NumericalError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_NUMERICAL = 4


def _out_dir(args) -> Path:
    if args.out_dir is not None:
        base = Path(args.out_dir)
    else:
        base = Path(os.environ.get("AOIMUX_OUTPUT_DIR", "."))
    base.mkdir(parents=True, exist_ok=True)
    return base


@contextlib.contextmanager
def _output_set(out: Path) -> Iterator[Callable[[str], Path]]:
    """Yield stage(name), the temporary path ``<name>.part`` in out at which
    the command writes its output name.  When the block ends without
    error, every staged output is moved to its name; when the block or a
    move fails, every file staged or already moved is removed, so a
    command that fails leaves none of its outputs.  An older file that a
    move replaced is not restored."""
    staged: list[tuple[Path, Path]] = []  # (temporary path, name) per output
    moved: list[Path] = []

    def stage(name: str) -> Path:
        staged.append((out / (name + ".part"), out / name))
        return staged[-1][0]

    try:
        yield stage
        for part, path in staged:
            os.replace(part, path)
            moved.append(path)
    except BaseException:
        for path in [part for part, _ in staged] + moved:
            with contextlib.suppress(OSError):  # the first error is the one to report
                path.unlink(missing_ok=True)
        raise


def _cmd_gen_code(args) -> int:
    bits = codes.generate_s_sequence(args.order)
    out = Path(args.out) if args.out else _out_dir(args) / f"s_sequence_{args.order}.txt"
    fileio.write_sequence(bits, out)
    print(f"wrote {out} (order {bits.size}, weight {int(bits.sum())})")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    rc = parse_run_config(args.config)
    acq = rc.acquisition
    out = _out_dir(args)
    with _output_set(out) as stage:
        # each chunk is written before the fold may overwrite its first period
        with fileio.stream_writer(stage("stream.bin"), acq, acq.n_samples) as write:
            chunks = map(write, simulator.stream_chunks(acq, rc.phantom))
            folded = demux.average_periods(chunks, acq)
            profile = pipeline.reconstruct_profile(folded, acq, args.solver)
        fileio.write_profile_csv(profile, acq.bin_width_m, stage("profile.csv"))
        write_manifest(rc, stage("manifest.cfg"))
    print(f"wrote {out / 'stream.bin'} ({acq.n_samples} samples)")
    print(f"wrote {out / 'profile.csv'} ({len(profile)} bins)")
    print(f"wrote {out / 'manifest.cfg'}")
    return EXIT_OK


def _cmd_demux(args) -> int:
    with fileio.open_stream(args.stream) as sf:
        folded = demux.average_periods(sf.chunks(), sf.config)
    profile = pipeline.reconstruct_profile(folded, sf.config, args.solver, extract=not args.raw)
    out = Path(args.out) if args.out else _out_dir(args) / "profile.csv"
    fileio.write_profile_csv(profile, sf.config.bin_width_m, out)
    print(f"wrote {out} ({len(profile)} bins)")
    return EXIT_OK


def _cmd_snr_sweep(args) -> int:
    rc = parse_run_config(args.config)
    orders, stats = pipeline.multiplexing_advantage(rc.acquisition, rc.phantom, rc.sweep)
    with np.errstate(divide="ignore", invalid="ignore"):  # the writers refuse inf and nan
        measured = stats[:, 0, 2] / stats[:, 1, 2]
    curve = (orders[:, 0], measured, pipeline.exact_multiplexing_gain(orders[:, 0]))
    out = _out_dir(args)
    with _output_set(out) as stage:
        fileio.write_advantage_csv(*curve, stage("advantage.csv"))
        fileio.write_advantage_svg(*curve, stage("advantage.svg"))
        fileio.write_snr_reports_csv(orders, stats, rc.sweep.n_trials, stage("snr_reports.csv"))
    for n, m, t in zip(*(a.tolist() for a in curve)):
        print(f"order {n}: measured gain {m:.3f}, theoretical {t:.3f}")
    print(f"wrote {out / 'advantage.csv'}, {out / 'advantage.svg'}, "
          f"{out / 'snr_reports.csv'}")
    return EXIT_OK


def _cmd_scan2d(args) -> int:
    rc = parse_run_config(args.config)
    acq = rc.acquisition
    stack = simulator.scan_2d(acq, rc.phantom, rc.scan, kind=args.solver)
    xs, ys = rc.scan.positions()
    peaks = stack.max(axis=-1)
    out = _out_dir(args)
    written = ["scan_map.csv", "scan_map.pgm", "scan_map_db.pgm"]
    with _output_set(out) as stage:
        fileio.write_scan_map_csv(xs, ys, peaks, stage("scan_map.csv"))
        fileio.write_pgm(peaks, stage("scan_map.pgm"))
        fileio.write_pgm(peaks, stage("scan_map_db.pgm"), db_floor=-40.0)
        if args.stack:
            fileio.write_scan_stack_csv(xs, ys, stack, acq.bin_width_m, stage("scan_stack.csv"))
            written.append("scan_stack.csv")
    print(f"scanned {xs.size} x {ys.size} positions")
    print("wrote " + ", ".join(str(out / name) for name in written))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="aoimux",
        description="Coded-transmission acousto-optic imaging workbench",
    )
    parser.add_argument(
        "--out-dir",
        default=None,
        help="output directory (default: $AOIMUX_OUTPUT_DIR or .)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-code", help="generate an S-sequence file")
    p.add_argument("order", type=int, help="code length N, prime with N = 4m+3")
    p.add_argument("--out", default=None, help="output file path")
    p.set_defaults(func=_cmd_gen_code)

    p = sub.add_parser("simulate", help="synthesize a stream and its depth profile")
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--solver", choices=demux.SOLVER_KINDS, default="spectral")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("demux", help="demultiplex a stream file into a profile CSV")
    p.add_argument("--stream", required=True, help="input stream file")
    p.add_argument("--out", default=None, help="output CSV path")
    p.add_argument("--solver", choices=demux.SOLVER_KINDS, default="spectral")
    p.add_argument(
        "--raw",
        action="store_true",
        help="skip envelope extraction, write the carrier-band profile",
    )
    p.set_defaults(func=_cmd_demux)

    p = sub.add_parser("snr-sweep", help="measure the multiplexing advantage")
    p.add_argument("--config", required=True, help="run configuration file")
    p.set_defaults(func=_cmd_snr_sweep)

    p = sub.add_parser("scan2d", help="scan the transducer over an XY grid")
    p.add_argument("--config", required=True, help="run configuration file")
    p.add_argument("--solver", choices=demux.SOLVER_KINDS, default="spectral")
    p.add_argument("--stack", action="store_true", help="also write the depth stack")
    p.set_defaults(func=_cmd_scan2d)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        if sys.stdout is not None:  # None when fd 1 was closed at start
            sys.stdout.flush()  # a closed pipe fails here, as an i/o error
        return code
    except NumericalError as exc:
        print(f"aoimux: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except AoimuxError as exc:  # every other package error is a bad input
        print(f"aoimux: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"aoimux: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError as exc:  # a run too large for this machine is a bad input
        print(f"aoimux: run too large for memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    """Run the command of sys.argv and end the process with its exit code.

    The process ends by ``os._exit`` straight after ``main()``, without
    interpreter teardown, which collects numpy's module objects: on a
    2-core Linux x86-64 machine, the median of 21 spawns that import
    this module is 138.4 ms with teardown and 117.5 ms with
    ``os._exit(0)``, about 20 ms saved a process.  No output is lost:
    every file a command writes is closed by its ``with`` block before
    ``main()`` returns, and ``main()`` flushes stdout itself, so that a
    stdout that cannot be written exits 3.  Usage errors and ``--help``
    leave through argparse's ``SystemExit``, with teardown.
    """
    code = main()
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
