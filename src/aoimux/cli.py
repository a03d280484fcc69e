"""Command-line front end.

Commands: gen-code, simulate, demux, snr-sweep, scan2d.  Exit codes:
0 success, 2 configuration or validation error (a run too large for
memory included), 3 I/O error, 4 numerical failure.  The default
output directory is the current directory, overridable with --out-dir
or the AOIMUX_OUTPUT_DIR environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

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


def _cmd_gen_code(args) -> int:
    seq = codes.generate_s_sequence(args.order)
    out = Path(args.out) if args.out else _out_dir(args) / f"s_sequence_{args.order}.txt"
    fileio.write_sequence(seq, out)
    print(f"wrote {out} (order {seq.order}, weight {seq.weight})")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    rc = parse_run_config(args.config)
    acq = rc.acquisition
    out = _out_dir(args)
    # stream.bin appears only if the whole block succeeds; each chunk is
    # written before the fold may overwrite its first period
    with fileio.stream_writer(out / "stream.bin", acq, acq.n_samples) as write:
        chunks = map(write, simulator.stream_chunks(acq, rc.phantom))
        folded = demux.average_periods(chunks, acq)
        profile = pipeline.reconstruct_profile(folded, acq, args.solver)
    fileio.write_profile_csv(profile, out / "profile.csv")
    write_manifest(rc, out / "manifest.cfg")
    print(f"wrote {out / 'stream.bin'} ({acq.n_samples} samples)")
    print(f"wrote {out / 'profile.csv'} ({len(profile)} bins)")
    print(f"wrote {out / 'manifest.cfg'}")
    return EXIT_OK


def _cmd_demux(args) -> int:
    with fileio.open_stream(args.stream) as sf:
        folded = demux.average_periods(sf.chunks(), sf.config)
    profile = pipeline.reconstruct_profile(folded, sf.config, args.solver, extract=not args.raw)
    out = Path(args.out) if args.out else _out_dir(args) / "profile.csv"
    fileio.write_profile_csv(profile, out)
    print(f"wrote {out} ({len(profile)} bins)")
    return EXIT_OK


def _cmd_snr_sweep(args) -> int:
    rc = parse_run_config(args.config)
    curve = pipeline.multiplexing_advantage(rc.acquisition, rc.phantom, rc.sweep)
    out = _out_dir(args)
    fileio.write_advantage_csv(curve, out / "advantage.csv")
    fileio.write_advantage_svg(curve, out / "advantage.svg")
    fileio.write_snr_reports_csv(curve.reports, out / "snr_reports.csv")
    for n, m, t in zip(curve.orders, curve.measured_gain, curve.theoretical_gain):
        print(f"order {n}: measured gain {m:.3f}, theoretical {t:.3f}")
    print(f"wrote {out / 'advantage.csv'}, {out / 'advantage.svg'}, "
          f"{out / 'snr_reports.csv'}")
    return EXIT_OK


def _cmd_scan2d(args) -> int:
    rc = parse_run_config(args.config)
    result = simulator.scan_2d(rc.acquisition, rc.phantom, rc.scan, kind=args.solver)
    out = _out_dir(args)
    fileio.write_scan_map_csv(result, out / "scan_map.csv")
    peak_map = result.peak_map
    fileio.write_pgm(peak_map, out / "scan_map.pgm")
    fileio.write_pgm(peak_map, out / "scan_map_db.pgm", db_floor=-40.0)
    written = ["scan_map.csv", "scan_map.pgm", "scan_map_db.pgm"]
    if args.stack:
        fileio.write_scan_stack_csv(result, out / "scan_stack.csv")
        written.append("scan_stack.csv")
    print(f"scanned {result.xs.size} x {result.ys.size} positions")
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
        return args.func(args)
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


if __name__ == "__main__":
    sys.exit(main())
