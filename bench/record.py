"""Run every workload untraced and traced and keep the results as one trajectory point.

Usage, from the root of a source checkout:

    python3 bench/record.py --seed 1 --seconds 27 --out bench/BENCH_0.json

It runs bench/run.py once per workload and trace mode, prints each run's
metric table, and writes the results together with each run's record
(machine, library versions, BLAS thread caps, output filesystem, seed,
generated configs and per-iteration timings) to --out.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from workloads import WHY


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=27)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args()

    runs = []
    for workload in WHY:
        for trace in (0, 1):
            argv = [
                sys.executable,
                str(Path(__file__).with_name("run.py")),
                "--workload", workload,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            done = subprocess.run(argv, capture_output=True, text=True, check=True)
            print(done.stdout, end="", flush=True)
            record_path = Path(".bench_out") / f"{workload}-seed{args.seed}-trace{trace}" / "record.json"
            runs.append(json.loads(record_path.read_text()))
    Path(args.out).write_text(json.dumps({"runs": runs}, indent=1) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
