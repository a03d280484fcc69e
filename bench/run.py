"""Benchmark of the aoimux command-line workbench.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload {stream,sweep,scan,highorder} --seed N \\
        --seconds S --trace {0,1}

One parent process runs the workload's CLI commands one at a time, each
in a fresh child interpreter, as a user at a shell would (closed loop,
one client).  It repeats whole iterations for about S seconds and checks
every output.  With --trace 0 it reports the end-to-end metrics, medians
over the iterations, with times scaled to a fixed machine speed (see
calibrate).  With --trace 1 it alternates untraced and traced
iterations and reports the per-layer metrics from the traced ones.  The
last line of standard output is one JSON object; the lines before it
name every metric with its unit.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
import oracles
import workloads

BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ".bench_out"
SETUP_SPAWNS = 5
MIN_ITERATIONS = 4  # a traced run needs two traced iterations to compare work counts
RUN_DEADLINE_S = 150.0  # children still running then are killed
BLAS_CAPS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
ACCOUNTING_TOLERANCE_S = 1e-6

# setup_s: a fresh interpreter imports the CLI and parses the workload's config.
SETUP_PROBE = (
    "import sys, aoimux.cli; aoimux.cli.parse_run_config(sys.argv[1]); "
    "print(aoimux.cli.__file__)"
)


END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Machine speed.  The cores of a shared host run 20-60 % slower for tens
# of seconds at a time, so raw spawn-to-exit times of the same code spread
# past any useful bound.  Right before a child starts and right after it
# exits, while no child runs, the parent times a fixed pure-Python loop;
# the child's time is scaled to the speed at which that loop takes
# REFERENCE_CALIBRATION_S.
CALIBRATION_LOOPS = 120_000
CALIBRATION_REPEATS = 5
REFERENCE_CALIBRATION_S = 0.010


def calibrate() -> float:
    """Seconds the calibration loop takes now, the median of a few repeats."""
    times = []
    for _ in range(CALIBRATION_REPEATS):
        start = time.perf_counter()
        acc = 0
        for i in range(CALIBRATION_LOOPS):
            acc += i * i % 7
        times.append(time.perf_counter() - start)
    return statistics.median(times)


class Run:
    """One benchmark run: the generated inputs, the children it starts and what they gave."""

    def __init__(self, root: Path, workload: workloads.Workload, seed: int, trace: int):
        self.root = root
        self.workload = workload
        self.dir = root / OUT_DIR / f"{workload.name}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.cfg_dir = self.dir / "configs"
        self.cfg_dir.mkdir(parents=True)
        (self.dir / "traces").mkdir()
        for name, text in workload.configs.items():
            (self.cfg_dir / name).write_text(text)
        self.env = child_env(root)
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.failures: list[str] = []  # harness self-check misses
        self.attempted = 0
        self.failed = 0

    # ------------------------------------------------------------ children

    def spawn(self, argv: list[str], env: dict[str, str], stdout=subprocess.DEVNULL) -> dict:
        """Run one child to its exit; its stderr goes to the run's stderr.log."""
        before = calibrate()
        with open(self.dir / "stderr.log", "ab") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=env, stdout=stdout, stderr=err)
            killer = threading.Timer(max(self.deadline - start, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            end = time.perf_counter()
        speed = (before + calibrate()) / 2 / REFERENCE_CALIBRATION_S
        return {
            "start": start,
            "end": end,
            "scaled_s": (end - start) / speed,
            "rc": os.waitstatus_to_exitcode(status),
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
        }

    def setup_seconds(self) -> list[tuple[float, float]]:
        """Spawn-to-exit times, raw and scaled, of fresh interpreters that
        import the CLI and parse a config."""
        argv = [sys.executable, "-c", SETUP_PROBE, str(self.cfg_dir / self.workload.config)]
        printed = self.dir / "setup.out"
        times = []
        for _ in range(SETUP_SPAWNS):
            with open(printed, "wb") as out:
                done = self.spawn(argv, self.env, stdout=out)
            times.append((done["end"] - done["start"], done["scaled_s"]))
            loaded = Path(printed.read_text().strip() or ".").resolve()
            if done["rc"] != 0 or loaded != self.root / "src" / "aoimux" / "cli.py":
                raise RuntimeError(
                    f"cannot import aoimux from {self.root / 'src'}; see {self.dir / 'stderr.log'}"
                )
        return times

    def trace_path(self, k: int, i: int) -> Path:
        return self.dir / "traces" / f"it{k}-{i}.json"

    def iteration(self, k: int, traced: bool) -> dict:
        it_dir = self.dir / f"it{k}"
        invocations = []
        for i, step in enumerate(self.workload.steps):
            out = it_dir / step.out
            out.mkdir(parents=True)
            args = [
                a.replace("{cfg}", str(self.cfg_dir)).replace("{it}", str(it_dir)) for a in step.args
            ]
            cli = ["--out-dir", str(out), step.command, *args]
            env = self.env
            if traced:
                argv = [sys.executable, str(BENCH_DIR / "trace_child.py"), *cli]
                env = dict(env, BENCH_TRACE_OUT=str(self.trace_path(k, i)))
            else:
                argv = [sys.executable, "-m", "aoimux.cli", *cli]
            inv = self.spawn(argv, env)
            inv.update(command=step.command, out=step.out, misses=[])
            if inv["rc"] != 0:
                inv["misses"].append(f"{step.command} exited with {inv['rc']}")
            invocations.append(inv)
        return {
            "k": k,
            "traced": traced,
            "dir": it_dir,
            "invocations": invocations,
            # the commands back to back; the parent's work between them is left out
            "wall_s": sum(inv["scaled_s"] for inv in invocations),
            "raw_wall_s": sum(inv["end"] - inv["start"] for inv in invocations),
        }

    # ------------------------------------------------------------ oracles

    def compare(self, it: dict, first: dict) -> None:
        """A rerun with the same seed must write byte-identical files."""
        for inv in it["invocations"]:
            try:
                miss = oracles.same_files(first["dir"] / inv["out"], it["dir"] / inv["out"])
            except OSError as exc:
                miss = f"{inv['out']}: {exc}"
            if miss:
                inv["misses"].append(miss)

    def check_outputs(self, first: dict) -> None:
        """The workload's oracles; a miss fails the invocation whose output it read."""
        by_out = {inv["out"]: inv for inv in first["invocations"]}
        for check in self.workload.checks:
            try:
                miss = check.run(first["dir"])
            except Exception as exc:  # a malformed output must not stop the run
                miss = f"{check.step}: oracle raised {exc!r}"
            if miss:
                by_out[check.step]["misses"].append(miss)

    # ------------------------------------------------------------ tracing

    def trace_metrics(self, it: dict) -> dict[str, float]:
        """Per-layer figures of one traced iteration, with the span accounting checked."""
        stats = {name: [0, 0.0, 0.0] for name in layers.SPAN_NAMES}  # calls, self, total
        counts: dict[str, float] = {}
        covered = 0.0
        for i, inv in enumerate(it["invocations"]):
            path = self.trace_path(it["k"], i)
            if not path.exists():
                self.failures.append(f"{inv['command']} wrote no trace")
                continue
            data = json.loads(path.read_text())
            spans = data["spans"]
            child_time = [0.0] * len(spans)
            misplaced = 0
            for index, start, end, parent in spans:
                outer = (inv["start"], inv["end"]) if parent < 0 else spans[parent][1:3]
                misplaced += not outer[0] <= start <= end <= outer[1]
                if parent >= 0:
                    child_time[parent] += end - start
            if misplaced:
                self.failures.append(
                    f"{inv['command']}: {misplaced} spans lie outside their parent or process"
                )
            for (index, start, end, _), inner in zip(spans, child_time):
                entry = stats[data["names"][index]]
                entry[0] += 1
                entry[1] += (end - start) - inner
                entry[2] += end - start
            covered += _union_length([(s[1], s[2]) for s in spans])
            for name, value in data["counts"].items():
                counts[name] = counts.get(name, 0) + value
        residual = it["raw_wall_s"] - covered
        self_sum = sum(entry[1] for entry in stats.values())
        if abs(self_sum + residual - it["raw_wall_s"]) > ACCOUNTING_TOLERANCE_S:
            self.failures.append(
                f"span self times {self_sum:.6f} s + residual {residual:.6f} s "
                f"!= traced wall {it['raw_wall_s']:.6f} s"
            )
        out: dict[str, float] = {}
        for name, (calls, self_s, total_s) in stats.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
            out[f"{name}.total_s"] = total_s
        for name in layers.WORK_COUNTS:
            out[name] = counts.get(name, 0)
        for name, span in layers.UNIQUE_RATIOS.items():
            calls = stats[span][0]
            out[name] = counts.get(f"{span}.distinct", 0) / calls if calls else 0.0
        out["trace.residual_s"] = residual
        seeds = out["seeding.derive_seed.calls"]
        if seeds != self.workload.seeds_per_iteration:
            self.failures.append(
                f"derive_seed traced {seeds} times, the workload makes "
                f"{self.workload.seeds_per_iteration} calls: a binding is not wrapped"
            )
        return out


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def child_env(root: Path) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "AOIMUX_OUTPUT_DIR"}
    env["PYTHONPATH"] = str(root / "src")
    # one BLAS thread: a child then keeps to one core of a small shared machine
    env.update({cap: "1" for cap in BLAS_CAPS})
    return env


def _read_text(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except OSError:
        return ""


def machine_record(run: Run) -> dict:
    """Machine and library details; called after the last child has exited."""
    import numpy
    import scipy

    cpu = next(
        (
            line.split(":", 1)[1].strip()
            for line in _read_text("/proc/cpuinfo").splitlines()
            if line.startswith("model name")
        ),
        platform.processor() or "unknown",
    )
    fs_type, mount = "unknown", ""
    target = str(run.dir.resolve())
    for line in _read_text("/proc/self/mounts").splitlines():
        fields = line.split()
        if len(fields) > 2 and (target + "/").startswith(fields[1].rstrip("/") + "/"):
            if len(fields[1]) >= len(mount):
                fs_type, mount = fields[2], fields[1]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_thread_caps": {cap: run.env[cap] for cap in BLAS_CAPS},
        "output_dir_fs": fs_type,
    }


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(iterations: list[dict], setup: list[tuple[float, float]]) -> dict[str, float]:
    return {
        "wall_s": _median([it["wall_s"] for it in iterations]),
        "setup_s": _median([scaled_s for _, scaled_s in setup]),
        "peak_rss_mb": _median(
            [max(inv["peak_rss_mb"] for inv in it["invocations"]) for it in iterations]
        ),
    }


def per_command(iterations: list[dict]) -> dict[str, float]:
    """Each command's spawn-to-exit time summed, and its peak RSS, per iteration;
    medians over the iterations, 0 for a command the workload does not run."""
    out = {}
    for command in layers.COMMANDS:
        per_it = [
            [inv for inv in it["invocations"] if inv["command"] == command] for it in iterations
        ]
        out[f"cmd.{command}_s"] = _median([sum(i["scaled_s"] for i in invs) for invs in per_it])
        out[f"cmd.{command}.peak_rss_mb"] = _median(
            [max((i["peak_rss_mb"] for i in invs), default=0.0) for invs in per_it]
        )
    return out


def per_layer(run: Run, untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    figures = [run.trace_metrics(it) for it in traced]
    out = per_command(untraced)
    for name in layers.SPAN_UNITS:
        values = [f[name] for f in figures if name in f]
        out[name] = _median(values)
        exact = name.endswith((".calls", "_ratio")) or name in layers.WORK_COUNTS
        if exact and len(set(values)) > 1:
            run.failures.append(f"work count {name} differs between traced iterations: {values}")
    out["trace.overhead_s"] = _median([it["raw_wall_s"] for it in traced]) - _median(
        [it["raw_wall_s"] for it in untraced]
    )
    return out


def measure(run: Run, seconds: float, trace: int) -> tuple[list[dict], list[dict]]:
    """Run whole iterations for about ``seconds``; odd ones are traced when tracing.

    Only outputs are compared while children run; the oracles that load
    numpy run after the last child has exited.
    """
    untraced, traced = [], []
    first = None
    start = time.perf_counter()
    k = 0
    while True:
        it = run.iteration(k, traced=bool(trace) and k % 2 == 1)
        (traced if it["traced"] else untraced).append(it)
        if first is None:
            first = it
        else:
            run.compare(it, first)
            shutil.rmtree(it["dir"])
        k += 1
        elapsed = time.perf_counter() - start
        # stop when one more iteration would end more than half an iteration late
        if k >= MIN_ITERATIONS and elapsed * (k + 0.5) / k > seconds:
            break
        if time.perf_counter() > run.deadline:
            break
    run.check_outputs(first)
    shutil.rmtree(first["dir"])
    for it in untraced + traced:
        for inv in it["invocations"]:
            run.attempted += 1
            run.failed += bool(inv["misses"])
    return untraced, traced


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=27.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    root = Path.cwd().resolve()
    needed = [root / "src" / "aoimux" / "cli.py", root / "configs" / "quick.cfg", root / "configs" / "default.cfg"]
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"bench: run from the root of an aoimux checkout; missing {missing}", file=sys.stderr)
        return 2

    # the package seeds numpy generators, which take non-negative integers only
    seed = args.seed % (1 << 32)
    workload = workloads.build(args.workload, seed, root / "configs")
    run = Run(root, workload, seed, args.trace)
    try:
        setup = run.setup_seconds()
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    untraced, traced = measure(run, args.seconds, args.trace)

    if args.trace:
        metrics = per_layer(run, untraced, traced)
        units = layers.per_layer_units()
    else:
        metrics = end_to_end(untraced, setup)
        units = END_TO_END_UNITS
    misses = [m for it in untraced + traced for inv in it["invocations"] for m in inv["misses"]]
    result = {
        "correct": run.failed == 0 and not run.failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_record(run),
        "configs": workload.configs,
        "commands": [[step.command, *step.args] for step in workload.steps],
        "iterations": [
            {
                "traced": it["traced"],
                "wall_s": it["wall_s"],
                "raw_wall_s": it["raw_wall_s"],
                "invocations": [
                    {k: inv[k] for k in ("command", "out", "rc", "peak_rss_mb", "misses", "scaled_s")}
                    | {"seconds": inv["end"] - inv["start"]}
                    for inv in it["invocations"]
                ],
            }
            for it in sorted(untraced + traced, key=lambda it: it["k"])
        ],
        "setup_s": [{"seconds": raw, "scaled_s": scaled_s} for raw, scaled_s in setup],
        "per_command": per_command(untraced),
        "self_check_failures": run.failures,
        "fail_ratio": run.failed / run.attempted,
        "result": result,
    }
    shutil.rmtree(run.dir / "traces")
    (run.dir / "record.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {workload.name}: {workload.why}")
    print(
        f"seed {seed}, {len(untraced)} untraced and {len(traced)} traced iterations, "
        f"record in {run.dir.relative_to(root) / 'record.json'}"
    )
    for line in misses + run.failures:
        print(f"FAIL {line}")
    print(f"{'fail_ratio':44s} {run.failed / run.attempted:14.6g} ratio")
    raw_wall = _median([it["raw_wall_s"] for it in untraced])
    print(f"{'unscaled wall_s':44s} {raw_wall:14.6g} s")
    print(f"{'unscaled setup_s':44s} {_median([raw for raw, _ in setup]):14.6g} s")
    for name, entry in result["metrics"].items():
        print(f"{name:44s} {entry['value']:14.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
