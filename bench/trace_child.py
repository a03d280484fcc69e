"""Run one aoimux CLI command with spans around the package's public functions.

Usage: python3 bench/trace_child.py <aoimux CLI arguments>

Every binding of a wrapped function is replaced, including names that
one module imported by value from another (``pipeline.derive_seed``,
``cli.parse_run_config``).  Spans (name, start, end, parent) and work
counts are kept in memory and written, as JSON, to the file named by the
BENCH_TRACE_OUT environment variable when the command ends.  Times come
from ``time.perf_counter``, the system-wide monotonic clock, so the
parent process can place them on its own time line.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from time import perf_counter

import aoimux.cli
from layers import TARGETS, span_name

spans: list[tuple[int, float, float, int]] = []
open_spans: list[int] = []
counts: dict[str, float] = {}
distinct: dict[str, set] = {}


def _add(name: str, value: float) -> None:
    counts[name] = counts.get(name, 0) + value


def _count_solve_many(args, result) -> None:
    ys = args[1]
    _add("demux.solve_many.frames", ys.size // ys.shape[-1])
    _add("demux.solve_many.bytes", ys.nbytes + result.nbytes)


def _count_file(name: str, path_arg: int):
    def count(args, result) -> None:
        _add(name, os.path.getsize(args[path_arg]))

    return count


def _count_distinct(name: str):
    def count(args, result) -> None:
        distinct.setdefault(name, set()).add(args[0])

    return count


COUNTERS = {
    "codes.generate_s_sequence": _count_distinct("codes.generate_s_sequence"),
    "demux.solve_many": _count_solve_many,
    "simulator.simulate_stream": lambda args, result: _add(
        "simulator.simulate_stream.samples", len(result)
    ),
    "simulator.fluence_scale": _count_distinct("simulator.fluence_scale"),
    "fileio.write_stream": _count_file("fileio.write_stream.bytes", 1),
    "fileio.read_stream": _count_file("fileio.read_stream.bytes", 0),
}


def _wrap(index: int, fn, counter):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        parent = open_spans[-1] if open_spans else -1
        slot = len(spans)
        spans.append((index, 0.0, 0.0, parent))
        open_spans.append(slot)
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter()
            open_spans.pop()
            spans[slot] = (index, start, end, parent)
        if counter is not None:
            counter(args, result)
        return result

    return traced


def install() -> list[str]:
    """Wrap every target at every binding in the loaded aoimux modules."""
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "aoimux"]
    names = []
    for module_name, targets in TARGETS.items():
        module = sys.modules[f"aoimux.{module_name}"]
        for target in targets:
            name = span_name(module_name, target)
            owner = module
            attr = target
            if "." in target:
                cls_name, attr = target.split(".")
                owner = getattr(module, cls_name)
            original = getattr(owner, attr)
            traced = _wrap(len(names), original, COUNTERS.get(name))
            names.append(name)
            setattr(owner, attr, traced)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, key, traced)
    return names


def main(argv: list[str]) -> int:
    names = install()
    rc = 1
    try:
        rc = aoimux.cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 2
    finally:
        for name, seen in distinct.items():
            counts[f"{name}.distinct"] = len(seen)
        with open(os.environ["BENCH_TRACE_OUT"], "w") as fh:
            json.dump({"names": names, "spans": spans, "counts": counts}, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
