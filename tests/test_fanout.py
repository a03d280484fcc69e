"""The noise draws of scan positions and SNR trials spread over threads.

Outputs must not depend on the number of usable CPUs, and every function
the benchmark's traced run wraps must stay on the calling thread: the
tracer keeps one span stack for the whole process.  The CPU count is
patched to 1 and 2 only, so no test starts more than one extra thread.
"""

import importlib
import importlib.util
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from aoimux import demux, pipeline, simulator
from aoimux.simulator import ScanGrid

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"

F_US = 1.25e6
F_S = 5e6


def phantom():
    return simulator.Phantom(
        mu_s_prime_per_cm=15.0,
        mu_a_per_cm=0.3,
        src_x_m=-0.0075,
        det_x_m=0.0075,
        boundary_z_m=0.0004,
        depth_extent_m=0.004,
    )


def config(mode="coded", order=31, periods=6, **kw):
    defaults = dict(
        f_us=F_US,
        f_s=F_S,
        c=990.0,
        mode=mode,
        order=order,
        # a partial last period too
        duration_s=(periods * order * 4 + 9) / F_S,
        noise_sigma=0.1,
        seed=21,
    )
    defaults.update(kw)
    return simulator.AcquisitionConfig(**defaults)


def scan(cfg):
    return simulator.scan_2d(cfg, phantom(), ScanGrid(-0.002, 0.002, 0.0, 0.001, 0.001)).stack


def snr(cfg):
    rep = pipeline.measure_snr(cfg, phantom(), 9)
    return np.array([rep.signal_mean, rep.noise_std])


@pytest.fixture
def cpus(monkeypatch):
    """Set the usable CPU count that fold_streams sees."""

    def set_cpus(n):
        monkeypatch.setattr(simulator, "usable_cpus", lambda: n)

    return set_cpus


def test_usable_cpus_is_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert simulator.usable_cpus() == len(os.sched_getaffinity(0))
    assert simulator.usable_cpus() >= 1


@pytest.mark.parametrize("run", [scan, snr], ids=["scan_2d", "measure_snr"])
@pytest.mark.parametrize("mode", ["coded", "single-pulse"])
@pytest.mark.parametrize("chunk_samples", [100, 1 << 16])
def test_one_or_two_cpus_give_identical_results(cpus, monkeypatch, run, mode, chunk_samples):
    # 100 samples a chunk: one period a row, so the threads meet many times
    monkeypatch.setattr(simulator, "CHUNK_SAMPLES", chunk_samples)
    cfg = config(mode)
    results = []
    for n in (1, 2):
        cpus(n)
        results.append(run(cfg))
    assert np.array_equal(results[0], results[1])


def _traced_targets():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)  # layers.py imports nothing from aoimux
    return layers.TARGETS


def test_traced_functions_run_only_on_the_calling_thread(cpus, monkeypatch):
    # wrap every traced function at every binding, as bench/trace_child.py
    # does, and record the threads they run on and the threads that draw
    calls, draws = [], set()
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "aoimux"]
    for module_name, targets in _traced_targets().items():
        module = importlib.import_module(f"aoimux.{module_name}")
        for target in targets:
            owner, attr = module, target
            if "." in target:
                cls_name, attr = target.split(".")
                owner = getattr(module, cls_name)
            original = getattr(owner, attr)

            def traced(*args, _original=original, _name=target, **kwargs):
                calls.append((_name, threading.get_ident()))
                return _original(*args, **kwargs)

            monkeypatch.setattr(owner, attr, traced)
            for other in modules:
                for key, value in list(vars(other).items()):
                    if value is original:
                        monkeypatch.setattr(other, key, traced)
    draw = simulator._draw

    def recording_draw(*args):
        draws.add(threading.get_ident())
        return draw(*args)

    monkeypatch.setattr(simulator, "_draw", recording_draw)
    cpus(2)
    scan(config())
    snr(config())
    names = {name for name, _ in calls}
    assert {"derive_seed", "axial_profile", "average_periods", "scan_2d"} <= names
    assert {ident for _, ident in calls} == {threading.get_ident()}
    # the calling thread drew, and so did each call's one worker
    assert threading.get_ident() in draws and len(draws) > 1


def test_a_worker_error_is_raised_in_the_calling_thread(cpus, monkeypatch):
    main = threading.get_ident()
    draw = simulator._draw

    def failing_draw(*args):
        if threading.get_ident() != main:
            raise FloatingPointError("worker failed")
        return draw(*args)

    monkeypatch.setattr(simulator, "_draw", failing_draw)
    cpus(2)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="worker failed"):
        snr(config())
    assert threading.active_count() == before


def test_an_error_in_the_calling_threads_share_joins_its_workers(cpus, monkeypatch):
    main = threading.get_ident()
    draw = simulator._draw

    def failing_draw(*args):
        if threading.get_ident() == main:
            raise FloatingPointError("caller failed")
        return draw(*args)

    monkeypatch.setattr(simulator, "_draw", failing_draw)
    cpus(2)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="caller failed"):
        snr(config())
    assert threading.active_count() == before


def test_a_fold_that_stops_early_joins_its_workers(cpus, monkeypatch):
    def first_chunk_only(chunks, cfg):
        next(iter(chunks))
        raise KeyError("stop")

    monkeypatch.setattr(demux, "average_periods", first_chunk_only)
    monkeypatch.setattr(simulator, "CHUNK_SAMPLES", 100)
    cpus(2)
    before = threading.active_count()
    with pytest.raises(KeyError, match="stop"):
        snr(config())
    assert threading.active_count() == before


def test_a_worker_that_cannot_start_leaves_no_thread_behind(cpus, monkeypatch):
    def no_thread(self):
        raise RuntimeError("can't start new thread")

    monkeypatch.setattr(threading.Thread, "start", no_thread)
    cpus(2)
    before = threading.active_count()
    with pytest.raises(RuntimeError, match="can't start new thread"):
        snr(config())
    assert threading.active_count() == before


def test_stress_many_rounds_with_frequent_thread_switches(cpus, monkeypatch):
    # one period a row per chunk and a switch every microsecond: a row drawn
    # twice, skipped or folded before it is drawn changes the result
    monkeypatch.setattr(simulator, "CHUNK_SAMPLES", 1)
    cfg = config(order=7, periods=300, noise_sigma=0.2)
    periods = np.random.default_rng(4).normal(size=(5, cfg.period_samples))
    seeds = [1, None, 3, 4, 5]
    cpus(1)
    expected = simulator.fold_streams(cfg, periods, seeds)
    cpus(2)
    result = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        runner = threading.Thread(
            target=lambda: result.append(simulator.fold_streams(cfg, periods, seeds))
        )
        runner.start()
        runner.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not runner.is_alive()
    assert np.array_equal(result[0], expected)

