"""Every function the benchmark's traced run wraps still exists, and runs
on the calling thread.

bench/layers.py names them as strings; a rename in the package would
otherwise surface only when the traced benchmark run fails.  The tracer
keeps one span stack for the whole process, so a traced function called
from another thread would corrupt it.
"""

import importlib
import importlib.util
import sys
import threading
from pathlib import Path

import pytest

from streams import acquisition, phantom

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _targets() -> dict[str, tuple[str, ...]]:
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)  # layers.py imports nothing from aoimux
    return layers.TARGETS


@pytest.mark.parametrize(
    "module, target",
    [(module, target) for module, targets in _targets().items() for target in targets],
)
def test_traced_target_resolves(module, target):
    obj = importlib.import_module(f"aoimux.{module}")
    for attr in target.split("."):
        obj = getattr(obj, attr)
    assert callable(obj)


def test_traced_functions_run_only_on_the_calling_thread(monkeypatch):
    # wrap every traced function at every binding, as bench/trace_child.py
    # does, then scan, measure and sweep, and record the threads they ran on
    from aoimux import config, pipeline, simulator

    calls = []
    targets_of = {
        importlib.import_module(f"aoimux.{name}"): targets for name, targets in _targets().items()
    }
    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "aoimux"]
    for module, targets in targets_of.items():
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
    ph = phantom()
    cfg = acquisition(order=31, periods=6, noise_sigma=0.1, seed=21)
    before = threading.active_count()
    simulator.scan_2d(cfg, ph, config.ScanGrid(-0.002, 0.002, 0.0, 0.0, 0.001))
    pipeline.measure_snr(cfg, ph, 9)
    pipeline.multiplexing_advantage(cfg, ph, config.SweepPlan((7, 19), 9))
    names = {name for name, _ in calls}
    assert {"derive_seed", "axial_profile", "scan_2d"} <= names
    assert {"measure_snr", "multiplexing_advantage", "reconstruct_profile"} <= names
    assert {ident for _, ident in calls} == {threading.get_ident()}
    assert threading.active_count() == before
