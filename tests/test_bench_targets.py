"""Every function the benchmark's traced run wraps still exists.

bench/layers.py names them as strings; a rename in the package would
otherwise surface only when the traced benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

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
