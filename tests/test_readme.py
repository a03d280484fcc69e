"""The README's library example runs as written, and its configuration
example is a usable config."""

import re
from pathlib import Path

from aoimux.config import parse_run_config

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README.name} library example", "exec"), {"__name__": "example"})


def test_configuration_example_is_the_default_config(tmp_path):
    (block,) = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
    path = tmp_path / "readme.cfg"
    path.write_text(block)
    assert parse_run_config(path) == parse_run_config(ROOT / "configs" / "default.cfg")
