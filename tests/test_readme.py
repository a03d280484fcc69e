"""The README's library and command-line examples run as written, and its
configuration example is a usable config."""

import re
import shlex
import shutil
from pathlib import Path

from aoimux.cli import main
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


def test_command_line_example_runs(tmp_path, monkeypatch):
    (block,) = [b for b in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S)
                if "aoimux " in b]
    commands = [line.split("#")[0] for line in block.splitlines() if line.startswith("aoimux ")]
    assert len(commands) == 5
    shutil.copytree(ROOT / "configs", tmp_path / "configs")
    monkeypatch.chdir(tmp_path)
    for command in commands:
        assert main(shlex.split(command)[1:]) == 0, command
