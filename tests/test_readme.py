"""The README's library example runs as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    (code,) = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    monkeypatch.chdir(tmp_path)
    exec(compile(code, f"{README.name} library example", "exec"), {"__name__": "example"})
