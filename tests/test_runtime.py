"""Importing the CLI is lean: it loads no scipy, no thread pool and builds
no order table.

A fresh interpreter imports the CLI and reports what it loaded; there
must be no scipy module, even where scipy is installed, and no
``concurrent.futures``, which loads logging and waits for the first
noise fan-out; the order table must wait for the first order check.
"""

import os
import subprocess
import sys
from pathlib import Path

import aoimux

SRC = Path(aoimux.__file__).resolve().parents[1]

PROBE = """\
import sys
import aoimux.cli
print(sorted(m for m in sys.modules if m.startswith(("scipy", "concurrent.futures"))))
"""


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def test_cli_import_loads_no_scipy():
    assert _run(PROBE) == "[]"


def test_cli_import_builds_no_order_table():
    code = "import aoimux.cli\nfrom aoimux import codes\nprint(codes._order_table.cache_info().currsize)"
    assert _run(code) == "0"
