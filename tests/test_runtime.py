"""The package runs on numpy alone.

A fresh interpreter imports the CLI and lists the scipy modules it
loaded; there must be none, even where scipy is installed.
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
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_import_loads_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", PROBE], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
