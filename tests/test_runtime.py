"""Importing the CLI is lean: it loads no scipy, no thread pool, no
``numpy.random`` and builds no order table.

A fresh interpreter imports the CLI and reports what it loaded; there
must be no scipy module, even where scipy is installed, no
``concurrent.futures``, which loads logging and which nothing in the
package needs, and no ``numpy.random`` module, which costs about 19 ms
and 6 MB and waits for the first seed; the order table must wait for
the first order check.
"""

from streams import run_python

PROBE = """\
import sys
import aoimux.cli
lean = ("scipy", "concurrent.futures", "numpy.random")
print(sorted(m for m in sys.modules if m.startswith(lean)))
"""


def _run(code: str) -> str:
    return run_python("-c", code, check=True).stdout.strip()


def test_cli_import_loads_no_scipy():
    assert _run(PROBE) == "[]"


def test_cli_import_builds_no_order_table():
    code = "import aoimux.cli\nfrom aoimux import codes\nprint(codes._order_table.cache_info().currsize)"
    assert _run(code) == "0"
