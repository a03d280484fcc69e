"""Peak memory of the long-stream commands does not grow with stream length.

Each command runs in a fresh interpreter, once on a stream of 4 M samples
(a 32 MB payload) and once on a one-period stream; the two peak resident
sizes (ru_maxrss from os.wait4 on Linux, in kB) must differ by well under
the payload.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import aoimux

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = Path(aoimux.__file__).resolve().parents[1]
LONG_SAMPLES = 4_000_000  # 32 MB of float64; not a whole number of periods
PERIOD = 316  # quick.cfg: order 79, K = 4
MAX_GROWTH_MB = 12.0


# A forked child's ru_maxrss starts at its parent's resident size, so the
# command is spawned from a small launcher interpreter, not from pytest.
LAUNCHER = """\
import os, subprocess, sys
with open(sys.argv[1], "wb") as err:
    proc = subprocess.Popen(sys.argv[2:], stdout=subprocess.DEVNULL, stderr=err)
    _, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


def _peak_rss_mb(tmp_path: Path, *argv: str) -> float:
    """Run the aoimux CLI in a child interpreter; its peak RSS in MB."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    log = tmp_path / "stderr.log"
    cmd = [sys.executable, "-c", LAUNCHER, str(log), sys.executable, "-m", "aoimux.cli"]
    done = subprocess.run(cmd + list(argv), env=env, capture_output=True, text=True, check=True)
    rc, maxrss_kb = map(int, done.stdout.split())
    assert rc == 0, log.read_text()
    return maxrss_kb / 1024.0


@pytest.fixture(scope="module")
def peaks(tmp_path_factory):
    """Peak RSS of simulate and demux on the long and the one-period stream."""
    quick = (CONFIGS / "quick.cfg").read_text()
    out = {}
    for name, samples in (("long", LONG_SAMPLES), ("short", PERIOD)):
        work = tmp_path_factory.mktemp(name)
        cfg = work / "run.cfg"
        cfg.write_text(quick.replace("duration_s = 5.056e-4", f"duration_s = {samples / 5e6!r}"))
        assert cfg.read_text() != quick
        out["simulate", name] = _peak_rss_mb(
            work, "--out-dir", str(work), "simulate", "--config", str(cfg)
        )
        stream = work / "stream.bin"
        assert stream.stat().st_size > 8 * samples
        out["demux", name] = _peak_rss_mb(
            work, "demux", "--stream", str(stream), "--out", str(work / "demuxed.csv")
        )
    return out


@pytest.mark.parametrize("command", ["simulate", "demux"])
def test_peak_rss_does_not_grow_with_stream_length(peaks, command):
    growth = peaks[command, "long"] - peaks[command, "short"]
    assert growth < MAX_GROWTH_MB, (
        f"{command}: {peaks[command, 'long']:.1f} MB on {LONG_SAMPLES} samples vs "
        f"{peaks[command, 'short']:.1f} MB on one period"
    )
