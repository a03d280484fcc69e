"""Peak memory does not grow with stream length or trial count, nor scratch
with stack size.

Each long-stream command runs in a fresh interpreter, once on a stream of
4 M samples (a 32 MB payload) and once on a one-period stream; the two
peak resident sizes (ru_maxrss from os.wait4 on Linux, in kB) must differ
by well under the payload.  snr-sweep runs on quick.cfg at 50 and at 2000
trials, and its peak may grow by its per-trial amplitudes and cached seeds,
not by stacks of trials.  The reconstruction of a stack of 2001 folded
frames and its envelope extraction are measured in-process with
tracemalloc: besides their input they may hold their result, the
demultiplexed stack in between and blocks of scratch, not stack-sized
temporaries.  So is the folded draw of 2001 trials: it may hold one
block of normals and of period means at a time.  A stream of twelve
chunks, drawn and folded, holds its one reused chunk buffer and an
(N, K) sum.  The dense
reference solve is bounded by its one big array: a dense simulate at
order 1019 may peak above the spectral one by less than two float64
copies of S.  Generation's multiplier check at the largest order may
trace less than two copies of the bits, so `gen-code` at that order
peaks at most 10 MB above `gen-code 7`.  At
order 1019 the exact-integer identity check makes no N**2 array, and the
closed-form inverse check holds the solver's inverse and one more N**2
array at most.  The CSV writers hold one block of rows at a time: ten
times the rows may trace less than 1.5 times the peak, at 5 000 and
50 000 rows of a depth stack, 20 000 and 200 000 bins of a one-position
stack and the same bins of a profile, so each large table spans several
16 384-row blocks.  `scan2d --stack` on a 2-D grid of 165 positions
peaks at most 6 MB above a one-position scan.
"""

import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aoimux import codes, demux, fileio, pipeline, simulator
from aoimux.config import parse_run_config
from streams import BIN, CONFIGS, acquisition, run_python, scan_result

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
    log = tmp_path / "stderr.log"
    done = run_python(
        "-c", LAUNCHER, str(log), sys.executable, "-m", "aoimux.cli", *argv, check=True
    )
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


SWEEP_TRIALS = (50, 2000)
MAX_SWEEP_GROWTH_MB = 4.0


def test_snr_sweep_peak_rss_does_not_grow_with_trials(tmp_path):
    quick = (CONFIGS / "quick.cfg").read_text()
    peaks = {}
    for trials in SWEEP_TRIALS:
        cfg = tmp_path / f"trials{trials}.cfg"
        cfg.write_text(quick.replace("n_trials = 200", f"n_trials = {trials}"))
        assert cfg.read_text() != quick
        out = tmp_path / f"out{trials}"
        argv = ("--out-dir", str(out), "snr-sweep", "--config", str(cfg))
        peaks[trials] = _peak_rss_mb(tmp_path, *argv)
    (few, low), (many, high) = peaks.items()
    assert high - low < MAX_SWEEP_GROWTH_MB, (
        f"snr-sweep: {high:.1f} MB at {many} trials vs {low:.1f} MB at {few}"
    )


STACK_ROWS = 2001
SCRATCH_BYTES = 2 << 20  # well above one block of scratch, below one stack


def _traced_peak(fn, *args) -> int:
    """Peak bytes numpy and Python allocate while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def coded_stack():
    """Config and a (2001, 79, 4) stack of folded coded frames, about 5.1 MB."""
    cfg = acquisition(duration_s=5e-4)
    folded = np.random.default_rng(6).normal(size=(STACK_ROWS, cfg.order, 4))
    pipeline.reconstruct_profile(folded[:2], cfg)  # one-time caches: order table, code
    return cfg, folded


def test_reconstruct_profile_holds_its_result_and_one_block(coded_stack):
    cfg, folded = coded_stack
    peak = _traced_peak(pipeline.reconstruct_profile, folded, cfg, "spectral")
    # the demultiplexed stack and the envelope, each the size of the input
    assert peak < 2 * folded.nbytes + SCRATCH_BYTES, peak / folded.nbytes


def test_extract_modulated_holds_its_result_and_one_block(coded_stack):
    cfg, folded = coded_stack
    signal = folded.reshape(STACK_ROWS, -1)
    peak = _traced_peak(pipeline.extract_modulated, signal, cfg.f_us, cfg.f_s)
    assert peak < 2 * folded.nbytes + SCRATCH_BYTES, peak / folded.nbytes


def test_folded_draw_scratch_is_one_block(coded_stack):
    # 2001 rows of one order-79 period: ten blocks of 207 rows, each
    # dropped once used, so the draw holds one block's normals and means
    cfg, _ = coded_stack
    periods = np.broadcast_to(np.ones(cfg.period_samples), (STACK_ROWS, cfg.period_samples))
    seeds = range(STACK_ROWS)

    def draw_all():
        for _ in simulator.draw_folded([cfg], [periods], [seeds]):
            pass

    peak = _traced_peak(draw_all)
    block = simulator.CHUNK_SAMPLES * 8
    assert peak < 2.5 * block, peak / block


def test_sweep_folded_draw_scratch_is_one_block(coded_stack):
    # 2001 rows of four configs, orders 7 to 79 on one seed a row, as a
    # sweep draws them: 544 values a row, so blocks of 120 rows, whose
    # normals and four means together hold one block each
    cfg, _ = coded_stack
    cfgs = [replace(cfg, order=n) for n in (7, 19, 31, 79)]
    periods = [np.broadcast_to(np.ones(c.period_samples), (STACK_ROWS, c.period_samples))
               for c in cfgs]
    seeds = [range(STACK_ROWS)] * len(cfgs)

    def draw_all():
        for _ in simulator.draw_folded(cfgs, periods, seeds):
            pass

    peak = _traced_peak(draw_all)
    block = simulator.CHUNK_SAMPLES * 8
    assert peak < 2.5 * block, peak / block


def test_stream_draw_and_fold_hold_one_chunk_buffer():
    # twelve whole chunks of quick.cfg's 316-sample period and a partial
    # one, each drawn in place into the one buffer and folded into an
    # (N, K) sum: a per-chunk temporary, such as a tiled period or a
    # normal() result, would take the peak past one more buffer's half
    rc = parse_run_config(CONFIGS / "quick.cfg")
    step = simulator.chunk_length(PERIOD)
    cfg = replace(rc.acquisition, duration_s=(12 * step + 100) / 5e6)
    assert cfg.period_samples == PERIOD and cfg.noise_sigma > 0
    assert cfg.n_samples == 12 * step + 100

    def draw_and_fold():
        demux.average_periods(simulator.stream_chunks(cfg, rc.phantom), cfg)

    draw_and_fold()  # one-time caches: code, fluence scale
    peak = _traced_peak(draw_and_fold)
    buffer = step * 8
    assert peak < 1.5 * buffer, peak / buffer


DENSE_ORDER = 1019
DENSE_PERIODS = 4


def test_dense_simulate_holds_one_copy_of_s(tmp_path):
    # the stored S is a view over 2 N floats; LAPACK's copy is the one N**2
    # array, where an index matrix and int and float copies of S once sat
    quick = (CONFIGS / "quick.cfg").read_text()
    duration = DENSE_PERIODS * DENSE_ORDER / 1.25e6
    cfg = tmp_path / "dense.cfg"
    cfg.write_text(
        quick.replace("order = 79", f"order = {DENSE_ORDER}").replace(
            "duration_s = 5.056e-4", f"duration_s = {duration!r}"
        )
    )
    assert cfg.read_text().count(str(DENSE_ORDER)) == 1 and "5.056e-4" not in cfg.read_text()
    peaks = {
        kind: _peak_rss_mb(
            tmp_path, "--out-dir", str(tmp_path / kind), "simulate", "--config", str(cfg),
            "--solver", kind,
        )
        for kind in ("dense", "spectral")
    }
    gap = (peaks["dense"] - peaks["spectral"]) * 2**20
    assert gap < 2 * DENSE_ORDER**2 * 8, peaks


def test_identity_error_makes_no_n_squared_array():
    seq = codes.generate_s_sequence(DENSE_ORDER)
    peak = _traced_peak(codes.s_matrix_identity_error, seq)
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("kind", ["spectral", "dense"])
def test_inverse_check_holds_two_n_squared_arrays(kind):
    system = demux.CirculantSystem(codes.generate_s_sequence(DENSE_ORDER), kind)
    peak = _traced_peak(demux.analytic_inverse_check, system)
    s_bytes = DENSE_ORDER**2 * 8
    assert peak < 2.5 * s_bytes, peak / s_bytes


def test_identity_check_holds_under_two_copies_of_the_bits():
    seq = codes.generate_s_sequence(1048571)  # the largest usable order
    peak = _traced_peak(codes._check_identity, seq)
    assert peak < 2 * seq.nbytes, peak / seq.nbytes


def test_gen_code_at_the_largest_order_stays_near_the_smallest(tmp_path):
    peaks = {
        n: _peak_rss_mb(tmp_path, "--out-dir", str(tmp_path), "gen-code", str(n))
        for n in (7, 1048571)
    }
    assert peaks[1048571] - peaks[7] <= 10.0, peaks


def write_stack(scan, path):
    fileio.write_scan_stack_csv(*scan, BIN, path)


@pytest.mark.parametrize(
    "write, table",
    [
        # 2 and 20 y rows of five 500-bin profiles: 5 000 and 50 000 rows,
        # about 0.3 and 3 blocks
        (write_stack, lambda ny: scan_result(5, ny, 500, seed=8, y_max=0.001)),
        # one position of 20 000 and 200 000 bins, about 1.2 and 12 blocks
        (write_stack, lambda n: scan_result(1, 1, n * 10_000, seed=8)),
        # 20 000 and 200 000 bins, about 1.2 and 12 blocks
        (lambda values, path: fileio.write_profile_csv(values, 1.98e-4, path),
         lambda n: np.random.default_rng(8).normal(size=n * 10_000)),
    ],
    ids=["stack", "stack-bins", "profile"],
)
def test_table_writer_peak_does_not_grow_with_rows(tmp_path, write, table):
    # a table built whole, as its lines and their text, traces about
    # 230 bytes a row: ten times the rows, ten times the peak
    few, many = table(2), table(20)
    peaks = [_traced_peak(write, t, tmp_path / "table.csv") for t in (few, many)]
    assert peaks[1] < 1.5 * peaks[0], peaks


MAX_SCAN_GROWTH_MB = 6.0


def test_scan2d_stack_peak_rss_does_not_grow_with_the_grid(tmp_path):
    # quick.cfg's 33 x positions at 5 y rows, 52 140 stack rows, against
    # its one position x = 0: the stack writer held about 230 bytes a row
    quick = (CONFIGS / "quick.cfg").read_text()
    grids = {
        "one": quick.replace("x_min_m = -0.008", "x_min_m = 0.0").replace(
            "x_max_m = 0.008", "x_max_m = 0.0"),
        "grid": quick.replace("step_m = ", "y_min_m = -0.001\ny_max_m = 0.001\nstep_m = "),
    }
    peaks = {}
    for name, text in grids.items():
        assert text != quick
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_text(text)
        out = tmp_path / name
        peaks[name] = _peak_rss_mb(
            tmp_path, "--out-dir", str(out), "scan2d", "--config", str(cfg), "--stack"
        )
        rows = (out / "scan_stack.csv").read_text().count("\n") - 1
        assert rows == {"one": 1, "grid": 33 * 5}[name] * PERIOD
    assert peaks["grid"] - peaks["one"] < MAX_SCAN_GROWTH_MB, peaks
