"""Scan and SNR results do not depend on the folded draw's block size.

``simulator.draw_folded`` draws its rows in blocks of at most
``CHUNK_SAMPLES`` values; each row is its own period plus its own seed's
scaled draw, so every entry point that folds through it must give the
same bytes at one row a block as at every row in one block.  An overflow
anywhere in the draw, solve or extraction surfaces as NonFiniteSamples,
with no numpy warning (the suite turns warnings into errors).
"""

import functools

import numpy as np
import pytest

from aoimux import pipeline, simulator
from aoimux.config import ScanGrid, SweepPlan
from aoimux.errors import NonFiniteSamples
from streams import F_S, acquisition, phantom

config = functools.partial(
    acquisition,
    order=31,
    duration_s=(6 * 31 * 4 + 9) / F_S,  # six periods and a partial one
    noise_sigma=0.1,
    seed=21,
)


def scan(cfg):
    # 5 x 2 positions
    return simulator.scan_2d(cfg, phantom(), ScanGrid(-0.002, 0.002, 0.0, 0.001, 0.001))


def snr(cfg):
    return pipeline.measure_snr(cfg, phantom(), 10)[:2]


def sweep(cfg, reference="matched"):
    # two orders in two modes, folded side by side from one draw per trial
    plan = SweepPlan((7, 19), 10, reference=reference)
    _, stats = pipeline.multiplexing_advantage(cfg, phantom(), plan)
    return stats[..., :2]


def _at_each_block_size(monkeypatch, run, chunk_samples):
    """run() at chunk_samples and at every row in one block."""
    results = []
    for chunk in (chunk_samples, 1 << 16):
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", chunk)
        results.append(run())
    return results


@pytest.mark.parametrize("run", [scan, snr], ids=["scan_2d", "measure_snr"])
@pytest.mark.parametrize("mode", ["coded", "single-pulse"])
# one row a block; or 10 rows (positions or trials) of one 124-sample period
# in blocks of 4, 4 and 2
@pytest.mark.parametrize("chunk_samples", [1, 500])
def test_scan_and_snr_do_not_depend_on_the_block_size(monkeypatch, run, mode, chunk_samples):
    small, whole = _at_each_block_size(monkeypatch, lambda: run(config(mode)), chunk_samples)
    assert small.tobytes() == whole.tobytes()


@pytest.mark.parametrize("reference", ["matched", "max-rate"])
# one row a block; or 10 rows of 208 values (152 at max-rate, whose
# single-pulse periods are 24) in blocks of 2 (3, and a last one of 1)
@pytest.mark.parametrize("chunk_samples", [1, 500])
def test_sweep_does_not_depend_on_the_block_size(monkeypatch, reference, chunk_samples):
    small, whole = _at_each_block_size(
        monkeypatch, lambda: sweep(config(), reference), chunk_samples
    )
    assert small.tobytes() == whole.tobytes()


# folds of 6 periods: at 1e308 the solve or extraction overflows, at 1.7e308
# the draw itself does too
@pytest.mark.parametrize("sigma", [1e308, 1.7e308])
@pytest.mark.parametrize("run", [scan, snr, sweep], ids=["scan_2d", "measure_snr", "sweep"])
def test_an_overflow_raises_non_finite_samples(run, sigma):
    with pytest.raises(NonFiniteSamples, match="profile is not finite"):
        run(config(noise_sigma=sigma))
