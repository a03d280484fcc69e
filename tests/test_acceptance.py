"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.

Criterion 3 checks that the measured gain lies within +-10% of the exact
S-matrix advantage, written as sqrt(N)/2 times (N+1)/N, at orders 7, 19,
31 and 79, and that the sweep configs/default.cfg ships lands in the
same band at each of its orders.
"""

import functools
import math
import time

import numpy as np
import pytest

from aoimux import codes, demux, pipeline, simulator
from aoimux.config import parse_run_config
import streams
from streams import BIN, CONFIGS, F_S, K, demux_of, phantom, profile_of

acquisition = functools.partial(streams.acquisition, seed=20260810)

ADVANTAGE_ORDERS = [7, 19, 31, 79]
ADVANTAGE_TRIALS = 4000  # criterion asks for >= 200


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def test_criterion_1_s_matrix_identity():
    """Every valid order up to 103 satisfies the circulant identity exactly."""
    start = time.perf_counter()
    orders = codes.valid_orders(103)
    worst = max(
        codes.s_matrix_identity_error(codes.generate_s_sequence(n)) for n in orders
    )
    elapsed = time.perf_counter() - start
    ok = worst == 0 and elapsed < 1.0
    _report("1 s-matrix identity", ok, f"{len(orders)} orders, max dev {worst}, {elapsed:.2f}s")
    assert worst == 0
    assert elapsed < 1.0


def test_criterion_2_round_trip_and_solver_agreement():
    """Multiplex/demultiplex round trip and dense vs spectral agreement."""
    start = time.perf_counter()
    rng = np.random.default_rng(2)
    worst_rt = 0.0
    worst_cross = 0.0
    for n in (3, 7, 19, 79, 1019):
        seq = codes.generate_s_sequence(n)
        dense = demux.build_system(seq, "dense")
        spectral = demux.build_system(seq, "spectral")
        x = rng.random((100, n))
        y = dense.apply(x)
        xd = dense.solve_many(y)
        xs = spectral.solve_many(y)
        norms = np.linalg.norm(x, axis=1)
        worst_rt = max(worst_rt, (np.linalg.norm(xd - x, axis=1) / norms).max())
        cross = np.linalg.norm(xd - xs, axis=1) / np.linalg.norm(xd, axis=1)
        worst_cross = max(worst_cross, cross.max())
    elapsed = time.perf_counter() - start
    ok = worst_rt < 1e-9 and worst_cross < 1e-8 and elapsed < 10.0
    _report(
        "2 round trip",
        ok,
        f"round-trip {worst_rt:.2e}, cross-solver {worst_cross:.2e}, {elapsed:.1f}s",
    )
    assert worst_rt < 1e-9
    assert worst_cross < 1e-8
    assert elapsed < 10.0


def gains(orders, stats):
    """A sweep's coded orders and the measured gain at each, as lists."""
    return orders[:, 0].tolist(), (stats[:, 0, 2] / stats[:, 1, 2]).tolist()


@pytest.fixture(scope="module")
def advantage_curve():
    # equal wall-clock duration for every order and both modes: four
    # repetition periods of the largest order
    duration = 4 * 79 * K / F_S
    cfg = acquisition("coded", 79, duration_s=duration, noise_sigma=0.05)
    start = time.perf_counter()
    curve = pipeline.multiplexing_advantage(
        cfg, phantom(boundary=0.0005), pipeline.SweepPlan(tuple(ADVANTAGE_ORDERS), ADVANTAGE_TRIALS)
    )
    elapsed = time.perf_counter() - start
    return gains(*curve), elapsed


def test_criterion_3_runtime(advantage_curve):
    _, elapsed = advantage_curve
    _report("3 advantage runtime", elapsed < 300.0, f"{elapsed:.0f}s for "
            f"{ADVANTAGE_TRIALS} trials x {len(ADVANTAGE_ORDERS)} orders")
    assert elapsed < 300.0


@pytest.mark.parametrize("order", ADVANTAGE_ORDERS)
def test_criterion_3_gain_within_ten_percent_of_sqrt_n_over_2(advantage_curve, order):
    (orders, measured_gain), _ = advantage_curve
    idx = orders.index(order)
    measured = measured_gain[idx]
    # the exact advantage (N+1)/(2 sqrt(N)) is sqrt(N)/2 * (N+1)/N, 14.3% above
    # its large-N limit sqrt(N)/2 at N = 7
    target = pipeline.exact_multiplexing_gain(np.array(orders))[idx]
    assert target == pytest.approx(pipeline.exact_multiplexing_gain(order), rel=1e-12)
    asymptotic = math.sqrt(order) / 2
    rel = measured / target - 1.0
    rel_asymptotic = measured / asymptotic - 1.0
    ok = abs(rel) <= 0.10
    _report(
        f"3 advantage N={order}",
        ok,
        f"measured {measured:.3f} vs sqrt(N)/2 * (N+1)/N = {target:.3f} ({rel:+.1%}); "
        f"vs sqrt(N)/2 = {asymptotic:.3f} ({rel_asymptotic:+.1%})",
    )
    assert ok, (
        f"measured gain {measured:.4f} at N={order} is {rel:+.2%} from "
        f"sqrt(N)/2 * (N+1)/N = {target:.4f}, outside the +-10% band "
        f"({rel_asymptotic:+.2%} from sqrt(N)/2 = {asymptotic:.4f})"
    )


def test_criterion_3_order_79_absolute_range(advantage_curve):
    (orders, measured_gain), _ = advantage_curve
    measured = measured_gain[orders.index(79)]
    ok = 4.0 <= measured <= 4.9
    _report("3 advantage N=79 range", ok, f"measured {measured:.3f} in [4.0, 4.9]")
    assert ok


@pytest.fixture(scope="module")
def shipped_curve():
    run = parse_run_config(CONFIGS / "default.cfg")
    curve = pipeline.multiplexing_advantage(run.acquisition, run.phantom, run.sweep)
    return gains(*curve), run.sweep


@pytest.mark.parametrize("order", [59, 67, 71, 79])
def test_criterion_3_band_holds_for_the_shipped_default_sweep(shipped_curve, order):
    # the sweep configs/default.cfg ships, run as `aoimux snr-sweep` runs it
    (orders, measured_gain), plan = shipped_curve
    assert orders == list(plan.orders) == [59, 67, 71, 79]
    assert plan.n_trials == ADVANTAGE_TRIALS
    idx = orders.index(order)
    rel = measured_gain[idx] / pipeline.exact_multiplexing_gain(order) - 1.0
    _report(f"3 shipped default.cfg sweep N={order}", abs(rel) <= 0.10, f"{rel:+.1%}")
    assert abs(rel) <= 0.10, rel


def test_criterion_4_resolution_preservation():
    """Noise-free coded and single-pulse FWHM agree within one depth bin."""
    ph = phantom(boundary=0.003, extent=0.004, mu_a=1.0)
    duration = 3 * 79 * K / F_S
    fwhm = {}
    for mode in ("coded", "single-pulse"):
        cfg = acquisition(mode, 79, duration_s=duration, noise_sigma=0.0)
        samples = simulator.simulate_stream(cfg, ph)
        fwhm[mode] = pipeline.measure_fwhm(profile_of(samples, cfg), cfg.bin_width_m)
    gap = abs(fwhm["coded"] - fwhm["single-pulse"])
    ok = gap <= BIN
    _report(
        "4 resolution preservation",
        ok,
        f"coded {fwhm['coded'] * 1e3:.3f} mm vs single {fwhm['single-pulse'] * 1e3:.3f} mm, "
        f"gap {gap / BIN:.3f} bins",
    )
    assert gap <= BIN


def test_criterion_5_interleaving_exactness():
    """Deinterleave, invert per frame, reinterleave: exact at K = 4.

    The explicit path reshapes the complete periods to (periods, N, K),
    so frames[p, :, j] is subset j of period p, and solves every frame
    on its own."""
    start = time.perf_counter()
    ph = phantom(boundary=0.002, extent=0.03)
    duration = 3 * 79 * K / F_S
    coded_cfg = acquisition("coded", 79, duration_s=duration)
    single_cfg = acquisition("single-pulse", 79, duration_s=duration)
    coded = simulator.simulate_stream(coded_cfg, ph)
    single = simulator.simulate_stream(single_cfg, ph)
    assert coded_cfg.subsets_per_cycle == 4

    system = demux.build_system(codes.generate_s_sequence(79), "spectral")
    periods = coded.size // (79 * K)
    frames = coded[: periods * 79 * K].reshape(periods, 79, K)
    solved = np.empty_like(frames)
    for p in range(periods):
        for j in range(K):
            solved[p, :, j] = system.solve(frames[p, :, j])
    merged = solved.reshape(-1)  # back in time order
    profile = merged.reshape(periods, 79 * K).mean(axis=0)
    truth = profile_of(single, single_cfg, extract=False)
    rel = np.linalg.norm(profile - truth) / np.linalg.norm(truth)

    stream_path = demux_of(system, coded, coded_cfg)
    rel_stream = np.linalg.norm(stream_path - truth) / np.linalg.norm(truth)
    elapsed = time.perf_counter() - start
    ok = rel < 1e-6 and rel_stream < 1e-6 and elapsed < 5.0
    _report(
        "5 interleaving exactness",
        ok,
        f"explicit path {rel:.2e}, stream path {rel_stream:.2e}, {elapsed:.1f}s",
    )
    assert rel < 1e-6
    assert rel_stream < 1e-6
    assert elapsed < 5.0


def test_criterion_6_prf_arithmetic():
    """Repetition rate and in-water pulse spacing for N=79 at 1.25 MHz."""
    cfg = acquisition("coded", 79, duration_s=1e-3)
    prf_ok = abs(cfg.prf - 15.82e3) / 15.82e3 < 0.01
    spacing_ok = abs(cfg.inter_pulse_spacing_m - 0.094) / 0.094 < 0.01
    ok = prf_ok and spacing_ok
    _report(
        "6 prf arithmetic",
        ok,
        f"prf {cfg.prf:.1f} Hz vs 15.82 kHz, spacing "
        f"{cfg.inter_pulse_spacing_m * 100:.2f} cm vs 9.4 cm",
    )
    assert prf_ok
    assert spacing_ok


def test_criterion_7_noise_propagation_oracle():
    """Per-bin output noise matches the dense inverse row norm within 5%."""
    n = 31
    system = demux.build_system(codes.generate_s_sequence(n), "dense")
    inv = np.linalg.inv(system.matrix().astype(float))
    predicted = np.linalg.norm(inv, axis=1)  # equal rows: 2 sqrt(N)/(N+1)
    rng = np.random.default_rng(7)
    solved = system.solve_many(rng.normal(0.0, 1.0, (10_000, n)))
    per_bin = solved.std(axis=0, ddof=1)
    worst = np.abs(per_bin / predicted - 1.0).max()
    ok = worst < 0.05
    _report("7 noise propagation", ok, f"max per-bin deviation {worst:.1%}")
    assert worst < 0.05


class TestCriterion8Scan:
    """2D scan: connected off-chord ridge and a >= 4x coded map SNR.

    Ridge-extraction rule (the documented test): for every scan column
    strictly between the fibers, the ridge depth is the amplitude
    weighted centroid of the bins within 90% of the column maximum of
    the noise-free coded stack.  The ridge must (a) exist with positive
    signal in every interior column, (b) be connected: adjacent ridge
    depths differ by at most 2 bins, and (c) run off the straight
    source-detector chord: every deviation at least 0.5 bins, mean at
    least 1 bin, all to the same side.
    """

    BOUNDARY = 0.00205
    EXTENT = 0.04
    GRID = simulator.ScanGrid(-0.008, 0.008, 0.0, 0.0, 0.0005)

    def _phantom(self):
        return phantom(boundary=self.BOUNDARY, extent=self.EXTENT, mu_a=0.05)

    def _config(self, mode, noise):
        return acquisition(mode, 79, duration_s=8 * 79 * K / F_S, noise_sigma=noise, seed=99)

    def _scan(self, mode, noise):
        return simulator.scan_2d(self._config(mode, noise), self._phantom(), self.GRID)

    def test_banana_ridge(self):
        ph = self._phantom()
        ref = self._scan("coded", 0.0)
        xs, _ = self.GRID.positions()
        chord_bin = ph.boundary_z_m / BIN
        interior = (xs > ph.src_x_m + 1e-12) & (xs < ph.det_x_m - 1e-12)
        ridges = []
        for ix in np.nonzero(interior)[0]:
            column = ref[0, ix]
            assert column.max() > 0.0
            sel = column >= 0.9 * column.max()
            idx = np.arange(column.size)[sel]
            ridges.append(float((idx * column[sel]).sum() / column[sel].sum()))
        ridges = np.asarray(ridges)
        deviations = ridges - chord_bin
        connected = np.abs(np.diff(ridges)).max() <= 2.0
        off_chord = (
            np.abs(deviations).min() >= 0.5
            and np.abs(deviations).mean() >= 1.0
            and (np.all(deviations > 0) or np.all(deviations < 0))
        )
        ok = connected and off_chord
        _report(
            "8 banana ridge",
            ok,
            f"{ridges.size} interior columns, mean offset "
            f"{np.abs(deviations).mean():.2f} bins, max step "
            f"{np.abs(np.diff(ridges)).max():.2f} bins",
        )
        assert connected
        assert off_chord

    def test_coded_map_snr_at_least_four_times_single_pulse(self):
        ref = self._scan("coded", 0.0)
        background = ref[0] < 1e-3 * ref.max()
        assert background.sum() > 1000
        snr = {}
        for mode in ("coded", "single-pulse"):
            stack = self._scan(mode, 0.05)[0]
            snr[mode] = stack.max() / stack[background].std(ddof=1)
        ratio = snr["coded"] / snr["single-pulse"]
        ok = ratio >= 4.0
        _report(
            "8 map snr",
            ok,
            f"coded {snr['coded']:.0f} vs single {snr['single-pulse']:.0f}, ratio {ratio:.2f}",
        )
        assert ratio >= 4.0
