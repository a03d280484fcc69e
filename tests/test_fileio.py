"""File formats: streams, CSVs, PGM images, SVG charts."""

import math
import re

import numpy as np
import pytest

from aoimux import codes, config, fileio, pipeline, simulator
from aoimux.config import format_value, parse_run_config, write_manifest
from aoimux.errors import ConfigError, LengthMismatch, NonFiniteSamples
from streams import BIN, CONFIGS, acquisition, phantom, scan_result


def sample_stream():
    """(samples, cfg): a two-period order-7 stream and its acquisition."""
    cfg = acquisition(order=7, noise_sigma=0.25, seed=3, water_path_m=0.09)
    return simulator.simulate_stream(cfg, phantom(mu_a=0.2, boundary=0.0002)), cfg


def advantage_curve(orders, gains):
    """(orders, measured, theoretical): a curve's coded orders, the given
    measured gains and the exact gain at each order, 1-D arrays."""
    orders = np.array(orders)
    return orders, np.array(gains, dtype=np.float64), pipeline.exact_multiplexing_gain(orders)


def sweep_statistics(orders, gains):
    """(orders, stats) of a matched sweep whose single-pulse SNR is 1 at
    each order, so the coded SNR is the gain."""
    gains = np.array(gains, dtype=np.float64)
    stats = np.ones((gains.size, 2, 3))
    stats[:, 0, 0] = stats[:, 0, 2] = gains
    return np.repeat(np.array(orders)[:, None], 2, axis=1), stats


class TestSequenceFiles:
    def test_round_trip(self, tmp_path):
        seq = codes.generate_s_sequence(19)
        path = tmp_path / "code.txt"
        fileio.write_sequence(seq, path)
        order, bits = path.read_text().removesuffix("\n").split(":")
        assert order == "19"
        assert np.array_equal(np.array(list(bits), dtype=np.uint8), seq)


class TestStreamFiles:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        samples, cfg = sample_stream()
        path = tmp_path / "stream.bin"
        fileio.write_stream(samples, path, cfg)
        again, again_cfg = fileio.read_stream(path)
        assert np.array_equal(again, samples)
        assert again_cfg == cfg

    def test_payload_bytes_are_little_endian_float64(self, tmp_path):
        samples, cfg = sample_stream()
        path = tmp_path / "stream.bin"
        fileio.write_stream(samples, path, cfg)
        payload = path.read_bytes().split(b"\n", 1)[1]
        assert payload == samples.astype("<f8").tobytes()

    def test_header_is_single_text_line(self, tmp_path):
        samples, cfg = sample_stream()
        path = tmp_path / "stream.bin"
        fileio.write_stream(samples, path, cfg)
        first = path.read_bytes().split(b"\n", 1)[0].decode("ascii")
        assert first.startswith("aoimux-stream 1 ")
        assert "f_s=" in first and "length=" in first and "mode=coded" in first

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a stream\n\x00\x01")
        with pytest.raises(ConfigError):
            fileio.read_stream(path)

    def test_rejects_truncated_payload(self, tmp_path):
        samples, cfg = sample_stream()
        path = tmp_path / "stream.bin"
        fileio.write_stream(samples, path, cfg)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ConfigError):
            fileio.read_stream(path)

    def test_chunks_are_whole_periods_and_equal_the_payload(self, tmp_path, monkeypatch):
        # 2 periods of 28 and 3 samples, written in one go, read one period a chunk
        samples, cfg = sample_stream()
        samples = np.append(samples, [1.0, 2.0, 3.0])
        path = tmp_path / "stream.bin"
        fileio.write_stream(samples, path, cfg)
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", 30)
        with fileio.open_stream(path) as sf:
            assert (sf.config, sf.length) == (cfg, 59)
            chunks = [chunk.copy() for chunk in sf.chunks()]
        assert [c.size for c in chunks] == [28, 28, 3]
        assert np.array_equal(np.concatenate(chunks), samples)

    def test_chunked_writer_equals_write_stream(self, tmp_path):
        samples, cfg = sample_stream()
        whole, chunked = tmp_path / "whole.bin", tmp_path / "chunked.bin"
        fileio.write_stream(samples, whole, cfg)
        with fileio.stream_writer(chunked, cfg, samples.size) as write:
            for start in range(0, samples.size, 28):
                chunk = samples[start : start + 28]
                assert write(chunk) is chunk  # so map(write, chunks) can feed a fold
        assert chunked.read_bytes() == whole.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chunked.bin", "whole.bin"]

    def test_failed_writer_leaves_no_file(self, tmp_path):
        samples, cfg = sample_stream()
        path = tmp_path / "stream.bin"
        with pytest.raises(RuntimeError):
            with fileio.stream_writer(path, cfg, 56) as write:
                write(samples[:28])
                raise RuntimeError("simulated failure")
        with pytest.raises(LengthMismatch):
            with fileio.stream_writer(path, cfg, 56) as write:
                write(samples[:28])  # one period short of the header
        assert not list(tmp_path.iterdir())


    @pytest.mark.parametrize("shape", [(2, 28), (56, 1), ()])
    def test_samples_that_are_not_1d_are_refused_before_any_file(self, tmp_path, shape):
        samples, cfg = sample_stream()
        samples = samples[: math.prod(shape)].reshape(shape)
        path = tmp_path / "stream.bin"
        with pytest.raises(LengthMismatch, match="1-D"):
            fileio.write_stream(samples, path, cfg)
        with pytest.raises(LengthMismatch, match="1-D"):
            with fileio.stream_writer(path, cfg, samples.size) as write:
                write(samples)
        assert not list(tmp_path.iterdir())  # no stream.bin and no stream.bin.part


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        prof = np.linspace(0, 1, 33)
        path = tmp_path / "profile.csv"
        fileio.write_profile_csv(prof, 2e-4, path)
        depths, values = np.loadtxt(path, delimiter=",", skiprows=1).T
        np.testing.assert_allclose(values, prof, rtol=0)
        np.testing.assert_allclose(depths, np.arange(33) * 2e-4, rtol=0)

    def test_header_units(self, tmp_path):
        path = tmp_path / "profile.csv"
        fileio.write_profile_csv(np.ones(4), 1e-4, path)
        assert path.read_text().splitlines()[0] == "depth_m,amplitude"

    def test_integer_values_are_read_as_float64(self, tmp_path):
        fileio.write_profile_csv(np.arange(5), 1e-4, tmp_path / "int.csv")
        fileio.write_profile_csv(np.arange(5.0), 1e-4, tmp_path / "float.csv")
        assert (tmp_path / "int.csv").read_bytes() == (tmp_path / "float.csv").read_bytes()


@pytest.mark.parametrize("shape", [(2, 3), (2, 9)])
@pytest.mark.parametrize(
    "call",
    [
        lambda values, path: pipeline.measure_fwhm(values, 1e-4),
        lambda values, path: fileio.write_profile_csv(values, 1e-4, path),
        # a sweep's statistics or orders, and an advantage curve's gains
        lambda values, path: fileio.write_snr_reports_csv(np.full((2, 2), 7), values, 30, path),
        lambda values, path: fileio.write_snr_reports_csv(values, np.ones((2, 2, 3)), 30, path),
        lambda values, path: fileio.write_advantage_csv([7, 19], values, np.ones(2), path),
        lambda values, path: fileio.write_advantage_svg([7, 19], np.ones(2), values, path),
    ],
    ids=["measure_fwhm", "write_profile_csv", "write_snr_reports_csv-stats",
         "write_snr_reports_csv-orders", "write_advantage_csv", "write_advantage_svg"],
)
def test_a_single_profile_function_rejects_a_stack(tmp_path, call, shape):
    values = np.arange(math.prod(shape), dtype=np.float64).reshape(shape)
    with pytest.raises(LengthMismatch, match=re.escape(str(shape))):
        call(values, tmp_path / "profile.csv")
    assert not list(tmp_path.iterdir())  # the writer made no file, not even a .part


class TestExperimentCsv:
    def test_snr_reports(self, tmp_path):
        stats = np.array([[[1.5, 0.1, 15.0], [1.5, 0.45, 10.0 / 3.0]]])
        path = tmp_path / "reports.csv"
        fileio.write_snr_reports_csv(np.array([[79, 79]]), stats, 30, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "mode,order,n_trials,signal_mean,noise_std,snr"
        assert len(rows) == 3
        assert rows[1].startswith("coded,79,30,")
        assert rows[2] == "single-pulse,79,30,1.5,0.45,3.3333333333333335"

    def test_advantage_csv(self, tmp_path):
        curve = advantage_curve([7, 79], [1.5, 4.5])
        path = tmp_path / "curve.csv"
        fileio.write_advantage_csv(*curve, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "order,measured_gain,theoretical_gain"
        assert rows[1].split(",")[0] == "7"
        assert float(rows[2].split(",")[2]) == pytest.approx(80 / (2 * 79**0.5))

    def test_advantage_svg(self, tmp_path):
        curve = advantage_curve([7, 19, 79], [1.5, 2.3, 4.5])
        path = tmp_path / "curve.svg"
        fileio.write_advantage_svg(*curve, path)
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert 'stroke="blue"' in text and 'stroke="red"' in text
        assert text.startswith("<svg ")
        assert "theoretical (N+1)/(2 sqrt N)" in text
        with pytest.raises(LengthMismatch, match="at least one order"):
            fileio.write_advantage_svg([], [], [], tmp_path / "empty.svg")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["curve.svg"]

    @pytest.mark.parametrize(
        "column, value, error, message",
        [
            (1, [1.5, math.nan], NonFiniteSamples, "1 of 4 gains are NaN or infinite"),
            (1, [math.inf, 2.3], NonFiniteSamples, "1 of 4 gains are NaN or infinite"),
            (2, [1.5, -math.inf], NonFiniteSamples, "1 of 4 gains are NaN or infinite"),
            # three orders of two gains each
            (0, [7, 19, 31], LengthMismatch, "1-D arrays of one length, got (3,), (2,), (2,)"),
        ],
        ids=["nan-measured", "inf-measured", "inf-theoretical", "orders-one-long"],
    )
    @pytest.mark.parametrize(
        "write", [fileio.write_advantage_csv, fileio.write_advantage_svg], ids=["csv", "svg"]
    )
    def test_an_advantage_writer_refuses_a_curve_before_any_file(
        self, tmp_path, write, column, value, error, message
    ):
        curve = list(advantage_curve([7, 19], [1.5, 2.3]))
        curve[column] = value
        with pytest.raises(error, match=re.escape(message)):
            write(*curve, tmp_path / "curve")
        assert not list(tmp_path.iterdir())


class TestPgm:
    def test_linear_image(self, tmp_path):
        img = np.array([[0.0, 0.5], [0.25, 1.0]])
        path = tmp_path / "map.pgm"
        fileio.write_pgm(img, path)
        data = path.read_bytes()
        header, payload = data.split(b"255\n", 1)
        assert header == b"P5\n2 2\n"
        assert list(payload) == [0, 128, 64, 255]

    def test_db_image_clips_at_floor(self, tmp_path):
        img = np.array([[1.0, 0.1, 1e-6]])
        path = tmp_path / "map_db.pgm"
        fileio.write_pgm(img, path, db_floor=-40.0)
        payload = path.read_bytes().split(b"255\n", 1)[1]
        # 0 dB -> 255, -20 dB -> half scale, -120 dB -> clipped to 0
        assert list(payload) == [255, 128, 0]

    @pytest.mark.parametrize("db_floor", [None, -40.0], ids=["linear", "db"])
    def test_negative_pixel_is_written_as_zero(self, tmp_path, db_floor):
        # -255 would wrap to 1 in the uint8 cast
        path = tmp_path / "map.pgm"
        fileio.write_pgm(np.array([[-1.0, 1.0]]), path, db_floor=db_floor)
        assert path.read_bytes() == b"P5\n2 1\n255\n\x00\xff"

    @pytest.mark.parametrize("db_floor", [None, -40.0], ids=["linear", "db"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_pixel_raises_before_any_file(self, tmp_path, bad, db_floor):
        with pytest.raises(NonFiniteSamples, match="1 of 2 pixels are NaN or infinite"):
            fileio.write_pgm(np.array([[bad, 1.0]]), tmp_path / "x.pgm", db_floor=db_floor)
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("db_floor", [3.0, math.nan])
    @pytest.mark.parametrize("image", [np.ones((2, 2)), np.zeros((2, 2))], ids=["ones", "zeros"])
    def test_db_floor_must_be_negative(self, tmp_path, image, db_floor):
        # checked before the image is looked at: an all-zero image is no exception
        with pytest.raises(ConfigError, match="db_floor must be negative"):
            fileio.write_pgm(image, tmp_path / "x.pgm", db_floor=db_floor)
        assert not (tmp_path / "x.pgm").exists()

    @pytest.mark.parametrize("shape", [(5,), (2, 2, 2), (0, 3)])
    def test_an_image_that_is_not_2d_raises_before_any_file(self, tmp_path, shape):
        with pytest.raises(LengthMismatch, match=re.escape(str(shape))):
            fileio.write_pgm(np.ones(shape), tmp_path / "x.pgm")
        assert not list(tmp_path.iterdir())  # no image, not even a .part


def write_map(xs, ys, stack, path):
    """The map writer on a stack's peaks, as scan2d writes them."""
    fileio.write_scan_map_csv(xs, ys, stack.max(axis=-1), path)


def write_stack(xs, ys, stack, path):
    fileio.write_scan_stack_csv(xs, ys, stack, BIN, path)


class TestScanCsv:
    def test_map_and_stack(self, tmp_path):
        cfg = acquisition(order=7, seed=1)
        ph = phantom(mu_a=0.2, boundary=0.0002, separation=0.002)
        grid = config.ScanGrid(-0.001, 0.001, 0.0, 0.0, 0.001)
        stack = simulator.scan_2d(cfg, ph, grid)
        xs, ys = grid.positions()
        map_path = tmp_path / "map.csv"
        stack_path = tmp_path / "stack.csv"
        fileio.write_scan_map_csv(xs, ys, stack.max(axis=-1), map_path)
        fileio.write_scan_stack_csv(xs, ys, stack, cfg.bin_width_m, stack_path)
        map_rows = map_path.read_text().strip().splitlines()
        assert map_rows[0] == "x_m,y_m,peak_amplitude"
        assert len(map_rows) == 1 + 3
        stack_rows = stack_path.read_text().strip().splitlines()
        assert stack_rows[0] == "x_m,y_m,depth_m,amplitude"
        assert len(stack_rows) == 1 + 3 * stack.shape[-1]

    def test_map_writes_exactly_the_peaks_it_is_given(self, tmp_path):
        # peaks of no stack: the writer takes them as they are
        xs, ys = np.array([-0.002, 0.0, 0.001, 0.0035]), np.array([0.0, 0.0005, 0.001])
        peaks = np.random.default_rng(3).normal(size=(ys.size, xs.size))
        path = tmp_path / "map.csv"
        fileio.write_scan_map_csv(xs, ys, peaks, path)
        assert path.read_bytes() == _map_text(xs, ys, peaks)

    @pytest.mark.parametrize(
        "nx, ny", [(3, 3), (5, 3), (4, 2), (4, 4)],
        ids=["x-one-short", "x-one-long", "y-one-short", "y-one-long"],
    )
    @pytest.mark.parametrize("write", [write_map, write_stack], ids=["map", "stack"])
    def test_a_scan_writer_rejects_a_stack_that_does_not_fit_its_grid(
        self, tmp_path, write, nx, ny
    ):
        # a 3 x 4 grid's stack under nx x and ny y positions
        *_, stack = scan_result(4, 3, 5, seed=5)
        xs, ys, _ = scan_result(nx, ny, 0, seed=5)
        with pytest.raises(LengthMismatch, match="does not fit a grid"):
            write(xs, ys, stack, tmp_path / "scan.csv")
        assert not list(tmp_path.iterdir())  # the writer made no file, not even a .part


def _whole_text(header, rows):
    """A table as the whole text it was once built as before writing."""
    return ("\n".join([header] + rows) + "\n").encode()


def _texts(values):
    """format_value of each value, read as Python floats: the same text as
    from numpy scalars, in a fraction of the time."""
    return [format_value(v) for v in values.tolist()]


def _map_text(xs, ys, peaks):
    """A peak map's whole text, a row per position, x fastest."""
    xs = _texts(xs)
    rows = [
        f"{x},{y},{format_value(v)}"
        for y, row in zip(_texts(ys), peaks.tolist())
        for x, v in zip(xs, row)
    ]
    return _whole_text("x_m,y_m,peak_amplitude", rows)


BLOCK = fileio._TABLE_ROWS


class TestTableBlocks:
    """Every routed writer writes the bytes of its whole-text form, at
    block boundaries too, and a failed write leaves no file behind."""

    @pytest.mark.parametrize("bins", [1, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 3])
    def test_profile_equals_whole_text(self, tmp_path, bins):
        prof = np.random.default_rng(bins).normal(size=bins)
        path = tmp_path / "profile.csv"
        fileio.write_profile_csv(prof, 1.98e-4, path)
        rows = [f"{z},{v}" for z, v in zip(_texts(np.arange(bins) * 1.98e-4), _texts(prof))]
        assert path.read_bytes() == _whole_text("depth_m,amplitude", rows)

    @pytest.mark.parametrize(
        "nx, ny, bins",
        [
            (1, 1, 7),  # one position
            (9, 1, 316),  # a 1-D grid
            (4, 3, 11),  # a 2-D grid of several y rows
            (2, 1, BLOCK - 1),  # a stack split within each position
            (2, 1, BLOCK),
            (1, 2, BLOCK + 1),
            (BLOCK - 1, 2, 2),  # a map split within each y row
            (BLOCK, 2, 2),
            (BLOCK + 1, 2, 2),
        ],
        ids=["one-position", "1d-grid", "2d-grid", "block-1", "block", "block+1",
             "map-block-1", "map-block", "map-block+1"],
    )
    def test_scan_tables_equal_whole_text(self, tmp_path, nx, ny, bins):
        xs, ys, stack = scan_result(nx, ny, bins, seed=5)
        write_stack(xs, ys, stack, tmp_path / "stack.csv")
        write_map(xs, ys, stack, tmp_path / "map.csv")
        depths = _texts(np.arange(bins) * BIN)
        stack_rows = [
            f"{x},{y},{z},{format_value(v)}"
            for y, plane in zip(_texts(ys), stack.tolist())
            for x, profile in zip(_texts(xs), plane)
            for z, v in zip(depths, profile)
        ]
        assert len(stack_rows) == nx * ny * bins
        assert (tmp_path / "stack.csv").read_bytes() == _whole_text(
            "x_m,y_m,depth_m,amplitude", stack_rows
        )
        assert (tmp_path / "map.csv").read_bytes() == _map_text(xs, ys, stack.max(axis=-1))

    def test_sweep_tables_equal_whole_text(self, tmp_path):
        orders, stats = sweep_statistics([7, 19, 79], [1.5, 2.3, 4.5])
        curve = advantage_curve([7, 19, 79], [1.5, 2.3, 4.5])
        fileio.write_snr_reports_csv(orders, stats, 30, tmp_path / "reports.csv")
        fileio.write_advantage_csv(*curve, tmp_path / "curve.csv")
        f = format_value
        reports = [
            f"{mode},{n},30,{f(signal)},{f(noise)},{f(snr)}"
            for pair, modes in zip(orders.tolist(), stats.tolist())
            for mode, n, (signal, noise, snr) in zip(("coded", "single-pulse"), pair, modes)
        ]
        assert (tmp_path / "reports.csv").read_bytes() == _whole_text(
            "mode,order,n_trials,signal_mean,noise_std,snr", reports
        )
        gains = [f"{n},{f(m)},{f(t)}" for n, m, t in zip(*(a.tolist() for a in curve))]
        assert (tmp_path / "curve.csv").read_bytes() == _whole_text(
            "order,measured_gain,theoretical_gain", gains
        )

    def test_empty_tables_are_their_header(self, tmp_path):
        fileio.write_snr_reports_csv(np.zeros((0, 2)), np.zeros((0, 2, 3)), 30,
                                     tmp_path / "reports.csv")
        write_stack(*scan_result(3, 2, 0, seed=5), tmp_path / "stack.csv")
        fileio.write_profile_csv(np.zeros(0), 1.98e-4, tmp_path / "profile.csv")
        assert (tmp_path / "reports.csv").read_bytes() == (
            b"mode,order,n_trials,signal_mean,noise_std,snr\n"
        )
        assert (tmp_path / "stack.csv").read_bytes() == b"x_m,y_m,depth_m,amplitude\n"
        assert (tmp_path / "profile.csv").read_bytes() == b"depth_m,amplitude\n"

    @pytest.mark.parametrize(
        "write, fail_at",
        [
            (lambda path: fileio.write_profile_csv(np.ones(3 * BLOCK), 1e-4, path), 3),
            (lambda path: write_stack(*scan_result(3, 2, 50, seed=5), path), 3),
            (lambda path: write_map(*scan_result(5, 4, 2, seed=5), path), 3),
            (lambda path: fileio.write_advantage_csv(*advantage_curve([7, 19], [1.5, 2.3]), path),
             2),
            # the writers of one text, whose one write fails
            (lambda path: fileio.write_sequence(codes.generate_s_sequence(19), path), 1),
            (lambda path: fileio.write_advantage_svg(*advantage_curve([7, 19], [1.5, 2.3]), path),
             1),
            (lambda path: write_manifest(parse_run_config(CONFIGS / "quick.cfg"), path), 1),
            # the image header reaches the file, then its pixels fail
            (lambda path: fileio.write_pgm(np.ones((3, 4)), path), 2),
        ],
        ids=["profile", "stack", "map", "advantage", "sequence", "svg", "manifest", "pgm"],
    )
    @pytest.mark.parametrize("existing", [False, True], ids=["new", "over-an-old-table"])
    def test_a_write_failing_partway_leaves_no_partial_table(
        self, tmp_path, monkeypatch, write, fail_at, existing
    ):
        # the writes before the fail_at-th reach the file (a table's header,
        # and a block where there are several); then that one fails
        path = tmp_path / "table.csv"
        if existing:
            path.write_text("old\n")
        writes = []

        class FailingFile:
            def __init__(self, fh):
                self._fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self._fh.close()

            def write(self, text):
                writes.append(text)
                if len(writes) == fail_at:
                    raise OSError("No space left on device")
                return self._fh.write(text)

        monkeypatch.setattr(fileio, "open", lambda *a, **k: FailingFile(open(*a, **k)),
                            raising=False)
        with pytest.raises(OSError, match="No space left"):
            write(path)
        assert len(writes) == fail_at
        assert [p.name for p in tmp_path.iterdir()] == (["table.csv"] if existing else [])
        if existing:
            assert path.read_text() == "old\n"
