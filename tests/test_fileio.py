"""File formats: streams, CSVs, PGM images, SVG charts."""

import numpy as np
import pytest

from aoimux import codes, fileio, pipeline, simulator
from aoimux.config import format_value
from aoimux.demux import DepthProfile
from aoimux.errors import ConfigError, LengthMismatch
from aoimux.pipeline import AdvantageCurve, SnrReport


def sample_stream(noise=0.25):
    cfg = simulator.AcquisitionConfig(
        f_us=1.25e6,
        f_s=5e6,
        c=990.0,
        mode="coded",
        order=7,
        duration_s=2 * 28 / 5e6,
        noise_sigma=noise,
        seed=3,
        water_path_m=0.09,
    )
    ph = simulator.Phantom(
        mu_s_prime_per_cm=15.0,
        mu_a_per_cm=0.2,
        src_x_m=-0.0075,
        det_x_m=0.0075,
        boundary_z_m=0.0002,
        depth_extent_m=0.004,
    )
    return simulator.simulate_stream(cfg, ph)


def advantage_curve(orders, gains):
    """Curve whose single-pulse SNR is 1 at each order, so the coded SNR is the gain."""
    reports = []
    for n, gain in zip(orders, gains):
        reports += [SnrReport("coded", n, 30, gain, 1.0, gain),
                    SnrReport("single-pulse", n, 30, 1.0, 1.0, 1.0)]
    return AdvantageCurve(tuple(reports))


class TestSequenceFiles:
    def test_round_trip(self, tmp_path):
        seq = codes.generate_s_sequence(19)
        path = tmp_path / "code.txt"
        fileio.write_sequence(seq, path)
        again = fileio.read_sequence(path)
        assert again.order == 19
        assert np.array_equal(again.bits, seq.bits)


class TestStreamFiles:
    def test_binary_round_trip_bit_exact(self, tmp_path):
        stream = sample_stream()
        path = tmp_path / "stream.bin"
        fileio.write_stream(stream, path)
        again = fileio.read_stream(path)
        assert np.array_equal(again.samples, stream.samples)
        assert again.config_snapshot == stream.config_snapshot

    def test_payload_bytes_are_little_endian_float64(self, tmp_path):
        stream = sample_stream()
        path = tmp_path / "stream.bin"
        fileio.write_stream(stream, path)
        payload = path.read_bytes().split(b"\n", 1)[1]
        assert payload == stream.samples.astype("<f8").tobytes()

    def test_header_is_single_text_line(self, tmp_path):
        path = tmp_path / "stream.bin"
        fileio.write_stream(sample_stream(), path)
        first = path.read_bytes().split(b"\n", 1)[0].decode("ascii")
        assert first.startswith("aoimux-stream 1 ")
        assert "f_s=" in first and "length=" in first and "mode=coded" in first

    def test_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a stream\n\x00\x01")
        with pytest.raises(ConfigError):
            fileio.read_stream(path)

    def test_rejects_truncated_payload(self, tmp_path):
        path = tmp_path / "stream.bin"
        fileio.write_stream(sample_stream(), path)
        data = path.read_bytes()
        path.write_bytes(data[:-16])
        with pytest.raises(ConfigError):
            fileio.read_stream(path)

    def test_chunks_are_whole_periods_and_equal_the_payload(self, tmp_path, monkeypatch):
        # 2 periods of 28 and 3 samples, written in one go, read one period a chunk
        stream = sample_stream()
        stream.samples = np.append(stream.samples, [1.0, 2.0, 3.0])
        path = tmp_path / "stream.bin"
        fileio.write_stream(stream, path)
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", 30)
        with fileio.open_stream(path) as sf:
            assert (sf.config, sf.length) == (stream.config_snapshot, 59)
            chunks = [chunk.copy() for chunk in sf.chunks()]
        assert [c.size for c in chunks] == [28, 28, 3]
        assert np.array_equal(np.concatenate(chunks), stream.samples)

    def test_chunked_writer_equals_write_stream(self, tmp_path):
        stream = sample_stream()
        whole, chunked = tmp_path / "whole.bin", tmp_path / "chunked.bin"
        fileio.write_stream(stream, whole)
        cfg = stream.config_snapshot
        with fileio.stream_writer(chunked, cfg, len(stream)) as write:
            for start in range(0, len(stream), 28):
                chunk = stream.samples[start : start + 28]
                assert write(chunk) is chunk  # so map(write, chunks) can feed a fold
        assert chunked.read_bytes() == whole.read_bytes()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chunked.bin", "whole.bin"]

    def test_failed_writer_leaves_no_file(self, tmp_path):
        stream = sample_stream()
        path = tmp_path / "stream.bin"
        with pytest.raises(RuntimeError):
            with fileio.stream_writer(path, stream.config_snapshot, 56) as write:
                write(stream.samples[:28])
                raise RuntimeError("simulated failure")
        with pytest.raises(LengthMismatch):
            with fileio.stream_writer(path, stream.config_snapshot, 56) as write:
                write(stream.samples[:28])  # one period short of the header
        assert not list(tmp_path.iterdir())


class TestProfileCsv:
    def test_round_trip(self, tmp_path):
        prof = DepthProfile(np.linspace(0, 1, 33), bin_width_m=2e-4)
        path = tmp_path / "profile.csv"
        fileio.write_profile_csv(prof, path)
        again = fileio.read_profile_csv(path)
        np.testing.assert_allclose(again.values, prof.values, rtol=0)
        assert again.bin_width_m == pytest.approx(prof.bin_width_m)

    def test_first_depth_not_zero_rejected(self, tmp_path):
        path = tmp_path / "profile.csv"
        path.write_text("depth_m,amplitude\n0.001,0.5\n0.0012,1.0\n")
        with pytest.raises(ConfigError, match="first depth"):
            fileio.read_profile_csv(path)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0.0,0.5\n0.0002,1.0,2.0\n", "malformed profile row"),
            ("0.0,0.5\n0.0002,high\n", "malformed profile row"),
            ("0.0,0.5\n0.0,1.0\n", "bin_width_m must be positive"),
            ("0,1\n0.001,2\n0.5,3\n-7.0,4\n", "depths are not the multiples of 0.001"),
        ],
        ids=["three-fields", "not-a-number", "repeated-depth", "irregular-depths"],
    )
    def test_malformed_rows_rejected(self, tmp_path, rows, message):
        path = tmp_path / "profile.csv"
        path.write_text("depth_m,amplitude\n" + rows)
        with pytest.raises(ConfigError, match=message):
            fileio.read_profile_csv(path)

    def test_header_units(self, tmp_path):
        path = tmp_path / "profile.csv"
        fileio.write_profile_csv(DepthProfile(np.ones(4), bin_width_m=1e-4), path)
        assert path.read_text().splitlines()[0] == "depth_m,amplitude"


class TestExperimentCsv:
    def test_snr_reports(self, tmp_path):
        reports = [
            SnrReport("coded", 79, 30, 1.5, 0.1, 15.0),
            SnrReport("single-pulse", 79, 30, 1.5, 0.45, 10.0 / 3.0),
        ]
        path = tmp_path / "reports.csv"
        fileio.write_snr_reports_csv(reports, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "mode,order,n_trials,signal_mean,noise_std,snr"
        assert len(rows) == 3
        assert rows[1].startswith("coded,79,30,")

    def test_advantage_csv(self, tmp_path):
        curve = advantage_curve([7, 79], [1.5, 4.5])
        path = tmp_path / "curve.csv"
        fileio.write_advantage_csv(curve, path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "order,measured_gain,theoretical_gain"
        assert rows[1].split(",")[0] == "7"
        assert float(rows[2].split(",")[2]) == pytest.approx(80 / (2 * 79**0.5))

    def test_advantage_svg(self, tmp_path):
        curve = advantage_curve([7, 19, 79], [1.5, 2.3, 4.5])
        path = tmp_path / "curve.svg"
        fileio.write_advantage_svg(curve, path)
        text = path.read_text()
        assert text.count("<polyline") == 2
        assert 'stroke="blue"' in text and 'stroke="red"' in text
        assert text.startswith("<svg ")
        assert "theoretical (N+1)/(2 sqrt N)" in text


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

    def test_db_floor_must_be_negative(self, tmp_path):
        with pytest.raises(ConfigError):
            fileio.write_pgm(np.ones((2, 2)), tmp_path / "x.pgm", db_floor=3.0)


class TestScanCsv:
    def test_map_and_stack(self, tmp_path):
        cfg = simulator.AcquisitionConfig(
            f_us=1.25e6, f_s=5e6, c=990.0, mode="coded", order=7,
            duration_s=2 * 28 / 5e6, seed=1,
        )
        ph = simulator.Phantom(
            mu_s_prime_per_cm=15.0, mu_a_per_cm=0.2,
            src_x_m=-0.001, det_x_m=0.001, boundary_z_m=0.0002,
            depth_extent_m=0.004,
        )
        res = simulator.scan_2d(cfg, ph, simulator.ScanGrid(-0.001, 0.001, 0.0, 0.0, 0.001))
        map_path = tmp_path / "map.csv"
        stack_path = tmp_path / "stack.csv"
        fileio.write_scan_map_csv(res, map_path)
        fileio.write_scan_stack_csv(res, stack_path)
        map_rows = map_path.read_text().strip().splitlines()
        assert map_rows[0] == "x_m,y_m,peak_amplitude"
        assert len(map_rows) == 1 + 3
        stack_rows = stack_path.read_text().strip().splitlines()
        assert stack_rows[0] == "x_m,y_m,depth_m,amplitude"
        assert len(stack_rows) == 1 + 3 * res.stack.shape[-1]

    def test_map_reads_the_peak_map_once(self, tmp_path, monkeypatch):
        reads = []

        def counted(result):
            reads.append(1)
            return result.stack.max(axis=-1)

        monkeypatch.setattr(simulator.ScanResult, "peak_map", property(counted))
        xs, ys = np.array([-0.002, 0.0, 0.001, 0.0035]), np.array([0.0, 0.0005, 0.001])
        stack = np.random.default_rng(3).random((ys.size, xs.size, 11))
        res = simulator.ScanResult(xs=xs, ys=ys, stack=stack, bin_width_m=2e-4)
        path = tmp_path / "map.csv"
        fileio.write_scan_map_csv(res, path)
        assert len(reads) == 1
        peaks = stack.max(axis=-1)
        rows = ["x_m,y_m,peak_amplitude"] + [
            f"{format_value(x)},{format_value(y)},{format_value(peaks[iy, ix])}"
            for iy, y in enumerate(ys)
            for ix, x in enumerate(xs)
        ]
        assert path.read_bytes() == ("\n".join(rows) + "\n").encode()
