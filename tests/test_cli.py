"""Command-line interface: commands, exit codes, determinism, manifests."""

import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from aoimux import codes, demux, fileio, pipeline, simulator
from aoimux.cli import main
from aoimux.config import manifest_text, parse_run_config
from streams import profile_of

CONFIGS = Path(__file__).resolve().parents[1] / "configs"

SMALL_CONFIG = """\
[acquisition]
f_us_hz = 1.25e6
f_s_hz = 5e6
sound_speed_m_s = 990.0
mode = coded
order = 19
duration_s = 6.08e-5
noise_sigma = 0.05
seed = 31

[phantom]
mu_s_prime_per_cm = 15.0
mu_a_per_cm = 0.3
src_x_m = -0.0075
det_x_m = 0.0075
boundary_z_m = 0.0005
depth_extent_m = 0.004

[scan]
x_min_m = -0.001
x_max_m = 0.001
step_m = 0.001

[sweep]
orders = 7,19
n_trials = 4
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SMALL_CONFIG)
    return path


class TestGenCode:
    def test_writes_valid_sequence(self, tmp_path):
        out = tmp_path / "code79.txt"
        assert main(["gen-code", "79", "--out", str(out)]) == 0
        seq = fileio.read_sequence(out)
        assert seq.order == 79
        assert seq.weight == 40
        assert codes.s_matrix_identity_error(seq) == 0

    def test_invalid_order_exit_2(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "gen-code", "4"]) == 2
        err = capsys.readouterr().err
        assert "prime" in err and "3 mod 4" in err

    def test_order_above_cap_exit_2_at_once(self, tmp_path, capsys):
        # 2^61 - 1 is prime and 3 mod 4; the cap is checked before the
        # primality test, whose trial division would run for minutes
        assert main(["--out-dir", str(tmp_path), "gen-code", str(2**61 - 1)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("aoimux: ") and "exceeds the supported maximum" in err
        assert not list(tmp_path.iterdir())

    def test_default_name_in_out_dir(self, tmp_path):
        assert main(["--out-dir", str(tmp_path), "gen-code", "7"]) == 0
        assert (tmp_path / "s_sequence_7.txt").read_text() == "7:1110100\n"

    def test_env_var_output_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("AOIMUX_OUTPUT_DIR", str(tmp_path / "envout"))
        assert main(["gen-code", "7"]) == 0
        assert (tmp_path / "envout" / "s_sequence_7.txt").exists()


class TestSimulate:
    def test_end_to_end_outputs(self, tmp_path, cfg_file):
        out = tmp_path / "run1"
        assert main(["--out-dir", str(out), "simulate", "--config", str(cfg_file)]) == 0
        assert (out / "stream.bin").exists()
        assert (out / "profile.csv").exists()
        assert (out / "manifest.cfg").exists()

    def test_byte_identical_reruns(self, tmp_path, cfg_file):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["--out-dir", str(out1), "simulate", "--config", str(cfg_file)])
        main(["--out-dir", str(out2), "simulate", "--config", str(cfg_file)])
        assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()
        assert (out1 / "stream.bin").read_bytes() == (out2 / "stream.bin").read_bytes()

    def test_manifest_round_trip(self, tmp_path, cfg_file):
        # the manifest is itself a valid config reproducing the run; the
        # solver is a flag, not a config value, so it is given again
        for solver in ("spectral", "dense"):
            out1, out2 = tmp_path / solver / "a", tmp_path / solver / "b"
            flags = ["--solver", solver]
            main(["--out-dir", str(out1), "simulate", "--config", str(cfg_file), *flags])
            rc1 = parse_run_config(out1 / "manifest.cfg")
            assert manifest_text(rc1) == (out1 / "manifest.cfg").read_text()
            main(["--out-dir", str(out2), "simulate", "--config", str(out1 / "manifest.cfg"),
                  *flags])
            assert (out1 / "profile.csv").read_bytes() == (out2 / "profile.csv").read_bytes()

    def test_chunked_outputs_equal_the_in_memory_path(self, tmp_path, cfg_file, monkeypatch):
        # one period (76 samples) a chunk: the stream is written and folded in four
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", 100)
        out = tmp_path / "run"
        assert main(["--out-dir", str(out), "simulate", "--config", str(cfg_file)]) == 0
        rc = parse_run_config(cfg_file)
        stream = simulator.simulate_stream(rc.acquisition, rc.phantom)
        fileio.write_stream(stream, tmp_path / "stream.bin")
        fileio.write_profile_csv(profile_of(stream), tmp_path / "profile.csv")
        for name in ("stream.bin", "profile.csv"):
            assert (out / name).read_bytes() == (tmp_path / name).read_bytes()

    def test_run_shorter_than_one_period_writes_nothing(self, tmp_path, capsys):
        quick = (CONFIGS / "quick.cfg").read_text()
        bad = tmp_path / "short.cfg"
        bad.write_text(_set_value(quick, "duration_s", "1e-5"))
        out = tmp_path / "o"
        assert main(["--out-dir", str(out), "simulate", "--config", str(bad)]) == 2
        assert "50 samples < one period of 316" in capsys.readouterr().err
        assert not list(out.iterdir())

    def test_zero_duration_exit_2(self, tmp_path, cfg_file, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg_file.read_text().replace("duration_s = 6.08e-5", "duration_s = 0"))
        assert main(["--out-dir", str(tmp_path / "o"), "simulate", "--config", str(bad)]) == 2

    def test_unknown_key_exit_2(self, tmp_path, cfg_file):
        bad = tmp_path / "bad.cfg"
        bad.write_text(cfg_file.read_text() + "\nlaser_power_w = 0.1\n")
        assert main(["--out-dir", str(tmp_path / "o"), "simulate", "--config", str(bad)]) == 2

    def test_missing_config_exit_3(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        assert main(["--out-dir", str(tmp_path), "simulate", "--config", str(missing)]) == 3


class TestDemux:
    def test_file_to_file_matches_library(self, tmp_path, cfg_file):
        out = tmp_path / "run"
        main(["--out-dir", str(out), "simulate", "--config", str(cfg_file)])
        prof_path = tmp_path / "demuxed.csv"
        assert main(["demux", "--stream", str(out / "stream.bin"),
                     "--out", str(prof_path)]) == 0
        cli_prof = fileio.read_profile_csv(prof_path)
        stream = fileio.read_stream(out / "stream.bin")
        lib_prof = profile_of(stream)
        np.testing.assert_allclose(cli_prof.values, lib_prof.values, rtol=0, atol=0)

    def test_raw_flag_skips_extraction(self, tmp_path, cfg_file):
        out = tmp_path / "run"
        main(["--out-dir", str(out), "simulate", "--config", str(cfg_file)])
        raw_path = tmp_path / "raw.csv"
        assert main(["demux", "--stream", str(out / "stream.bin"), "--out",
                     str(raw_path), "--raw"]) == 0
        raw = fileio.read_profile_csv(raw_path)
        assert raw.values.min() < 0  # carrier band keeps its sign

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda head, body: (head + b" stray", body),  # token with no '='
            lambda head, body: (head + b" note=\xe9", body),  # non-ASCII header
            lambda head, body: (head, body[:-3]),  # not a whole number of samples
        ],
        ids=["token-without-equals", "non-ascii-header", "payload-not-multiple-of-8"],
    )
    def test_malformed_stream_exit_2(self, tmp_path, cfg_file, corrupt, capsys):
        out = tmp_path / "run"
        main(["--out-dir", str(out), "simulate", "--config", str(cfg_file)])
        head, body = (out / "stream.bin").read_bytes().split(b"\n", 1)
        head, body = corrupt(head, body)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(head + b"\n" + body)
        assert main(["demux", "--stream", str(bad), "--out",
                     str(tmp_path / "p.csv")]) == 2
        assert "bad.bin" in capsys.readouterr().err

    @pytest.mark.parametrize("token", [b"t0=0.001", b"water_path_m=0.09"])
    def test_header_t0_disagreeing_with_its_config_exit_2(
        self, tmp_path, cfg_file, capsys, token
    ):
        # SMALL_CONFIG has no water path, so its header carries t0=0.0
        out = tmp_path / "run"
        main(["--out-dir", str(out), "simulate", "--config", str(cfg_file)])
        head, body = (out / "stream.bin").read_bytes().split(b"\n", 1)
        key = token.split(b"=")[0]
        head, count = re.subn(rb" " + key + rb"=\S+", b" " + token, head)
        assert count == 1
        bad = tmp_path / "bad.bin"
        bad.write_bytes(head + b"\n" + body)
        demuxed = tmp_path / "demuxed"
        capsys.readouterr()
        assert main(["--out-dir", str(demuxed), "demux", "--stream", str(bad)]) == 2
        _assert_config_error(capsys, demuxed, f"aoimux: {bad}: stream header t0=")

    def test_non_finite_sample_exit_4(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        main(["--out-dir", str(out), "simulate", "--config", str(cfg_file)])
        data = bytearray((out / "stream.bin").read_bytes())
        data[-8:] = np.array([np.nan], dtype="<f8").tobytes()
        bad = tmp_path / "nan.bin"
        bad.write_bytes(bytes(data))
        assert main(["demux", "--stream", str(bad), "--out",
                     str(tmp_path / "p.csv")]) == 4
        assert "NaN or infinite" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def _one_period_chunks(self, tmp_path, cfg_file, monkeypatch, extra=0):
        """Stream file of SMALL_CONFIG (4 periods of 76) plus extra samples,
        read back one period a chunk."""
        cfg = tmp_path / "extra.cfg"
        cfg.write_text(cfg_file.read_text().replace(
            "duration_s = 6.08e-5", f"duration_s = {(304 + extra) / 5e6!r}"))
        out = tmp_path / "run"
        assert main(["--out-dir", str(out), "simulate", "--config", str(cfg)]) == 0
        monkeypatch.setattr(simulator, "CHUNK_SAMPLES", 76)
        head, body = (out / "stream.bin").read_bytes().split(b"\n", 1)
        samples = np.frombuffer(body, dtype="<f8").copy()
        assert samples.size == 304 + extra
        return head + b"\n", samples

    def test_nan_in_a_later_chunk_exit_4_with_exact_count(
        self, tmp_path, cfg_file, monkeypatch, capsys
    ):
        head, samples = self._one_period_chunks(tmp_path, cfg_file, monkeypatch)
        samples[[2 * 76 + 5, 3 * 76]] = np.nan
        samples[3 * 76 + 75] = -np.inf
        bad = tmp_path / "nan.bin"
        bad.write_bytes(head + samples.astype("<f8").tobytes())
        assert main(["demux", "--stream", str(bad), "--out", str(tmp_path / "p.csv")]) == 4
        assert "3 of 304 samples" in capsys.readouterr().err
        assert not (tmp_path / "p.csv").exists()

    def test_nan_in_trailing_partial_period_is_ignored(self, tmp_path, cfg_file, monkeypatch):
        head, samples = self._one_period_chunks(tmp_path, cfg_file, monkeypatch, extra=10)
        good, bad = tmp_path / "good.bin", tmp_path / "bad.bin"
        good.write_bytes(head + samples.astype("<f8").tobytes())
        samples[-1] = np.nan
        bad.write_bytes(head + samples.astype("<f8").tobytes())
        for path in (good, bad):
            assert main(["demux", "--stream", str(path), "--out", str(path) + ".csv"]) == 0
        assert (tmp_path / "bad.bin.csv").read_bytes() == (tmp_path / "good.bin.csv").read_bytes()

    def test_payload_truncated_mid_chunk_exit_2(self, tmp_path, cfg_file, monkeypatch, capsys):
        head, samples = self._one_period_chunks(tmp_path, cfg_file, monkeypatch)
        bad = tmp_path / "short.bin"
        bad.write_bytes(head + samples[: 2 * 76 + 30].astype("<f8").tobytes())
        assert main(["demux", "--stream", str(bad), "--out", str(tmp_path / "p.csv")]) == 2
        assert "header says 304 samples, file holds 182" in capsys.readouterr().err

    def test_overlong_header_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "long.bin"
        bad.write_bytes(b"aoimux-stream 1 " + b"x" * (1 << 20))  # 1 MB, no newline
        assert main(["demux", "--stream", str(bad), "--out",
                     str(tmp_path / "p.csv")]) == 2
        assert "no stream header line" in capsys.readouterr().err

    def test_missing_stream_exit_3(self, tmp_path):
        assert main(["demux", "--stream", str(tmp_path / "none.bin")]) == 3


def _set_value(text, key, value, section="acquisition"):
    """Config text with the first ``key = ...`` line (or a new line in section) set."""
    line = re.compile(rf"^{key} = .*$", re.M)
    if line.search(text):
        return line.sub(f"{key} = {value}", text, count=1)
    assert f"[{section}]\n" in text
    return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n")


def _assert_config_error(capsys, out, prefix="aoimux: "):
    """The command printed one error line with the prefix and wrote nothing."""
    err = capsys.readouterr().err
    assert err.startswith(prefix) and "Traceback" not in err, err
    assert not list(out.glob("*"))


class TestBadValues:
    @pytest.mark.parametrize(
        "source, key, value",
        [
            ("config", "f_s_hz", "inf"),
            ("config", "duration_s", "inf"),
            ("config", "f_s_hz", "nan"),
            ("config", "duration_s", "nan"),
            ("config", "noise_sigma", "nan"),
            ("config", "sound_speed_m_s", "nan"),
            ("config", "water_path_m", "inf"),
            ("config", "seed", "-1"),
            ("header", "f_s", "inf"),
            ("header", "c", "nan"),
            ("header", "t0", "nan"),
            ("header", "t0", "inf"),
        ],
    )
    def test_non_finite_value_or_negative_seed_exit_2(
        self, tmp_path, cfg_file, capsys, source, key, value
    ):
        if source == "config":
            bad = tmp_path / "bad.cfg"
            bad.write_text(_set_value(cfg_file.read_text(), key, value))
            argv = ["--out-dir", str(tmp_path / "o"), "simulate", "--config", str(bad)]
            written = tmp_path / "o" / "stream.bin"
        else:
            out = tmp_path / "run"
            main(["--out-dir", str(out), "simulate", "--config", str(cfg_file)])
            head, body = (out / "stream.bin").read_bytes().split(b"\n", 1)
            head, count = re.subn(rf" {key}=\S+".encode(), f" {key}={value}".encode(), head)
            assert count == 1
            bad = tmp_path / "bad.bin"
            bad.write_bytes(head + b"\n" + body)
            written = tmp_path / "p.csv"
            argv = ["demux", "--stream", str(bad), "--out", str(written)]
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("aoimux: ") and "Traceback" not in err
        assert not written.exists()

    @pytest.mark.parametrize("token", [b" foo=1", b" seed=8", b" t0=0.0"])
    def test_unknown_or_repeated_header_key_exit_2(self, tmp_path, cfg_file, capsys, token):
        # the writer puts each header key in exactly once, so an unknown key
        # or a second value for a known one marks a header it did not write
        out = tmp_path / "run"
        main(["--out-dir", str(out), "simulate", "--config", str(cfg_file)])
        head, body = (out / "stream.bin").read_bytes().split(b"\n", 1)
        bad = tmp_path / "bad.bin"
        bad.write_bytes(head + token + b"\n" + body)
        demuxed = tmp_path / "demuxed"
        capsys.readouterr()
        assert main(["--out-dir", str(demuxed), "demux", "--stream", str(bad)]) == 2
        key = token.split(b"=")[0].strip().decode()
        _assert_config_error(
            capsys, demuxed, f"aoimux: {bad}: stream header keys must each appear once: {key}"
        )

    @pytest.mark.parametrize("command", ["simulate", "snr-sweep", "scan2d"])
    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("scan", "step_m", "nan", "scan step must be finite and positive"),
            ("sweep", "reference", "fastest", "sweep reference must be matched or max-rate"),
            ("sweep", "n_trials", "0", "n_trials must be at least 2"),
            ("sweep", "orders", "8,12", "sweep order must be a prime congruent to 3 mod 4, got 8"),
            ("sweep", "orders", ",", "orders list is empty"),
            ("scan", "step_m", "0.0", "scan step must be finite and positive"),
            ("scan", "x_max_m", "-0.002", "scan x range is reversed"),
            # 2e297 steps, far beyond the 2^53 that a float counts exactly
            ("scan", "step_m", "1e-300", "scan x range [-0.001, 0.001] spans too many steps"),
        ],
    )
    def test_bad_scan_or_sweep_value_exit_2_at_parse_time(
        self, tmp_path, cfg_file, capsys, command, section, key, value, message
    ):
        # [scan] and [sweep] values are checked when the config is read,
        # so a command that does not use the section rejects them too
        bad = tmp_path / "bad.cfg"
        bad.write_text(_set_value(cfg_file.read_text(), key, value, section=section))
        out = tmp_path / "o"
        assert main(["--out-dir", str(out), command, "--config", str(bad)]) == 2
        _assert_config_error(capsys, out, f"aoimux: {message}")

    def test_config_not_utf8_exit_2(self, tmp_path, cfg_file, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(cfg_file.read_bytes().replace(b"mode = coded", b"mode = cod\xffed"))
        out = tmp_path / "o"
        assert main(["--out-dir", str(out), "simulate", "--config", str(bad)]) == 2
        _assert_config_error(capsys, out, f"aoimux: {bad}: ")

    @pytest.mark.parametrize("section", ["acquisition", "phantom"])
    def test_missing_required_section_exit_2(self, tmp_path, cfg_file, capsys, section):
        bad = tmp_path / "bad.cfg"
        blocks = cfg_file.read_text().split("\n\n")
        bad.write_text("\n\n".join(b for b in blocks if not b.startswith(f"[{section}]")))
        out = tmp_path / "o"
        assert main(["--out-dir", str(out), "simulate", "--config", str(bad)]) == 2
        _assert_config_error(capsys, out, f"aoimux: {bad}: missing [{section}] section")


class TestSnrSweep:
    def test_single_order_outputs(self, tmp_path, cfg_file):
        # two periods of order 79 need 632 samples; stretch the duration
        long_cfg = tmp_path / "long.cfg"
        long_text = cfg_file.read_text().replace("duration_s = 6.08e-5", "duration_s = 1.264e-4")
        long_cfg.write_text(_set_value(long_text, "orders", "79"))
        out = tmp_path / "sweep"
        rc = main(["--out-dir", str(out), "snr-sweep", "--config", str(long_cfg)])
        assert rc == 0
        rows = (out / "advantage.csv").read_text().strip().splitlines()
        assert rows[0] == "order,measured_gain,theoretical_gain"
        assert len(rows) == 2
        theo = float(rows[1].split(",")[2])
        assert theo == pytest.approx(80 / (2 * 79**0.5), abs=1e-12)  # (N+1)/(2 sqrt N)
        assert (out / "advantage.svg").exists()
        reports = (out / "snr_reports.csv").read_text().strip().splitlines()
        assert len(reports) == 3  # header + coded + single-pulse

    def test_orders_from_config_sweep_section(self, tmp_path, cfg_file):
        out = tmp_path / "sweep"
        assert main(["--out-dir", str(out), "snr-sweep", "--config", str(cfg_file)]) == 0
        rows = (out / "advantage.csv").read_text().strip().splitlines()
        assert [r.split(",")[0] for r in rows[1:]] == ["7", "19"]

    def test_empty_orders_exit_2(self, tmp_path, cfg_file):
        bad = tmp_path / "bad.cfg"
        bad.write_text(_set_value(cfg_file.read_text(), "orders", ","))
        assert main(["--out-dir", str(tmp_path / "o"), "snr-sweep", "--config", str(bad)]) == 2

    def test_zero_noise_exit_2(self, tmp_path, cfg_file, capsys):
        # without noise every SNR is infinite and no gain can be measured
        bad = tmp_path / "quiet.cfg"
        bad.write_text(_set_value(cfg_file.read_text(), "noise_sigma", "0.0"))
        out = tmp_path / "o"
        assert main(["--out-dir", str(out), "snr-sweep", "--config", str(bad)]) == 2
        _assert_config_error(capsys, out, "aoimux: noise_sigma must be positive")

    def test_unknown_reference_exit_2(self, tmp_path, cfg_file, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(_set_value(cfg_file.read_text(), "reference", "fastest", section="sweep"))
        out = tmp_path / "o"
        assert main(["--out-dir", str(out), "snr-sweep", "--config", str(bad)]) == 2
        _assert_config_error(capsys, out, "aoimux: sweep reference must be matched or max-rate")

    def test_non_integer_order_exit_2(self, tmp_path, cfg_file, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(_set_value(cfg_file.read_text(), "orders", "7,x"))
        assert main(["--out-dir", str(tmp_path / "o"), "snr-sweep", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("aoimux: [sweep] orders") and "Traceback" not in err

    @pytest.mark.parametrize("trials", ["0", "1", "-3"])
    def test_too_few_trials_exit_2(self, tmp_path, cfg_file, capsys, trials):
        bad = tmp_path / "bad.cfg"
        bad.write_text(_set_value(cfg_file.read_text(), "n_trials", trials))
        assert main(["--out-dir", str(tmp_path / "o"), "snr-sweep", "--config", str(bad)]) == 2
        assert "n_trials must be at least 2" in capsys.readouterr().err

    def test_run_too_large_for_memory_exit_2(self, tmp_path, capsys):
        # 10^15 trials of order 7 ask for a 199 PiB stack, beyond any 64-bit
        # user address space: the allocation fails at once, touching nothing;
        # numpy refuses the shape of 10^17 trials before allocating at all
        for trials in ("1000000000000000", "100000000000000000"):
            text = _set_value((CONFIGS / "quick.cfg").read_text(), "orders", "7")
            bad = tmp_path / f"{trials}.cfg"
            bad.write_text(_set_value(text, "n_trials", trials))
            out = tmp_path / trials
            assert main(["--out-dir", str(out), "snr-sweep", "--config", str(bad)]) == 2
            _assert_config_error(capsys, out, "aoimux: run too large for memory")


class TestScan2d:
    def test_grid_outputs(self, tmp_path, cfg_file):
        out = tmp_path / "scan"
        assert main(["--out-dir", str(out), "scan2d", "--config", str(cfg_file),
                     "--stack"]) == 0
        rows = (out / "scan_map.csv").read_text().strip().splitlines()
        assert rows[0] == "x_m,y_m,peak_amplitude"
        assert len(rows) == 1 + 3  # three x positions, one y
        assert (out / "scan_map.pgm").read_bytes().startswith(b"P5\n3 1\n255\n")
        assert (out / "scan_map_db.pgm").exists()
        assert (out / "scan_stack.csv").exists()

    def test_single_point_grid_value_one(self, tmp_path, cfg_file):
        single = tmp_path / "single.cfg"
        single.write_text(
            cfg_file.read_text()
            .replace("x_min_m = -0.001", "x_min_m = 0.0")
            .replace("x_max_m = 0.001", "x_max_m = 0.0")
        )
        out = tmp_path / "scan"
        assert main(["--out-dir", str(out), "scan2d", "--config", str(single)]) == 0
        rows = (out / "scan_map.csv").read_text().strip().splitlines()
        assert len(rows) == 2
        assert float(rows[1].split(",")[2]) == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "values, message",
        [
            ({"step_m": "nan"}, "scan step must be finite and positive"),
            ({"step_m": "inf"}, "scan step must be finite and positive"),
            ({"x_max_m": "inf"}, "scan x range must be finite"),
            ({"x_min_m": "nan"}, "scan x range must be finite"),
            ({"y_max_m": "inf"}, "scan y range must be finite"),
            ({"y_min_m": "-inf"}, "scan y range must be finite"),
            ({"x_min_m": "0.009", "x_max_m": "-0.009"}, "scan x range is reversed"),
            ({"y_min_m": "0.009", "y_max_m": "-0.009"}, "scan y range is reversed"),
            ({"x_min_m": "-1e308", "x_max_m": "1e308"}, "scan x range [-1e+308, 1e+308]"),
        ],
    )
    def test_bad_scan_grid_exit_2(self, tmp_path, capsys, values, message):
        text = (CONFIGS / "quick.cfg").read_text()
        for key, value in values.items():
            text = _set_value(text, key, value, section="scan")
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        out = tmp_path / "o"
        assert main(["--out-dir", str(out), "scan2d", "--config", str(bad)]) == 2
        _assert_config_error(capsys, out, f"aoimux: {message}")

    def test_run_too_large_for_memory_exit_2(self, tmp_path, capsys):
        # a 1e-16 m step over quick.cfg's 16 mm asks for 1.6e14 x positions
        # (1.28e15 B, beyond a 2^47-byte user address space): the allocation
        # fails at once, touching nothing
        bad = tmp_path / "tiny.cfg"
        bad.write_text(_set_value((CONFIGS / "quick.cfg").read_text(), "step_m", "1e-16"))
        out = tmp_path / "o"
        assert main(["--out-dir", str(out), "scan2d", "--config", str(bad)]) == 2
        _assert_config_error(capsys, out, "aoimux: run too large for memory")


class TestExportedNames:
    """Every command reconstructs through the names aoimux exports."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {}
        for module, name in ((demux, "average_periods"), (demux, "demultiplex_stream"),
                             (pipeline, "reconstruct_profile")):
            def counting(*args, _original=getattr(module, name), _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        return calls

    def test_simulate_calls_each_once(self, tmp_path, cfg_file, calls):
        assert main(["--out-dir", str(tmp_path), "simulate", "--config", str(cfg_file)]) == 0
        assert calls == {"average_periods": 1, "demultiplex_stream": 1,
                         "reconstruct_profile": 1}

    def test_demux_calls_each_once(self, tmp_path, cfg_file, calls):
        out = tmp_path / "run"
        assert main(["--out-dir", str(out), "simulate", "--config", str(cfg_file)]) == 0
        calls.clear()
        assert main(["demux", "--stream", str(out / "stream.bin"),
                     "--out", str(tmp_path / "demuxed.csv")]) == 0
        assert calls == {"average_periods": 1, "demultiplex_stream": 1,
                         "reconstruct_profile": 1}

    def test_snr_sweep_reconstructs_once_per_order_and_mode(self, tmp_path, cfg_file, calls):
        # orders 7 and 19, 4 trials: each run folds 4 trials and its reference
        assert main(["--out-dir", str(tmp_path), "snr-sweep", "--config", str(cfg_file)]) == 0
        assert calls == {"average_periods": 2 * 2 * 5, "demultiplex_stream": 2,
                         "reconstruct_profile": 2 * 2}


class TestShippedConfigs:
    @pytest.mark.parametrize("path", sorted(CONFIGS.glob("*.cfg")), ids=lambda p: p.name)
    def test_every_sweep_order_fits_the_phantom_in_both_modes(self, path):
        # snr-sweep runs each order coded and as its matched single-pulse
        # reference; one repetition period must span the whole phantom
        rc = parse_run_config(path)
        assert rc.sweep.orders
        for order in rc.sweep.orders:
            for mode in ("coded", "single-pulse"):
                cfg = replace(rc.acquisition, mode=mode, order=order)
                simulator.axial_profile(cfg, rc.phantom)
