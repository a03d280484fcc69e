"""Command-line interface: commands, exit codes, determinism, manifests."""

import os
import re
from dataclasses import replace

import numpy as np
import pytest

from aoimux import codes, demux, fileio, pipeline, simulator
from aoimux.cli import main
from aoimux.config import manifest_text, parse_run_config
from streams import CONFIGS, profile_of, run_python

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
        bits = codes.generate_s_sequence(79)
        assert out.read_text() == "79:" + "".join(map(str, bits)) + "\n"

    def test_invalid_order_exit_2(self, tmp_path, capsys):
        assert main(["--out-dir", str(tmp_path), "gen-code", "4"]) == 2
        err = capsys.readouterr().err
        assert "prime" in err and "3 mod 4" in err

    def test_order_above_cap_exit_2_at_once(self, tmp_path, capsys):
        # 2^61 - 1 is prime and 3 mod 4, beyond the order table; the cap
        # is checked first and answers at once
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
        acq = rc.acquisition
        samples = simulator.simulate_stream(acq, rc.phantom)
        fileio.write_stream(samples, tmp_path / "stream.bin", acq)
        profile = profile_of(samples, acq)
        fileio.write_profile_csv(profile, acq.bin_width_m, tmp_path / "profile.csv")
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

    @pytest.mark.parametrize("sigma", ["1e308", "1.7e308"])
    def test_noise_that_overflows_exits_4_unwarned(self, tmp_path, sigma):
        # quick.cfg in a child interpreter where a numpy warning is an error:
        # the scaled normals overflow to inf, which the fold reports
        cfg = tmp_path / "noise.cfg"
        cfg.write_text(_set_value((CONFIGS / "quick.cfg").read_text(), "noise_sigma", sigma))
        out = tmp_path / "out"
        done = run_python("-m", "aoimux.cli", "--out-dir", str(out), "simulate",
                          "--config", str(cfg), env={"PYTHONWARNINGS": "error"})
        assert done.returncode == 4
        assert re.fullmatch(r"aoimux: numerical failure: [^\n]*\n", done.stderr)
        assert not list(out.iterdir())  # no stream.bin, profile.csv, manifest.cfg or .part

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
        cli_values = np.loadtxt(prof_path, delimiter=",", skiprows=1)[:, 1]
        lib_prof = profile_of(*fileio.read_stream(out / "stream.bin"))
        np.testing.assert_allclose(cli_values, lib_prof, rtol=0, atol=0)

    def test_raw_flag_skips_extraction(self, tmp_path, cfg_file):
        out = tmp_path / "run"
        main(["--out-dir", str(out), "simulate", "--config", str(cfg_file)])
        raw_path = tmp_path / "raw.csv"
        assert main(["demux", "--stream", str(out / "stream.bin"), "--out",
                     str(raw_path), "--raw"]) == 0
        raw = np.loadtxt(raw_path, delimiter=",", skiprows=1)[:, 1]
        assert raw.min() < 0  # carrier band keeps its sign

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

    def test_overflowing_sum_exit_4_without_numpy_output(self, tmp_path, cfg_file):
        # every sample finite, their sum not: run in a child interpreter, so
        # a numpy warning would reach its stderr as it does a user's
        out = tmp_path / "run"
        main(["--out-dir", str(out), "simulate", "--config", str(cfg_file)])
        head, body = (out / "stream.bin").read_bytes().split(b"\n", 1)
        huge = tmp_path / "huge.bin"
        huge.write_bytes(head + b"\n" + np.full(len(body) // 8, 1e308).astype("<f8").tobytes())
        done = run_python(
            "-m", "aoimux.cli", "demux", "--stream", str(huge), "--out", str(tmp_path / "p.csv")
        )
        assert done.returncode == 4
        assert done.stderr == (
            "aoimux: numerical failure: the sum of the 304 samples in the complete "
            "periods overflowed, though every one is finite; the period mean is not finite\n"
        )
        assert not (tmp_path / "p.csv").exists()

    @pytest.mark.parametrize("sigma", ["1e307", "1e308", "1.7e308"])
    @pytest.mark.parametrize("command", ["scan2d", "snr-sweep"])
    def test_non_finite_reconstruction_exit_4_without_numpy_output(
        self, tmp_path, command, sigma
    ):
        # quick.cfg folds 8 periods, so the draw's scale is sigma / sqrt(8): at
        # 1e307 and 1e308 the draw is finite and the solve overflows, at
        # 1.7e308 normals beyond 2.98 overflow the draw itself; either way the
        # profile is not finite, and the child interpreter's stderr shows
        # what a user would see
        cfg = tmp_path / "loud.cfg"
        cfg.write_text(_set_value((CONFIGS / "quick.cfg").read_text(), "noise_sigma", sigma))
        out = tmp_path / "out"
        done = run_python("-m", "aoimux.cli", "--out-dir", str(out), command, "--config", str(cfg))
        assert done.returncode == 4
        assert done.stderr == (
            "aoimux: numerical failure: the reconstructed profile is not finite: "
            "its samples overflow\n"
        )
        assert not list(out.glob("*"))

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

    def test_boolean_spellings_in_any_case_and_others_exit_2(self, tmp_path, cfg_file, capsys):
        spellings = {"TRUE": True, "Yes": True, "oN": True, "1": True,
                     "False": False, "NO": False, "Off": False, "0": False}
        cfg = tmp_path / "bool.cfg"

        def write(raw):
            text = _set_value(cfg_file.read_text(), "subtract_noise_floor", raw, section="sweep")
            cfg.write_text(text)

        for raw, value in spellings.items():
            write(raw)
            assert parse_run_config(cfg).sweep.subtract_noise_floor is value
        write("maybe")
        out = tmp_path / "o"
        assert main(["--out-dir", str(out), "snr-sweep", "--config", str(cfg)]) == 2
        _assert_config_error(
            capsys, out, "aoimux: [sweep] subtract_noise_floor: cannot parse 'maybe'"
        )

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: t + "\n[laser]\npower_w = 0.1\n", "{bad}: unknown sections ['laser']"),
            (lambda t: t.replace("seed = 31\n", "seed = 31\nlaser_power_w = 0.1\n"),
             "[acquisition]: unknown keys ['laser_power_w']"),
            (lambda t: t.replace("duration_s = 6.08e-5\n", ""),
             "[acquisition]: missing required key duration_s"),
            (lambda t: t.replace("mu_a_per_cm = 0.3\n", ""),
             "[phantom]: missing required key mu_a_per_cm"),
            (lambda t: _set_value(t, "f_us_hz", "fast"),
             "[acquisition] f_us_hz: cannot parse 'fast'"),
            (lambda t: _set_value(t, "order", "19.0"), "[acquisition] order: cannot parse '19.0'"),
            (lambda t: t.replace("seed = 31\n", "seed = 31\nseed = 32\n"), "{bad}: While reading"),
            (lambda t: "seed = 31\n" + t, "{bad}: File contains no section headers"),
            (lambda t: _set_value(t, "duration_s", "1e308"),
             "the sample count duration_s * f_s must be finite"),
            (lambda t: _set_value(_set_value(t, "mode", "single-pulse"), "order", "1" + "0" * 30),
             "a period of 4" + "0" * 30 + " samples is too large"),
        ],
        ids=["unknown-section", "unknown-key", "missing-acquisition-key", "missing-phantom-key",
             "non-numeric-float", "non-integer-int", "repeated-key", "key-before-any-section",
             "sample-count-overflows", "period-overflows"],
    )
    def test_malformed_config_exit_2_naming_the_fault(self, tmp_path, cfg_file, capsys,
                                                      edit, message):
        bad = tmp_path / "bad.cfg"
        text = edit(cfg_file.read_text())
        assert text != cfg_file.read_text()
        bad.write_text(text)
        out = tmp_path / "o"
        assert main(["--out-dir", str(out), "simulate", "--config", str(bad)]) == 2
        _assert_config_error(capsys, out, "aoimux: " + message.format(bad=bad))

    @pytest.mark.parametrize(
        "pattern, replacement, message",
        [
            (rb"^aoimux-stream ", b"other-stream ", "not an aoimux stream file"),
            (rb"^aoimux-stream 1 ", b"aoimux-stream 2 ", "not an aoimux stream file"),
            (rb" f_s=\S+", b" f_s=fast", "malformed stream header: "),
            (rb" length=(\d+)", rb" length=\1.0", "malformed stream header: "),
            (rb" order=\S+", b" order=19.0", "malformed stream header: "),
        ],
        ids=["foreign-magic", "other-version", "non-numeric-value", "non-integer-length",
             "non-integer-order"],
    )
    def test_malformed_stream_header_exit_2_naming_the_fault(
        self, tmp_path, cfg_file, capsys, pattern, replacement, message
    ):
        out = tmp_path / "run"
        main(["--out-dir", str(out), "simulate", "--config", str(cfg_file)])
        head, body = (out / "stream.bin").read_bytes().split(b"\n", 1)
        head, count = re.subn(pattern, replacement, head)
        assert count == 1
        bad = tmp_path / "bad.bin"
        bad.write_bytes(head + b"\n" + body)
        demuxed = tmp_path / "demuxed"
        capsys.readouterr()
        assert main(["--out-dir", str(demuxed), "demux", "--stream", str(bad)]) == 2
        _assert_config_error(capsys, demuxed, f"aoimux: {bad}: {message}")


class TestSnrSweep:
    @pytest.mark.parametrize(
        "sigma, code, stderr",
        [
            # every trial amplitude is finite, but the square of their spread is not
            ("1e160", 4, "aoimux: numerical failure: the signal mean or noise std of order 7 "
                         "coded overflows\n"),
            # the noise rounds away, which would make an SNR and its gain inf
            ("1e-320", 2, "aoimux: the trial noise of order 7 coded vanished: noise_sigma = "
                          "1e-320 is too small to measure an SNR gain\n"),
        ],
        ids=["overflows", "vanishes"],
    )
    def test_noise_that_overflows_or_vanishes_exits_with_its_error(
        self, tmp_path, sigma, code, stderr
    ):
        # quick.cfg in a child interpreter where a numpy warning is an error
        cfg = tmp_path / "noise.cfg"
        cfg.write_text(_set_value((CONFIGS / "quick.cfg").read_text(), "noise_sigma", sigma))
        out = tmp_path / "out"
        done = run_python("-m", "aoimux.cli", "--out-dir", str(out), "snr-sweep",
                          "--config", str(cfg), env={"PYTHONWARNINGS": "error"})
        assert (done.returncode, done.stderr) == (code, stderr)
        assert not list(out.glob("*"))

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

    def test_run_too_large_for_memory_exit_2(self, tmp_path, capsys, monkeypatch):
        # 10^15 and 10^17 trials of order 7 in two modes ask for 32 PB and
        # 3.2 EB of per-trial amplitudes, beyond any 64-bit user address
        # space: the allocation fails at once, before any seed is derived
        def no_seed(*args):
            raise AssertionError("a seed was derived")

        monkeypatch.setattr(pipeline, "derive_seed", no_seed)
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


class TestFailedOutputSet:
    """A command that fails on one of its outputs leaves none of them."""

    @pytest.mark.parametrize(
        "command, blocked",
        [
            (["scan2d", "--stack"], "scan_map_db.pgm"),
            (["simulate"], "profile.csv"),
            (["snr-sweep"], "snr_reports.csv"),
        ],
    )
    def test_output_name_taken_by_a_directory_exit_3_leaving_nothing(
        self, tmp_path, capsys, command, blocked
    ):
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        argv = ["--out-dir", str(out), *command, "--config", str(CONFIGS / "quick.cfg")]
        assert main(argv) == 3
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("aoimux: i/o error: ")
        assert [p.name for p in out.iterdir()] == [blocked]

    def test_temporary_name_taken_by_a_directory_exit_3_leaving_nothing(self, tmp_path, capsys):
        # the writer of scan_map.pgm fails; the table staged before it goes too
        out = tmp_path / "o"
        (out / "scan_map.pgm.part").mkdir(parents=True)
        argv = ["--out-dir", str(out), "scan2d", "--config", str(CONFIGS / "quick.cfg")]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("aoimux: i/o error: ")
        assert [p.name for p in out.iterdir()] == ["scan_map.pgm.part"]


class TestProcessExit:
    """A command run as a process ends by os._exit once its outputs are closed."""

    @pytest.mark.parametrize("unbuffered", ["1", ""], ids=["unbuffered", "buffered"])
    def test_closed_stdout_pipe_exit_3(self, tmp_path, unbuffered):
        # a pipe whose reader is gone: unbuffered, the print fails; buffered,
        # main's flush of stdout fails, not the interpreter's at exit
        read, write = os.pipe()
        os.close(read)
        try:
            done = run_python("-m", "aoimux.cli", "--out-dir", str(tmp_path), "gen-code", "7",
                              stdout=write, env={"PYTHONUNBUFFERED": unbuffered})
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (3, "aoimux: i/o error: [Errno 32] Broken pipe\n")

    def test_closed_stdout_fd_exit_0(self, tmp_path):
        # the CLI's interpreter starts with fd 1 closed, so its sys.stdout is None
        argv = ["-m", "aoimux.cli", "--out-dir", str(tmp_path), "gen-code", "7"]
        done = run_python("-c", "import os, sys; os.close(1); "
                                f"os.execv(sys.executable, [sys.executable, *{argv!r}])")
        assert (done.returncode, done.stderr) == (0, "")
        assert (tmp_path / "s_sequence_7.txt").read_text() == "7:1110100\n"

    def test_process_writes_the_bytes_main_writes(self, tmp_path):
        quick = str(CONFIGS / "quick.cfg")
        runs = {  # run name: arguments, "{root}" the directory of the run's way
            "gen-code": ["gen-code", "79"],
            "simulate": ["simulate", "--config", quick],
            "demux": ["demux", "--stream", "{root}/simulate/stream.bin"],
            "snr-sweep": ["snr-sweep", "--config", quick],
            "scan2d": ["scan2d", "--config", quick, "--stack"],
            "scan2d-dense": ["scan2d", "--config", quick, "--stack", "--solver", "dense"],
        }
        for way in ("process", "main"):
            root = tmp_path / way
            for name, args in runs.items():
                argv = ["--out-dir", str(root / name), *(a.format(root=root) for a in args)]
                if way == "process":
                    done = run_python("-m", "aoimux.cli", *argv)
                    assert (done.returncode, done.stderr) == (0, ""), name
                else:
                    assert main(argv) == 0, name
        trees = [
            {p.relative_to(top): p.read_bytes() for p in top.rglob("*") if p.is_file()}
            for top in (tmp_path / "process", tmp_path / "main")
        ]
        assert len(trees[1]) == 1 + 3 + 1 + 3 + 4 + 4
        assert trees[0] == trees[1]


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

    def test_snr_sweep_reconstructs_a_reference_and_one_block_per_order_and_mode(
        self, tmp_path, cfg_file, calls
    ):
        # orders 7 and 19, 4 trials: each order and mode reconstructs its
        # noise-free reference, then its 4 trials as one block, drawn folded
        # with no stream to fold; the 2 coded configs demultiplex both
        assert main(["--out-dir", str(tmp_path), "snr-sweep", "--config", str(cfg_file)]) == 0
        assert calls == {"demultiplex_stream": 2 * 2, "reconstruct_profile": 2 * 2 * 2}


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
