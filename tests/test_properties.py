"""Property tests: config, manifest, stream and sequence text round trips."""

import re
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from aoimux import codes, fileio, simulator
from aoimux.config import manifest_text, parse_run_config
from aoimux.errors import AoimuxError, ConfigError

PROPERTY_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)
SMALL_ORDERS = codes.valid_orders(251)

finite = st.floats(-1e12, 1e12, allow_nan=False, allow_infinity=False)
non_negative = st.floats(0.0, 1e12, allow_nan=False, allow_infinity=False)
positive = st.floats(1e-9, 1e12, allow_nan=False, allow_infinity=False)


@pytest.fixture(scope="module")
def workdir():
    with tempfile.TemporaryDirectory() as tmp:
        yield Path(tmp)


@st.composite
def acquisition_configs(draw):
    f_us = draw(st.floats(1e3, 1e9))
    mode = draw(st.sampled_from([simulator.MODE_CODED, simulator.MODE_SINGLE_PULSE]))
    if mode == simulator.MODE_CODED:
        order = draw(st.sampled_from(SMALL_ORDERS))
    else:
        order = draw(st.integers(1, 10**6))
    return simulator.AcquisitionConfig(
        f_us=f_us,
        f_s=f_us * draw(st.integers(1, 32)),
        c=draw(positive),
        mode=mode,
        order=order,
        duration_s=draw(non_negative),
        noise_sigma=draw(non_negative),
        modulation_efficiency=draw(finite),
        seed=draw(st.integers(0, 2**64 - 1)),
        water_sound_speed=draw(positive),
        water_path_m=draw(non_negative),
    )


# (attribute, config key) of every [acquisition] key, in file order
ACQ_KEYS = [
    ("f_us", "f_us_hz"),
    ("f_s", "f_s_hz"),
    ("c", "sound_speed_m_s"),
    ("mode", "mode"),
    ("order", "order"),
    ("duration_s", "duration_s"),
    ("noise_sigma", "noise_sigma"),
    ("modulation_efficiency", "modulation_efficiency"),
    ("seed", "seed"),
    ("water_sound_speed", "water_sound_speed_m_s"),
    ("water_path_m", "water_path_m"),
]
# the value an [acquisition] key left out of a config reads back as
ACQ_DEFAULTS = {
    "noise_sigma": 0.0,
    "modulation_efficiency": 1.0,
    "seed": 0,
    "water_sound_speed": 1482.0,
    "water_path_m": 0.0,
}


@st.composite
def config_texts(draw, bad=None):
    """(config text, the AcquisitionConfig it describes).

    Entries are (key, value text, may be left out); a left-out
    [acquisition] key must read back as its default.  The grid and the
    plan are valid whichever keys are left out: each range holds the
    default 0.0 and spans fewer than 2^53 steps.  ``bad`` maps
    (section, key) to a value text that replaces that entry, never left
    out.
    """

    def text(value):
        if isinstance(value, float):
            # shortest round-trip form or 17 significant digits: both read back exactly
            return draw(st.sampled_from([repr(value), f"{value:.16e}"]))
        return str(value)

    omitted = draw(st.sets(st.sampled_from(sorted(ACQ_DEFAULTS))))
    acq = replace(draw(acquisition_configs()), **{a: ACQ_DEFAULTS[a] for a in omitted})
    orders = draw(st.lists(st.sampled_from(SMALL_ORDERS), min_size=1, max_size=5))
    sections = {
        "acquisition": [
            (key, text(getattr(acq, attr)), False)
            for attr, key in ACQ_KEYS
            if attr not in omitted
        ],
        "phantom": [
            ("mu_s_prime_per_cm", text(draw(positive)), False),
            ("mu_a_per_cm", text(draw(non_negative)), False),
            ("src_x_m", text(draw(finite)), False),
            ("src_y_m", text(draw(finite)), True),
            ("det_x_m", text(draw(finite)), False),
            ("det_y_m", text(draw(finite)), True),
            ("boundary_z_m", text(draw(finite)), True),
            ("depth_extent_m", text(draw(positive)), False),
        ],
        "scan": [
            ("x_min_m", text(-draw(non_negative)), True),
            ("x_max_m", text(draw(non_negative)), True),
            ("y_min_m", text(-draw(non_negative)), True),
            ("y_max_m", text(draw(non_negative)), True),
            ("step_m", text(draw(st.floats(1e-3, 1e12))), True),
        ],
        "sweep": [
            ("orders", ",".join(map(str, orders)), True),
            ("n_trials", text(draw(st.integers(2, 10**6))), True),
            ("reference", draw(st.sampled_from(["matched", "max-rate"])), True),
            ("subtract_noise_floor", draw(st.sampled_from(["true", "no", "1", "off"])), True),
        ],
    }
    bad = bad or {}
    lines = []
    for name, entries in sections.items():
        lines.append(f"[{name}]")
        for key, value, optional in entries:
            if (name, key) in bad:
                lines.append(f"{key} = {bad[name, key]}")
            elif not optional or draw(st.booleans()):
                lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n", acq


@PROPERTY_SETTINGS
@given(case=config_texts())
def test_config_manifest_config_round_trip(case, workdir):
    text, acq = case
    path = workdir / "run.cfg"
    path.write_text(text)
    rc = parse_run_config(path)
    assert rc.acquisition == acq
    manifest = manifest_text(rc)
    path.write_text(manifest)
    again = parse_run_config(path)
    assert again == rc
    assert manifest_text(again) == manifest


def _floats_text(*args, **kwargs):
    return st.floats(*args, **kwargs).map(repr)


# (section, value texts that break one of its rules, the rule's message)
INVALID_GRIDS_AND_PLANS = [
    ("scan", {"step_m": _floats_text(max_value=0.0) | st.just("nan")},
     "scan step must be finite and positive"),
    ("scan", {"x_min_m": _floats_text(1e-9, 1e12), "x_max_m": _floats_text(-1e12, 0.0)},
     "scan x range is reversed"),
    ("scan", {"y_min_m": _floats_text(1e-9, 1e12), "y_max_m": _floats_text(-1e12, 0.0)},
     "scan y range is reversed"),
    ("scan", {"x_min_m": _floats_text(-1e12, -1.0), "x_max_m": _floats_text(1.0, 1e12),
              "step_m": _floats_text(1e-300, 1e-16)},
     "spans too many steps"),
    ("sweep", {"orders": st.lists(st.integers(-999, 999), min_size=1, max_size=5)
               .filter(lambda orders: not all(map(codes.validate_order, orders)))
               .map(lambda orders: ",".join(map(str, orders)))},
     "sweep order "),
    ("sweep", {"orders": st.sampled_from(["", ",", " , ,"])}, "orders list is empty"),
    ("sweep", {"n_trials": st.integers(max_value=1).map(str)}, "n_trials must be at least 2"),
]


@PROPERTY_SETTINGS
@given(data=st.data(), case=st.sampled_from(INVALID_GRIDS_AND_PLANS))
def test_invalid_grid_or_plan_rejected(data, case, workdir):
    section, values, message = case
    bad = {(section, key): data.draw(value) for key, value in values.items()}
    text, _ = data.draw(config_texts(bad))
    path = workdir / "bad.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_run_config(path)


@PROPERTY_SETTINGS
@given(
    cfg=acquisition_configs(),
    samples=arrays(np.float64, st.integers(0, 64)),
)
def test_stream_file_round_trip(cfg, samples, workdir):
    stream = simulator.SampledStream(samples, cfg)
    path = workdir / "stream.bin"
    fileio.write_stream(stream, path)
    again = fileio.read_stream(path)
    assert again.config_snapshot == cfg
    assert again.samples.tobytes() == samples.astype("<f8").tobytes()


@PROPERTY_SETTINGS
@given(order=st.sampled_from(SMALL_ORDERS), shift=st.integers(0, 250))
def test_sequence_text_round_trip(order, shift):
    seq = codes.generate_s_sequence(order).shifted(shift)
    again = codes.SSequence.from_text(seq.to_text())
    assert again.order == order
    assert np.array_equal(again.bits, seq.bits)


SPECIAL_VALUES = ["inf", "-inf", "nan", "0", "-0.0", "-1", "1e309", "", "=", "x", "9" * 5000,
                  str(2**61 - 1), "coded", "single-pulse"]
VALUE_TEXT = st.one_of(
    st.sampled_from(SPECIAL_VALUES),
    st.text(max_size=12),
    st.integers().map(str),
    st.floats().map(repr),
)


def _stream_parts(workdir):
    """Header tokens and payload of a valid order-7 stream file."""
    cfg = simulator.AcquisitionConfig(
        f_us=1.25e6, f_s=5e6, c=990.0, mode="coded", order=7, duration_s=5.6e-6
    )
    path = workdir / "valid.bin"
    fileio.write_stream(simulator.SampledStream(np.arange(28.0), cfg), path)
    head, body = path.read_bytes().split(b"\n", 1)
    return head.decode("ascii").split(" "), body


def _read_mutated(workdir, tokens, body):
    """Read a stream file with the given header tokens; only package errors may escape."""
    path = workdir / "mutated.bin"
    path.write_bytes(" ".join(tokens).encode("utf-8", "surrogatepass") + b"\n" + body)
    try:
        fileio.read_stream(path)
    except AoimuxError:
        pass


def test_each_header_value_replaced_raises_only_package_errors(workdir):
    tokens, body = _stream_parts(workdir)
    for i in range(2, len(tokens)):
        key = tokens[i].split("=", 1)[0]
        for value in SPECIAL_VALUES:
            _read_mutated(workdir, tokens[:i] + [f"{key}={value}"] + tokens[i + 1 :], body)


@PROPERTY_SETTINGS
@given(data=st.data())
def test_mutated_header_raises_only_package_errors(data, workdir):
    tokens, body = _stream_parts(workdir)
    for _ in range(data.draw(st.integers(1, 4))):
        op = data.draw(st.sampled_from(["value", "value", "token", "delete", "insert"]))
        i = data.draw(st.integers(0, len(tokens) - 1)) if tokens else 0
        if op == "insert" or not tokens:
            tokens.insert(i, data.draw(VALUE_TEXT) + "=" + data.draw(VALUE_TEXT))
        elif op == "delete":
            del tokens[i]
        elif op == "token":
            tokens[i] = data.draw(VALUE_TEXT)
        else:
            tokens[i] = tokens[i].split("=", 1)[0] + "=" + data.draw(VALUE_TEXT)
    _read_mutated(workdir, tokens, body)
