"""What several test files share: the reference phantom and acquisition
builders, a random scan grid and stack, a child interpreter that imports this
package, and whole in-memory streams through the chunked API.

An in-memory stream is its 1-D float64 samples and the
``config.AcquisitionConfig`` that made them.  The samples are the one
chunk that ``demux.average_periods`` folds; the fold then goes through
``demux.demultiplex_stream`` or ``pipeline.reconstruct_profile`` as the
CLI commands use them.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import aoimux
from aoimux import config, demux, pipeline, simulator

CONFIGS = Path(__file__).resolve().parents[1] / "configs"
SRC = Path(aoimux.__file__).resolve().parents[1]

# the reference rates: four samples a carrier cycle
F_US = 1.25e6
F_S = 5e6
C = 990.0
K = 4
BIN = C / F_S


def phantom(*, mu_a=0.3, boundary=0.0004, extent=0.004, separation=0.015):
    """A diffuse phantom with source and detector separation apart about x = 0."""
    return config.Phantom(
        mu_s_prime_per_cm=15.0,
        mu_a_per_cm=mu_a,
        src_x_m=-separation / 2,
        det_x_m=separation / 2,
        boundary_z_m=boundary,
        depth_extent_m=extent,
    )


def acquisition(mode="coded", order=79, periods=2, **kw):
    """An acquisition at the reference rates of periods repetition periods;
    kw sets any other field, duration_s included."""
    fields = dict(
        f_us=F_US, f_s=F_S, c=C, mode=mode, order=order, duration_s=periods * order * K / F_S
    )
    return config.AcquisitionConfig(**(fields | kw))


def scan_result(nx, ny, bins, *, seed, y_max=0.0015):
    """(xs, ys, stack): an ny x nx grid and its (ny, nx, bins) stack of
    random profiles, bin m at depth m * BIN."""
    xs = np.linspace(-0.002, 0.002, nx) if nx > 1 else np.zeros(1)
    ys = np.linspace(-0.001, y_max, ny) if ny > 1 else np.zeros(1)
    return xs, ys, np.random.default_rng(seed).random((ny, nx, bins))


def run_python(*args, check=False, stdout=subprocess.PIPE, env=None):
    """Run a child interpreter that imports this package from its source,
    capturing its output as text.  stdout may be a file descriptor to
    write to in place of the captured pipe; env sets variables on top of
    this process's environment."""
    env = dict(os.environ) | (env or {})
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, stdout=stdout, stderr=subprocess.PIPE, text=True,
        check=check,
    )


def fold(samples, cfg):
    """The (order, K) mean of the complete periods of a stream of cfg."""
    return demux.average_periods([samples], cfg)


def profile_of(samples, cfg, kind="spectral", extract=True):
    """The depth profile of a stream of cfg, as ``aoimux demux`` writes it."""
    return pipeline.reconstruct_profile(fold(samples, cfg), cfg, kind, extract=extract)


def demux_of(system, samples, cfg):
    """The carrier-band depth signal of a coded stream of cfg, solved by system."""
    return demux.demultiplex_stream(system, fold(samples, cfg))
