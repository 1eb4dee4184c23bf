import os
import subprocess
import sys

import numpy as np
import pytest

import gausspack as g

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__

# One representative configuration per system, reused across test modules.
FOUR_CASES = (
    (g.free_particle(), g.make_params(alpha=1.0, x0=0.3, p0=1.2), 1.5),
    (g.uniform_acceleration(0.8), g.make_params(alpha=0.8, p0=-0.6), 1.2),
    (g.harmonic_oscillator(1.3), g.make_params(alpha=0.7, p0=1.1), 0.9),
    (g.inverted_oscillator(0.8), g.make_params(alpha=0.9, p0=0.7), 1.1),
)


def dispatch_level():
    """The highest of numpy's dispatch targets that runs here, or "baseline".

    numpy picks its float64 exp and some complex kernels by this level, so
    the digests of tests/test_bits.py and the CLI tables hold one pin per
    level.  NPY_DISABLE_CPU_FEATURES lowers it, as on an older CPU.
    """
    active = [name for name in __cpu_dispatch__ if __cpu_features__.get(name)]
    return active[-1] if active else "baseline"


def per_level(avx512, x86_v3=None, baseline=None):
    """One pin per dispatch level; a level not given has the pin of the one above it.

    The three AVX-512 levels (AVX512_SPR, AVX512_ICL, X86_V4) share their
    kernels for everything pinned here.
    """
    x86_v3 = x86_v3 or avx512
    return {"AVX512_SPR": avx512, "AVX512_ICL": avx512, "X86_V4": avx512,
            "X86_V3": x86_v3, "baseline": baseline or x86_v3}


def pinned(pins):
    """pins at the running dispatch level; a level with no pins fails, naming it."""
    level = dispatch_level()
    if level not in pins:
        pytest.fail(f"nothing is pinned for numpy dispatch level {level} (numpy {np.__version__})")
    return pins[level]


@pytest.fixture
def four_cases():
    return FOUR_CASES


@pytest.fixture
def run_cli():
    """Invoke the CLI as a subprocess and return (exit code, stdout, stderr)."""

    def run(*args, **kwargs):
        proc = subprocess.run(
            [sys.executable, "-m", "gausspack", *args],
            capture_output=True, text=True, **kwargs,
        )
        return proc.returncode, proc.stdout, proc.stderr

    return run


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes os.fork starts while the test runs."""
    started, real_fork = [], os.fork

    def counting_fork():
        pid = real_fork()
        if pid:
            started.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    return started


class _HalfPipe:
    """A formatting helper's pipe end that sends half of its text, then dies."""

    def __init__(self, fd, mode, **kwargs):
        self.file = open(fd, mode, **kwargs)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def write(self, data):
        self.file.write(data[:len(data) // 2])
        self.file.flush()
        os._exit(3)


@pytest.fixture
def helpers_die_while_sending(monkeypatch):
    """Make every forked formatting helper die halfway through sending."""
    from gausspack import _textio

    def helper_open(fd, mode="r", **kwargs):
        return (_HalfPipe if mode == "w" else open)(fd, mode, **kwargs)

    monkeypatch.setattr(_textio, "open", helper_open, raising=False)
