import os
import subprocess
import sys

import pytest

import gausspack as g

# One representative configuration per system, reused across test modules.
FOUR_CASES = (
    (g.free_particle(), g.make_params(alpha=1.0, x0=0.3, p0=1.2), 1.5),
    (g.uniform_acceleration(0.8), g.make_params(alpha=0.8, p0=-0.6), 1.2),
    (g.harmonic_oscillator(1.3), g.make_params(alpha=0.7, p0=1.1), 0.9),
    (g.inverted_oscillator(0.8), g.make_params(alpha=0.9, p0=0.7), 1.1),
)


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
