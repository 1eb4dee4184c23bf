"""The library's closed forms, pinned bit for bit.

One SHA-256 digest covers every field of every record (as float.hex,
with the type name of the record and of each field) and the raw bytes,
dtype and shape of every array that the closed forms return over a
seeded sample of all four systems.  A change that moves one bit, or
that lets a numpy scalar into a record, changes the digest.
"""

import hashlib
import math

import numpy as np
import pytest

import gausspack as g
from conftest import per_level, pinned

_GRID_SIZES = (64, 1024, 2**15)


def _systems(rng):
    """(system, draw_t) per system; draw_t gives n times for a rate."""
    accel = g.uniform_acceleration(float(rng.uniform(-5.0, 5.0)))
    sho = g.harmonic_oscillator(float(rng.uniform(0.1, 10.0)))
    rate = float(rng.uniform(0.1, 10.0))
    inverted = g.inverted_oscillator(rate)
    # |omega_tilde*t| at 30 and 299, on both sides of the hyperbolic split
    edges = [s * z / rate for z in (29.5, 30.0, 30.5, 299.0) for s in (-1.0, 1.0)]
    return (
        (g.free_particle(), 50.0, []),
        (accel, 50.0, []),
        (sho, 200.0 / sho.omega, []),
        (inverted, 299.0 / rate, edges),
    )


def _params(rng, drifting):
    return g.make_params(
        hbar=float(rng.uniform(0.1, 10.0)), mass=float(rng.uniform(0.1, 10.0)),
        alpha=float(rng.uniform(0.1, 10.0)), p0=float(rng.uniform(-5.0, 5.0)),
        x0=float(rng.uniform(-5.0, 5.0)) if drifting else 0.0)


def _feed(h, value):
    """Hash value's type name and bits; records and tuples field by field."""
    h.update(type(value).__name__.encode())
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, g.GridResult):
        for field in (value.t, value.xs, value.psi, value.prob):
            _feed(h, field)
    elif isinstance(value, tuple):
        for field in value:
            _feed(h, field)
    elif isinstance(value, complex):
        h.update(f"{value.real.hex()},{value.imag.hex()}".encode())
    else:
        h.update(float(value).hex().encode())


def _library_digest(seed=13, n_params=10, n_times=50):
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for system, span, edges in _systems(rng):
        drifting = system.kind in (g.SystemKind.FREE, g.SystemKind.UNIFORM_ACCELERATION)
        for k in range(n_params):
            params = _params(rng, drifting)
            times = [float(t) for t in rng.uniform(-span, span, n_times)]
            times += [0.0, -0.0, *edges]
            for t in times:
                _feed(h, g.state_at(system, params, t))
                _feed(h, g.moments_at(system, params, t))
                _feed(h, g.total_kinetic(system, params, t))
                _feed(h, g.half_energies(system, params, t))
            _feed(h, g.fractions_series(system, params, times))
            if k >= 2:
                continue
            t = times[0] / 8.0  # a grid resolves the packet at moderate times
            m = g.moments_at(system, params, t)
            half = 6.0 * math.sqrt(m.var_x)
            window = (m.mean_x - half, m.mean_x + half)
            for n in _GRID_SIZES:
                xs = np.linspace(*window, n)
                _feed(h, g.sample_grid(system, params, t, window, n))
                _feed(h, g.kinetic_density(system, params, xs, t))
                _feed(h, g.scaled_density(system, params, xs, t))
                _feed(h, g.state_at(system, params, t).prob(xs))
            _feed(h, g.kinetic_density(system, params, m.mean_x + half / 3.0, t))
            _feed(h, g.scaled_density(system, params, m.mean_x - half / 3.0, t))
            _feed(h, g.state_at(system, params, t).prob(m.mean_x + half / 5.0))
    return h.hexdigest()


# One digest per numpy dispatch level (conftest.per_level).  Taken before
# the per-call paths of analytic and kedensity were reworked; re-taken once
# the oscillator's const_phase followed arg(A) continued in t, and again when
# the closed forms came to be read from the classical flow M(t).
LIBRARY_DIGEST = per_level(
    "bb91b4815f440ba5ab7644e8db490ee9211ced527da4bd22eb11f8bf3746c6d6",
    x86_v3="c22f313ca98ea6b474377d8561add6b0e72a2278155ab33b90f2f456c952dd0f",
    baseline="a2ba6e74f0a87cce6c84df0eb055648233ae7b7725f145183e1655c8d950ce70")


def test_closed_forms_keep_their_bits():
    assert _library_digest() == pinned(LIBRARY_DIGEST)


def test_a_dispatch_level_with_no_pins_fails_naming_it(monkeypatch):
    import conftest

    monkeypatch.setattr(conftest, "dispatch_level", lambda: "X86_V9")
    with pytest.raises(pytest.fail.Exception, match="numpy dispatch level X86_V9"):
        pinned(LIBRARY_DIGEST)
