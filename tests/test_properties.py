"""Property tests of the closed forms against independent references.

docs/energy_split.md sections 2-3 give T and T+ for any PacketState:

    T  = (hbar**2 / 2m) * (l**2 + 2 |a|**2 w**2)
    T+ = T/2 - (hbar**2 / (m sqrt(pi))) * l * Im(a) * w

half_energies evaluates the flow form of section 1 instead; both must
agree over random systems, parameters and times.  A 50-digit mpmath
evaluation of the per-system table of section 1 checks the state itself
(psi at 41 points over +-5 spreads) and T and T+ through the general
forms: formulas that the library does not use.
"""

import math
import sys

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import gausspack as g  # noqa: E402

_SCALE = st.floats(0.1, 10.0)
_P0 = st.floats(-5.0, 5.0)
_RATE = st.floats(0.1, 5.0)
_EPS = sys.float_info.epsilon


@st.composite
def _cases(draw, max_growth=25.0):
    """(system, params, t) over all four systems, |omega_tilde*t| <= max_growth."""
    kind = draw(st.sampled_from(["free", "accel", "sho", "inverted"]))
    x0 = draw(st.floats(-5.0, 5.0)) if kind in ("free", "accel") else 0.0
    params = g.make_params(hbar=draw(_SCALE), mass=draw(_SCALE), alpha=draw(_SCALE),
                           x0=x0, p0=draw(_P0))
    t = draw(st.floats(-50.0, 50.0))
    if kind == "free":
        system = g.free_particle()
    elif kind == "accel":
        system = g.uniform_acceleration(draw(st.floats(-5.0, 5.0)))
    elif kind == "sho":
        system = g.harmonic_oscillator(draw(_RATE))
    else:
        omega_tilde = draw(_RATE)
        system = g.inverted_oscillator(omega_tilde)
        t = draw(st.floats(-max_growth / omega_tilde, max_growth / omega_tilde))
    return system, params, t


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_cases())
def test_half_energies_match_the_general_packet_forms(case):
    system, params, t = case
    state = g.state_at(system, params, t)
    a, l, w = state.quad_coeff, state.lin_phase, state.width
    scale = params.hbar**2 / (2.0 * params.mass)
    total = scale * (l * l + 2.0 * abs(a) ** 2 * w * w)
    plus = 0.5 * total - (params.hbar**2 / (params.mass * math.sqrt(math.pi))) * l * a.imag * w
    split = g.half_energies(system, params, t)
    assert abs(split.total - total) <= 1e-12 * total
    assert abs(split.plus - plus) <= 1e-12 * total


def _reference(mp, system, params, t):
    """The state, T and T+ at 50 digits, from the exact float inputs.

    The state (center, width w, Im a, l and const, with the harmonic
    oscillator's arg E continued in t) comes from the per-system table of
    docs/energy_split.md section 1, T and T+ from the general forms above.
    A double computation rounds the products t/t0, F*t and omega*t, which
    costs about eps*|z| in the spreading ratio, the drift momentum or the
    phase; scale is the size of T that such an error is relative to.  For
    the harmonic oscillator that is the larger of E_kin0 and E_pot0,
    between which T swings, not T(t) itself.
    """
    hbar, mass, alpha, x0, p0, t = (mp.mpf(v) for v in (
        params.hbar, params.mass, params.alpha, params.x0, params.p0, t))
    beta = alpha * hbar
    kind = system.kind
    if kind in (g.SystemKind.FREE, g.SystemKind.UNIFORM_ACCELERATION):
        force = mp.mpf(system.force or 0.0)
        ratio = t / (mass * beta**2 / hbar)
        w2 = beta**2 * (1 + ratio**2)
        p_t = p0 + force * t
        center = x0 + p0 * t / mass + force * t**2 / (2 * mass)
        im_a = -ratio / (2 * beta**2 * (1 + ratio**2))
        const = (force * t * x0 - force**2 * t**3 / (6 * mass)
                 - p_t * (x0 + p0 * t / (2 * mass))) / hbar - mp.atan(ratio) / 2
        z = abs(ratio) + abs(alpha * force * t)
    else:
        omega = mp.mpf(system.omega if kind is g.SystemKind.HARMONIC else system.omega_tilde)
        gamma = hbar / (mass * omega * beta)
        theta = omega * t
        if kind is g.SystemKind.HARMONIC:
            c, s, mismatch = mp.cos(theta), mp.sin(theta), beta**2 - gamma**2
            # arg E continued in t: E = beta*cos + i*gamma*sin winds once per period
            arg = mp.atan(gamma * mp.tan(theta) / beta) + mp.pi * mp.nint(theta / mp.pi)
        else:
            c, s, mismatch = mp.cosh(theta), mp.sinh(theta), -(beta**2 + gamma**2)
            arg = mp.atan(gamma * mp.tanh(theta) / beta)
        w2 = (beta * c) ** 2 + (gamma * s) ** 2
        p_t = p0 * c
        center = p0 * s / (mass * omega)
        im_a = mass * omega * mismatch * s * c / (2 * hbar * w2)
        const = -p0**2 * s * c / (2 * mass * omega * hbar) - arg / 2
        z = abs(theta)
    lin = p_t / hbar
    abs_a2 = 1 / (4 * w2 * w2) + im_a**2
    total = hbar**2 / (2 * mass) * (lin**2 + 2 * abs_a2 * w2)
    plus = total / 2 - hbar**2 / (mass * mp.sqrt(mp.pi)) * lin * im_a * mp.sqrt(w2)
    scale = total
    if kind is g.SystemKind.HARMONIC:
        scale = max((p0**2 + hbar**2 / (2 * beta**2)) / (2 * mass),
                    mass * omega**2 * beta**2 / 4)
    return dict(center=center, width=mp.sqrt(w2), im_a=im_a, lin=lin, const=const,
                total=total, plus=plus, scale=scale, z=z)


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_cases(max_growth=300.0))
def test_kinetic_energies_match_a_50_digit_reference(case):
    mpmath = pytest.importorskip("mpmath")
    system, params, t = case
    with mpmath.workdps(50):
        ref = _reference(mpmath.mp, system, params, t)
        bound = 64.0 * _EPS * (1.0 + float(ref["z"]))
        got = g.half_energies(system, params, t)
        scale = ref["scale"]
        assert float(abs(g.total_kinetic(system, params, t) - ref["total"]) / scale) <= bound
        assert float(abs(got.plus - ref["plus"]) / scale) <= bound


def _psi(mp, ref, xs):
    """The reference state's psi at the float points xs."""
    center, width = ref["center"], ref["width"]
    norm = 1 / mp.sqrt(mp.sqrt(mp.pi) * width)
    values = []
    for x in map(mp.mpf, xs):
        u = x - center
        values.append(norm * mp.exp(-u**2 / (2 * width**2)
                                    + 1j * (-ref["im_a"] * u**2 + ref["lin"] * x + ref["const"])))
    return values


def _psi_error(mp, system, params, t):
    """(max|psi - psi_ref| / max|psi_ref| over 41 points of +-5 spreads, its unit).

    A double evaluation loses about eps times the size of each phase term
    (l*x, const, Im(a)*u**2) at the float points, and about eps times
    |t * dpsi/dt| from rounding omega*t, t/t0 or F*t; the unit is eps times
    the sum, relative to max|psi|.
    """
    ref = _reference(mp, system, params, t)
    spread = float(ref["width"]) / math.sqrt(2.0)
    xs = np.linspace(float(ref["center"]) - 5.0 * spread, float(ref["center"]) + 5.0 * spread, 41)
    want = _psi(mp, ref, xs)
    step = mp.mpf(10) ** -25
    moved = _psi(mp, _reference(mp, system, params, mp.mpf(t) * (1 + step)), xs)
    peak = max(abs(w) for w in want)
    rate = max(abs(m - w) for m, w in zip(moved, want)) / step
    got = g.state_at(system, params, t).psi(xs)
    err = max(abs(mp.mpc(complex(v)) - w) for v, w in zip(got, want)) / peak
    size = (abs(ref["lin"]) * max(abs(xs[0]), abs(xs[-1])) + abs(ref["const"])
            + abs(ref["im_a"]) * (5 * spread) ** 2)
    return float(err), _EPS * float(1 + size + rate / peak)


# Over these examples the worst error was 1.09 units (free), 0.93 (accel),
# 1.19 (harmonic) and 0.86 (inverted) with the per-system closed forms that
# the classical flow replaced, and at most 1.25 over 8000 seeded draws.
_PSI_UNITS = 4.0


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_cases(max_growth=5.0))
def test_states_match_a_50_digit_reference(case):
    mpmath = pytest.importorskip("mpmath")
    system, params, t = case
    with mpmath.workdps(50):
        err, unit = _psi_error(mpmath.mp, system, params, t)
    assert err <= _PSI_UNITS * unit
