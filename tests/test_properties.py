"""Property tests of the kinetic-energy split against the general forms.

docs/energy_split.md sections 2-3 give T and T+ for any PacketState:

    T  = (hbar**2 / 2m) * (l**2 + 2 |a|**2 w**2)
    T+ = T/2 - (hbar**2 / (m sqrt(pi))) * l * Im(a) * w

half_energies evaluates per-family closed forms instead; both must agree
over random systems, parameters and times.  Both must also agree with a
50-digit mpmath evaluation of the same general forms.
"""

import math
import sys

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import gausspack as g  # noqa: E402

_SCALE = st.floats(0.1, 10.0)
_P0 = st.floats(-5.0, 5.0)
_RATE = st.floats(0.1, 5.0)


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
    """(T, T+, scale, z) at 50 digits, from the exact float inputs.

    The state comes from the table of docs/energy_split.md section 1, T
    and T+ from the general forms above.  A double computation rounds the
    products t/t0, F*t and omega*t, which costs about eps*|z| in the
    spreading ratio, the drift momentum or the phase; scale is the size
    of T that such an error is relative to.  For the harmonic oscillator
    that is the larger of E_kin0 and E_pot0, between which T swings, not
    T(t) itself.
    """
    hbar, mass, alpha, p0, t = (mp.mpf(v) for v in (
        params.hbar, params.mass, params.alpha, params.p0, t))
    beta = alpha * hbar
    kind = system.kind
    if kind in (g.SystemKind.FREE, g.SystemKind.UNIFORM_ACCELERATION):
        force = mp.mpf(system.force or 0.0)
        ratio = t / (mass * beta**2 / hbar)
        w2 = beta**2 * (1 + ratio**2)
        lin = (p0 + force * t) / hbar
        im_a = -ratio / (2 * beta**2 * (1 + ratio**2))
        z = abs(ratio) + abs(alpha * force * t)
    else:
        omega = mp.mpf(system.omega if kind is g.SystemKind.HARMONIC else system.omega_tilde)
        gamma = hbar / (mass * omega * beta)
        if kind is g.SystemKind.HARMONIC:
            c, s, mismatch = mp.cos(omega * t), mp.sin(omega * t), beta**2 - gamma**2
        else:
            c, s, mismatch = mp.cosh(omega * t), mp.sinh(omega * t), -(beta**2 + gamma**2)
        w2 = (beta * c) ** 2 + (gamma * s) ** 2
        lin = p0 * c / hbar
        im_a = mass * omega * mismatch * s * c / (2 * hbar * w2)
        z = abs(omega * t)
    abs_a2 = 1 / (4 * w2 * w2) + im_a**2
    total = hbar**2 / (2 * mass) * (lin**2 + 2 * abs_a2 * w2)
    plus = total / 2 - hbar**2 / (mass * mp.sqrt(mp.pi)) * lin * im_a * mp.sqrt(w2)
    scale = total
    if kind is g.SystemKind.HARMONIC:
        scale = max((p0**2 + hbar**2 / (2 * beta**2)) / (2 * mass),
                    mass * omega**2 * beta**2 / 4)
    return total, plus, scale, z


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(_cases(max_growth=300.0))
def test_kinetic_energies_match_a_50_digit_reference(case):
    mpmath = pytest.importorskip("mpmath")
    system, params, t = case
    with mpmath.workdps(50):
        total, plus, scale, z = _reference(mpmath.mp, system, params, t)
        bound = 64.0 * sys.float_info.epsilon * (1.0 + float(z))
        got = g.half_energies(system, params, t)
        assert float(abs(g.total_kinetic(system, params, t) - total) / scale) <= bound
        assert float(abs(got.plus - plus) / scale) <= bound
