"""Property tests of the kinetic-energy split against the general forms.

docs/energy_split.md sections 2-3 give T and T+ for any PacketState:

    T  = (hbar**2 / 2m) * (l**2 + 2 |a|**2 w**2)
    T+ = T/2 - (hbar**2 / (m sqrt(pi))) * l * Im(a) * w

half_energies evaluates per-family closed forms instead; both must agree
over random systems, parameters and times.
"""

import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import gausspack as g  # noqa: E402

_SCALE = st.floats(0.1, 10.0)
_P0 = st.floats(-5.0, 5.0)
_RATE = st.floats(0.1, 5.0)


@st.composite
def _cases(draw):
    """(system, params, t) over all four systems."""
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
        t = draw(st.floats(-25.0 / omega_tilde, 25.0 / omega_tilde))
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
