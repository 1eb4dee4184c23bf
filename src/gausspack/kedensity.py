"""Kinetic energy density of Gaussian packets and its left/right split.

The local kinetic energy density used throughout is

    T(x, t) = (hbar**2 / 2m) * |dpsi/dx|**2

which integrates to the kinetic expectation value <p**2>/2m.  For a
PacketState with quadratic coefficient a, plane-wave number l and
envelope width w this evaluates in closed form to

    T(x, t) = (hbar**2 / 2m) * (l**2 - 4*l*Im(a)*u + 4*|a|**2*u**2) * P(x, t)

with u = x - center.  Splitting the integral at the packet center
(Gaussian half-line moments: 1/2, w/(2*sqrt(pi)), w**2/4) gives the
energies carried by the trailing and leading halves:

    T_plus/minus(t) = T(t)/2 -/+ (hbar**2 / (m*sqrt(pi))) * l * Im(a) * w

From the classical flow (analytic), with the packet's envelope beta*Z
and momentum row beta*P, l*Im(a)*w is -p_t*Re(beta*P conj(beta*Z))/(2 hbar**2
|beta*Z|), which gives half of T_plus - T_minus for all four systems in one
expression.  T(t) itself is analytic.total_kinetic.  docs/energy_split.md
records the derivation and the per-system forms it reduces to.
"""

import math
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .analytic import (
    _OSCILLATORS, _SQRT_PI, _checked, _checked_times, _envelope, _flow, _gamma, _kinetic,
    _mapped, _prob_at_offset, _shear, state_at, total_kinetic,
)
from .errors import ParameterError
from .quantities import SystemKind, _require_finite, _require_squarable

__all__ = [
    "EnergySplit",
    "kinetic_density",
    "half_energies",
    "fractions_series",
    "fraction_limits",
    "extremal_p0",
    "scaled_density",
    "accel_event_times",
    "asymmetry_amplitude",
]

_TWO_OVER_SQRT_PI = 2.0 / _SQRT_PI


class EnergySplit(NamedTuple):
    """Kinetic energy of a packet split at its center.

    plus is the energy carried by x > <x>_t, minus by x < <x>_t;
    r_plus = plus/total and r_minus = 1 - r_plus, so the fractions sum
    to one exactly.
    """

    t: float
    total: float
    plus: float
    minus: float
    r_plus: float
    r_minus: float


def kinetic_density(system, params, x, t):
    """Closed-form T(x, t); x may be a scalar or ndarray.

    The ufuncs of scale*(l*l - 4*l*Im(a)*u + 4*|a|**2*u*u)*state.prob(x) in
    their order, in three arrays (a scalar x is a one-element array).
    """
    state = state_at(system, params, t)
    u = np.atleast_1d(np.asarray(x) - state.center)
    a, l = state.quad_coeff, state.lin_phase
    poly = 4.0 * l * a.imag * u
    np.subtract(l * l, poly, out=poly)
    square = 4.0 * _require_squarable("|quad_coeff|", abs(a)) ** 2 * u
    square *= u
    poly += square
    np.multiply(params.hbar**2 / (2.0 * params.mass), poly, out=poly)
    poly *= _prob_at_offset(u, state.width, square)
    return float(poly[0]) if np.ndim(x) == 0 else poly


def _positive(total):
    """T(t), which must be positive and finite (at every element of a float64 array,
    where the first time that fails decides the message, as half_energies there would)."""
    if type(total) is not float:
        passed = (total > 0.0) & (total < math.inf)
        return total if passed.all() else _positive(float(total[passed.argmin()]))
    if 0.0 < total < math.inf:
        return total
    raise ParameterError("total kinetic energy overflows the float range" if total == math.inf
                         else "total kinetic energy is not positive")


def _split(system, params, t, terms):
    """The EnergySplit fields at t, from the classical flow.

    T = grow2*(p_t**2 + |beta*P|**2/2)/2m, and half of T_plus - T_minus is
    grow2*p_t*Re(beta*P*conj(beta*Z))/(2*sqrt(pi)*m*|beta*Z|).  t and terms
    come from _checked or _checked_times: a float, or a float64 array
    whose |z| is math.hypot per element, so both give the same bits.
    """
    _, grow2, _, p_t, _, beta_c, d_over_alpha = _flow(system, params, t, terms)
    _, z_re, z_im, _ = _envelope(system, params, t, terms)
    abs_z = math.hypot(z_re, z_im) if type(t) is float else _mapped(math.hypot, z_re, z_im)
    total = _positive(_kinetic(params.mass, grow2, p_t, beta_c, d_over_alpha))
    # 2*sqrt(pi)*mass > 0, and |z| >= 1 for Z = 1 + i*t/t0 and >= min(beta, gamma)/2 > 0
    # for the oscillators' beta*Z: no divisor here underflows.
    delta = grow2 * p_t * (_shear(beta_c, d_over_alpha, z_re, z_im, abs_z)
                           / (2.0 * _SQRT_PI * params.mass))
    plus = 0.5 * total + delta
    minus = 0.5 * total - delta
    r_plus = plus / total
    return t, total, plus, minus, r_plus, 1.0 - r_plus


def half_energies(system, params, t):
    """EnergySplit of the kinetic energy at the packet center at time t."""
    return tuple.__new__(EnergySplit, _split(system, params, *_checked(system, params, t)))


def fractions_series(system, params, times):
    """half_energies over a sequence of times, with the same bits.

    A list that _checked_times passes is gated once and evaluated over
    float64 arrays, the math-module functions mapped per time; overflow
    there gives inf without a warning, as float arithmetic does.  Any
    other list (an np.float64 in it, an inverted time past
    |omega_tilde*t| = 30) is half_energies per time.  Records are built
    by tuple.__new__, as EnergySplit._make builds them.
    """
    times = list(times)
    if not times:
        return ()
    with np.errstate(all="ignore"):
        checked = _checked_times(system, params, times)
        if checked is None:
            return tuple(half_energies(system, params, t) for t in times)
        columns = _split(system, params, *checked)
    return tuple(map(tuple.__new__, repeat(EnergySplit), zip(*(c.tolist() for c in columns))))


def fraction_limits(system, params):
    """Characteristic (r_plus, r_minus) values for each system.

    Free: the t -> +inf limits.  Inverted: the t -> +inf limits (finite
    because the asymmetry saturates).  Harmonic: the values attained an
    eighth of a period into the cycle, where the split is extremal over
    the cycle.  Uniform acceleration: the asymmetry decays once
    |p0 + F*t| grows, so the t -> +inf limits are (1/2, 1/2); the
    transient structure is exposed through fractions_series and
    accel_event_times instead.
    """
    kind = system.kind
    p0 = params.p0

    if kind is SystemKind.FREE:
        s = p0 * params.alpha
        shift = _TWO_OVER_SQRT_PI * s / (2.0 * s * s + 1.0)
        return 0.5 + shift, 0.5 - shift

    if kind is SystemKind.UNIFORM_ACCELERATION:
        return 0.5, 0.5

    omega = system.shape
    gamma = _gamma(params, omega)
    kappa = gamma * gamma + params.beta**2
    s = p0 / (params.mass * omega)
    shift = _TWO_OVER_SQRT_PI * (s / (2.0 * s * s + kappa))
    if kind is SystemKind.HARMONIC:
        shift = shift * (gamma * gamma - params.beta**2) / math.sqrt(kappa)
    else:
        shift = shift * math.sqrt(kappa)
    return 0.5 + shift, 0.5 - shift


def extremal_p0(system, params):
    """The p0 > 0 that maximizes the asymmetry measured by fraction_limits."""
    kind = system.kind
    if kind is SystemKind.FREE:
        return 1.0 / (params.alpha * math.sqrt(2.0))
    if kind is SystemKind.UNIFORM_ACCELERATION:
        raise ParameterError(
            "extremal p0 is defined for free and oscillator systems only"
        )
    product = _require_squarable("beta*mass*omega", params.beta * params.mass * system.shape)
    return math.sqrt(product**2 / 2.0 + params.hbar**2 / (2.0 * params.beta**2))


def _positive_total(system, params, t):
    """T(t), the normalization of S = T(x,t)/T(t), which must be positive and finite."""
    return _positive(total_kinetic(system, params, t))


def scaled_density(system, params, x, t):
    """Kinetic energy density normalized by its integral, S = T(x,t)/T(t)."""
    total = _positive_total(system, params, t)
    return kinetic_density(system, params, x, t) / total


def accel_event_times(system, params):
    """Times where |p0 + F*t| equals the momentum spread, sorted.

    These are the instants at which the instantaneous mean momentum of a
    uniformly accelerated packet passes the asymmetry-maximizing value;
    depending on signs, zero, one, or both lie at t >= 0.
    """
    if system.kind is not SystemKind.UNIFORM_ACCELERATION or not system.force:
        raise ParameterError("event times require a nonzero force")
    dp0 = params.dp0
    times = ((-params.p0 - dp0) / system.force, (-params.p0 + dp0) / system.force)
    return tuple(sorted(times))


def asymmetry_amplitude(system, params, t):
    """Long-time kinetic asymmetry amplitude at the instantaneous momentum.

    For drifting packets the fraction shift (r_plus - 1/2) approaches
    (2/sqrt(pi)) * s/(2s**2+1) with s = alpha*(p0 + F*t) once the
    spreading factor saturates; this returns the absolute value of that
    amplitude, which peaks exactly where |p0 + F*t| equals the momentum
    spread.
    """
    t = _require_finite("t", t)
    if system.kind in _OSCILLATORS:
        raise ParameterError("asymmetry amplitude applies to drifting packets only")
    s = params.alpha * (params.p0 + system.shape * t)
    return _TWO_OVER_SQRT_PI * abs(s) / (2.0 * s * s + 1.0)
