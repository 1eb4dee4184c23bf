"""Closed-form Gaussian packet states for the four model systems.

Every solution handled here keeps the form

    psi(x, t) = norm * exp(-quad_coeff*(x - center)**2
                           + 1j*(lin_phase*x + const_phase))

with Re(quad_coeff) > 0, so a single PacketState container describes all
four systems and downstream code (densities, energies, grids) never
needs per-system branches.  The systems form two solution families, each
with one constructor: drifting (free and uniformly accelerated packets)
and oscillator (harmonic, and inverted as its continuation to imaginary
frequency).  total_kinetic is the one closed form of T(t) = <p**2>/2m.

Numerical care taken here:

* The drifting solutions carry the factor 1/sqrt(1 + i*t/t0); the
  principal branch is used (the argument never leaves the right
  half-plane, so the phase is continuous in t).
* The oscillator solution is often written with separate exponents
  carrying 1/sin(omega*t) poles.  Those exponents are combined
  analytically here into the PacketState form, whose coefficients stay
  finite at all t because the complex envelope A(t) = beta*cos(omega*t)
  + i*(hbar/(mass*omega*beta))*sin(omega*t) never vanishes.  The
  prefactor phase is -arg(A)/2 with arg(A) continued in t, so psi at one
  period is -psi at t = 0 (the oscillator's Maslov phase).
* The inverted oscillator grows like exp(omega_tilde*t); times with
  |omega_tilde*t| > 300 are rejected, and beyond |omega_tilde*t| > 30
  the hyperbolic functions are evaluated with their common exponential
  factor extracted so no intermediate overflows.
"""

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .errors import ParameterError, TimeRangeError
from .quantities import (
    SystemKind, _require_count, _require_finite, _require_squarable, _require_window,
)

__all__ = [
    "PacketState",
    "GridResult",
    "Moments",
    "state_at",
    "eval_psi",
    "moments_at",
    "total_kinetic",
    "sample_grid",
    "INVERTED_TIME_GUARD",
]

INVERTED_TIME_GUARD = 300.0
_HYPERBOLIC_SPLIT = 30.0
_FLOAT_MAX = float(np.finfo(float).max)
_SQRT_PI = math.sqrt(math.pi)


class PacketState(NamedTuple):
    """Snapshot of a Gaussian packet at one time.

    Attributes
    ----------
    t : float
        Evolution time of the snapshot.
    center : float
        Mean position; also the peak of the probability density.
    width : float
        Envelope width w: the probability density is
        exp(-(x-center)**2 / w**2) / (sqrt(pi) * w).
    quad_coeff : complex
        Coefficient a of -(x-center)**2 in the exponent, Re(a) > 0.
    lin_phase : float
        Coefficient l of the plane-wave phase exp(1j*l*x).
    const_phase : float
        x-independent phase, including the complex prefactor's argument.
    norm : float
        Magnitude of the normalization prefactor, 1/sqrt(sqrt(pi)*w).
    """

    t: float
    center: float
    width: float
    quad_coeff: complex
    lin_phase: float
    const_phase: float
    norm: float

    def psi(self, x):
        """Wavefunction at x (scalar or ndarray)."""
        u = np.asarray(x) - self.center
        exponent = -self.quad_coeff * u * u + 1j * (
            self.lin_phase * np.asarray(x) + self.const_phase
        )
        value = self.norm * np.exp(exponent)
        return complex(value) if np.ndim(x) == 0 else value

    def dpsi_dx(self, x):
        """Closed-form spatial derivative of psi at x."""
        u = np.asarray(x) - self.center
        factor = -2.0 * self.quad_coeff * u + 1j * self.lin_phase
        value = factor * self.psi(x)
        return complex(value) if np.ndim(x) == 0 else value

    def prob(self, x):
        """Probability density |psi|**2 in closed form."""
        u = np.atleast_1d(np.asarray(x) - self.center)
        value = _prob_at_offset(u, self.width, np.empty_like(u))
        return float(value[0]) if np.ndim(x) == 0 else value


def _prob_at_offset(u, width, out):
    """exp(-(u/w)**2) / (sqrt(pi)*w) at u = x - center, into out; u is overwritten."""
    u /= width
    np.negative(u, out=out)
    out *= u
    np.exp(out, out=out)
    out /= _SQRT_PI * width
    return out


@dataclass
class GridResult:
    """Wavefunction sampled on a uniform grid at one time."""

    t: float
    xs: np.ndarray
    psi: np.ndarray
    prob: np.ndarray

    def __post_init__(self):
        for arr in (self.xs, self.psi, self.prob):
            arr.flags.writeable = False


class Moments(NamedTuple):
    """Low-order expectation values of a packet at one time.

    energy is computed from its closed-form conserved expression, so it
    is constant in t by construction; kinetic + potential reproduces it
    up to rounding.
    """

    t: float
    mean_x: float
    var_x: float
    mean_p: float
    var_p: float
    kinetic: float
    potential: float
    energy: float


def _drifting_geometry(params, t, force):
    """(z, center, width) of a free or uniformly accelerated packet, z = 1 + i*t/t0."""
    p0, mass = params.p0, params.mass
    z = complex(1.0, t / params.t0)
    center = params.x0 + p0 * t / mass + force * t * t / (2.0 * mass)
    return z, center, params.beta * abs(z)


def _drifting_state(params, t, force):
    """Free and uniformly accelerated packets share one solution family."""
    hbar, mass = params.hbar, params.mass
    beta, t0, p0, x0 = params.beta, params.t0, params.p0, params.x0

    z, center, width = _drifting_geometry(params, t, force)
    p_t = p0 + force * t

    quad = 1.0 / (2.0 * beta * beta * z)
    lin = p_t / hbar
    const = (
        force * t * (x0 - force * t * t / (6.0 * mass))
        - p_t * (x0 + p0 * t / (2.0 * mass))
    ) / hbar - 0.5 * math.atan2(t / t0, 1.0)
    norm = 1.0 / math.sqrt(_SQRT_PI * width)
    return tuple.__new__(PacketState, (t, center, width, quad, lin, const, norm))


def _per_element(fn, *args):
    """fn mapped over the elements of broadcast float64 arrays.

    Every transcendental of the closed forms comes from the math module,
    elementwise also over an array of times: numpy's hypot, exp and cosh
    round differently, while +, -, * and / on float64 arrays round as
    on floats.  So the array path gives the scalar path's bits.  A
    function returning k values gives k rows.  For a float time the
    callers call fn(*args) directly: this dispatch would cost more than
    the math.  _mapped is the cheaper form for one value per element.
    """
    columns = [arg.tolist() for arg in np.broadcast_arrays(*args)]
    return np.array(list(map(fn, *columns)), dtype=float).T


def _mapped(fn, *args):
    """fn over float64 arrays of one length, a float argument repeated: a float64 array."""
    columns = [repeat(arg) if type(arg) is float else arg.tolist() for arg in args]
    return np.fromiter(map(fn, *columns), float)


def _factors(oscillator, z):
    """(grow, grow2, c, s) of an oscillator at z = omega*t (omega_tilde*t).

    Up to |z| = bound, c and s are the plain cos and sin (cosh and sinh)
    and grow = grow2 = 1.0; beyond it the oscillator's own rule gives
    them or refuses z.
    """
    _, bound, cos, sin, beyond = oscillator
    if abs(z) <= bound:
        return 1.0, 1.0, cos(z), sin(z)
    return beyond(z)


def _harmonic_beyond(z):
    """The harmonic oscillator has no z beyond the float range."""
    raise TimeRangeError(f"omega*t = {z:g} is beyond the float range")


def _inverted_beyond(z):
    """(grow, grow2, c, s) of the inverted oscillator past |z| = 30.

    cosh z = grow*c and sinh z = grow*s.  The dominant exponential
    grow = e**|z| (grow2 = e**(2|z|)) is factored out so that products of
    several hyperbolic factors cannot overflow prematurely.
    """
    if abs(z) > INVERTED_TIME_GUARD:
        raise TimeRangeError(
            f"|omega_tilde*t| = {abs(z):g} exceeds the supported "
            f"range {INVERTED_TIME_GUARD:g}"
        )
    damp = math.exp(-2.0 * abs(z))
    s = 0.5 * (1.0 - damp)
    return (math.exp(abs(z)), math.exp(2.0 * abs(z)),
            0.5 * (1.0 + damp), -s if z < 0 else s)


# The sign of omega**2 and the per-time factors of each oscillator (a kind
# not listed is drifting): up to |z| = bound the plain functions, beyond it
# a rule of its own.  The inverted oscillator is the harmonic one continued
# to omega -> i*omega_tilde: cos and sin become cosh and sinh, and omega**2
# changes sign.  The harmonic grow = grow2 = 1.0 and sign = +1 make exact
# products, so the shared closed forms keep each system's bits.
_OSCILLATORS = {
    SystemKind.HARMONIC: (1.0, _FLOAT_MAX, math.cos, math.sin, _harmonic_beyond),
    SystemKind.INVERTED: (-1.0, _HYPERBOLIC_SPLIT, math.cosh, math.sinh, _inverted_beyond),
}


def _gamma(params, omega):
    """gamma = hbar/(mass*omega*beta), the envelope's second width: positive,
    with a float square (one that underflows to 0 is harmless next to beta**2)."""
    try:
        gamma = params.hbar / (params.mass * omega * params.beta)
    except ZeroDivisionError:  # mass*omega*beta underflowed to 0
        gamma = math.inf
    if not (gamma > 0.0 and gamma * gamma < math.inf):
        raise ParameterError(
            f"gamma = hbar/(mass*omega*beta) must be positive and below 1.3e154, got {gamma!r}")
    return gamma


def _oscillator_geometry(params, omega, grow, c, s):
    """(center, width, gamma, A, 2*hbar*|A|**2) of a harmonic or inverted packet.

    A = beta*c + i*gamma*s is the complex envelope; a 2*hbar*|A|**2 that
    underflows to 0 (a tiny hbar times a huge alpha) is refused here.
    """
    hbar = params.hbar
    gamma = _gamma(params, omega)
    envelope = complex(params.beta * c, gamma * s)
    abs_env = abs(envelope)
    chirp_scale = 2.0 * hbar * abs_env * abs_env
    if chirp_scale == 0.0:
        raise ParameterError(
            f"2*hbar*|A|**2 underflows to 0 (hbar = {hbar!r}, |A| = {abs_env!r})")
    center = params.p0 * grow * s / (params.mass * omega)
    return center, grow * abs_env, gamma, envelope, chirp_scale


def _oscillator_state(params, t, omega, sign, grow, grow2, c, s):
    """Harmonic and inverted oscillator packets share one solution family."""
    hbar, mass = params.hbar, params.mass
    beta, p0 = params.beta, params.p0

    center, width, gamma, envelope, chirp_scale = _oscillator_geometry(
        params, omega, grow, c, s)
    quad = complex(
        1.0 / (2.0 * width * width),
        sign * mass * omega * (beta * beta - sign * gamma * gamma) * s * c
        / chirp_scale,
    )
    lin = p0 * grow * c / hbar
    # math.atan2 rounds a phase that underflows to 0; cmath.phase raises there.
    arg = math.atan2(envelope.imag, envelope.real)
    const = -p0 * center * grow * c / (2.0 * hbar) - 0.5 * arg
    # arg(A) continued in t: the harmonic A winds once around 0 per period.
    if sign > 0 and round((omega * t - arg) / (2.0 * math.pi)) % 2:
        const -= math.pi
    norm = 1.0 / math.sqrt(_SQRT_PI * width)
    return tuple.__new__(PacketState, (t, center, width, quad, lin, const, norm))


def _checked(system, params, t):
    """(t as a float, oscillator terms or None for a drifting system).

    The one input gate of the closed forms: a finite real t, and x0 = 0
    for the oscillators, whose solutions are implemented for that start.
    """
    t = _require_finite("t", t)
    return t, _terms(system, params, t)


def _checked_times(system, params, times):
    """_checked over a non-empty list of times: a float64 array, and terms.

    A list of ints and floats takes one finiteness test over its array.
    Any other list, or one with a bad time, is gated per time, which
    raises what _checked raises for the first bad time.
    """
    if set(map(type, times)) <= {float, int}:
        try:
            t = np.array(times, dtype=float)
            if np.isfinite(t).all():
                return t, _terms(system, params, t)
        except (OverflowError, ParameterError, TimeRangeError):
            pass
    t = np.array([_checked(system, params, v)[0] for v in times])
    return t, _terms(system, params, t)


def _terms(system, params, t):
    """(omega, sign, grow, grow2, c, s) of an oscillator at t, or None.

    t is a float or a float64 array; c and s follow it, and so do grow
    and grow2 unless they are 1.0 at every time.
    """
    kind = system.kind
    oscillator = _OSCILLATORS.get(kind)
    if oscillator is None:
        return None
    if params.x0 != 0.0:
        raise ParameterError(f"{kind.value} solutions are implemented for x0 = 0 only")
    sign, bound, cos, sin, _ = oscillator
    omega = system.shape
    z = omega * t
    if type(z) is float:
        return omega, sign, *_factors(oscillator, z)
    if np.abs(z).max() <= bound:
        return omega, sign, 1.0, 1.0, _mapped(cos, z), _mapped(sin, z)
    return omega, sign, *_per_element(partial(_factors, oscillator), z)


def state_at(system, params, t):
    """Closed-form PacketState of `system` with initial `params` at time t."""
    t, terms = _checked(system, params, t)
    if terms is None:
        return _drifting_state(params, t, system.shape)
    return _oscillator_state(params, t, *terms)


def eval_psi(system, params, x, t):
    """psi(x, t); x may be a scalar or ndarray."""
    return state_at(system, params, t).psi(x)


def total_kinetic(system, params, t):
    """Closed-form kinetic expectation value T(t) = <p**2>_t / 2m."""
    return _kinetic(system, params, *_checked(system, params, t))


def _kinetic(system, params, t, terms):
    """total_kinetic after the input gate (_checked or _checked_times)."""
    mass = params.mass
    if terms is None:
        p_t = params.p0 + system.shape * t
        return (p_t * p_t + 1.0 / (2.0 * params.alpha**2)) / (2.0 * mass)
    omega, _, _, grow2, c, s = terms
    beta = params.beta
    e_pot0 = mass * omega**2 * beta**2 / 4.0
    e_kin0 = (params.p0**2 + params.hbar**2 / (2.0 * beta**2)) / (2.0 * mass)
    return grow2 * (e_kin0 * c * c + e_pot0 * s * s)


def moments_at(system, params, t):
    """Closed-form expectation values at time t."""
    t, terms = _checked(system, params, t)
    kinetic = _kinetic(system, params, t, terms)
    hbar, mass = params.hbar, params.mass
    beta, p0 = params.beta, params.p0
    force = system.shape  # read by the drifting branches only
    if terms is None:
        _, center, width = _drifting_geometry(params, t, force)
    else:
        omega, sign, grow, grow2, c, s = terms
        center, width, *_ = _oscillator_geometry(params, omega, grow, c, s)
    try:
        var_x = width**2 / 2.0
        if terms is None:
            mean_p = p0 + force * t
            var_p = 1.0 / (2.0 * params.alpha**2)
            potential = -force * center
            energy = (p0**2 + var_p) / (2.0 * mass) - force * params.x0
        else:
            mean_p = p0 * grow * c
            var_p = grow2 * ((hbar * hbar / (2.0 * beta * beta)) * c * c
                             + (mass * omega * beta) ** 2 * s * s / 2.0)
            # <V> = sign * mass*omega**2*<x**2>/2 with <x**2> = center**2 + var_x.
            potential = sign * 0.5 * mass * omega**2 * (center**2 + var_x)
            e_kin0 = (p0 * p0 + hbar * hbar / (2.0 * beta * beta)) / (2.0 * mass)
            energy = e_kin0 + sign * mass * omega * omega * beta * beta / 4.0
    except OverflowError:
        # The input gates pass every square of an input, so a derived one
        # overflowed; a drifting packet squares only its width.
        _require_squarable(f"packet width at t = {t!r}", width)
        _require_squarable("mass*omega*beta", mass * terms[0] * beta)
        _require_squarable(f"packet center at t = {t!r}", center)
        raise
    return tuple.__new__(
        Moments, (t, center, var_x, mean_p, var_p, kinetic, potential, energy))


def _spread_window(system, params, t, k):
    """(mean - k*sd, mean, mean + k*sd) of the position at t, sd = sqrt(var_x).

    The one rule behind every window placed relative to the packet.
    """
    m = moments_at(system, params, t)
    half = k * math.sqrt(m.var_x)
    return m.mean_x - half, m.mean_x, m.mean_x + half


def sample_grid(system, params, t, window, n):
    """Evaluate psi on n uniformly spaced points spanning `window`.

    window is an (xmin, xmax) pair with xmin < xmax; n >= 2.
    """
    xmin, xmax = _require_window("window", window)
    count = _require_count("n", n, 2)
    state = state_at(system, params, t)
    xs = np.linspace(xmin, xmax, count)
    psi = state.psi(xs)
    prob = np.abs(psi) ** 2
    return GridResult(t=state.t, xs=xs, psi=psi, prob=prob)
