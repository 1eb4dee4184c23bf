"""Closed-form Gaussian packet states for the four model systems.

Every solution handled here keeps the form

    psi(x, t) = norm * exp(-quad_coeff*(x - center)**2
                           + 1j*(lin_phase*x + const_phase))

with Re(quad_coeff) > 0, so a single PacketState container describes all
four systems and downstream code (densities, energies, grids) never
needs per-system branches.  All four Hamiltonians are quadratic in x and
p, so the packet stays Gaussian and the classical flow M(t) = [[A, B],
[C, D]] fixes it (Heller 1975; Littlejohn 1986): with q = hbar/beta**2,
Z = A + i*q*B and P = C + i*q*D,

    width = beta*|Z|,   Re a = 1/(2 width**2),   Im a = -Re(P conj Z)/(2 hbar |Z|**2),
    l = p_t/hbar,       const = (F*int x dt - p_t*x_t - p0*x0)/(2 hbar) - arg(Z)/2,
    T = (p_t**2 + beta**2 |P|**2/2)/2m.

M(t) is the only per-system input: _flow gives the classical path and
the momentum row beta*P, _envelope the position row beta*Z.  The formulas
take beta*Z and beta*P, so q, which overflows for a subnormal beta**2,
is never formed, and Re(P conj Z)/|Z| is formed from Z/|Z| (_shear), so
it stays finite where |Z| does not.  docs/energy_split.md derives them.

Numerical care taken here:

* Re a comes from the width, never from P/Z: Im(P conj Z) = q*det M is a
  difference of numbers of order e**(2|omega_tilde*t|) for the inverted
  oscillator.
* arg(Z) is continued in t: the harmonic Z winds once around 0 per
  period, so psi at one period is -psi at t = 0 (the Maslov phase).
* The inverted oscillator grows like exp(omega_tilde*t); times with
  |omega_tilde*t| > 300 are rejected, and beyond |omega_tilde*t| > 30
  the common factor e**|omega_tilde*t| is taken out of M(t) as grow, so
  no product of its entries overflows.
"""

import math
from dataclasses import dataclass
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


def _mapped(fn, *args):
    """fn over float64 arrays of one length, a float argument repeated: a float64 array.

    Every transcendental of the closed forms comes from the math module,
    elementwise also over an array of times: numpy's hypot, cos and cosh
    round differently, while +, -, * and / on float64 arrays round as on
    floats.  So the array path gives the scalar path's bits.
    """
    columns = [repeat(arg) if type(arg) is float else arg.tolist() for arg in args]
    return np.fromiter(map(fn, *columns), float)


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
# not listed is drifting): up to |z| = bound the plain functions, at one
# time or mapped over an array; beyond it a rule of its own, at one time
# only.  The inverted oscillator is the harmonic one continued to
# omega -> i*omega_tilde: cos and sin become cosh and sinh, and omega**2
# changes sign.  grow = grow2 = 1.0 while |z| <= bound make exact products.
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


def _flow(system, params, t, terms):
    """The classical path at t and the momentum row of the flow M(t).

    M(t) = [[A, B], [C, D]] carries (x0, p0) to (x_t, p_t), plus the
    drift of a uniform force.  Returns (grow, grow2, x_t, p_t, work,
    beta*C, (hbar/beta)*D), with x_t, p_t and the row divided by grow and
    work = F * (integral of x_t over [0, t]).  hbar/beta is taken as
    1/alpha.  An oscillator whose beta*C = mass*omega*beta*s has no float
    square at s = 1 is refused here: T squares it.
    """
    p0, mass = params.p0, params.mass
    if terms is None:  # M = [[1, t/m], [0, 1]]
        force, x0 = system.shape, params.x0
        return (1.0, 1.0, x0 + p0 * t / mass + force * t * t / (2.0 * mass), p0 + force * t,
                force * t * (x0 + p0 * t / (2.0 * mass) + force * t * t / (6.0 * mass)),
                0.0, 1.0 / params.alpha)
    # M = [[c, s/(m*omega)], [-sign*m*omega*s, c]]; the oscillators start at x0 = 0.
    omega, sign, grow, grow2, c, s = terms
    stiffness = mass * omega * params.beta
    if not stiffness * stiffness < math.inf:
        _require_squarable("mass*omega*beta", stiffness)
    return grow, grow2, p0 * s / (mass * omega), p0 * c, 0.0, -sign * stiffness * s, c / params.alpha


def _envelope(system, params, t, terms):
    """The position row of M(t) as the complex envelope beta*Z, and its turn.

    Returns (scale, z_re, z_im, turn) with beta*Z = scale*(z_re + i*z_im),
    divided by grow: |beta*Z| is the width and arg(Z) the prefactor's
    phase.  The drifting systems keep Z = 1 + i*t/t0 with scale beta, and
    the oscillators beta*Z = beta*c + i*gamma*s with scale 1.0, so no
    entry leaves the float range before the width does.  turn is omega*t
    for the harmonic oscillator, whose Z winds once around 0 per period,
    and 0.0 for the others, whose Z stays in the right half-plane.  Apart
    from _flow, because T reads only the momentum row, while this row takes
    gamma = hbar/(mass*omega*beta) through its gate.
    """
    if terms is None:  # q*t/m = t/t0
        return params.beta, 1.0, t / params.t0, 0.0
    omega, sign, _, _, c, s = terms  # (hbar/beta)*s/(m*omega) = gamma*s
    return 1.0, params.beta * c, _gamma(params, omega) * s, omega * t if sign > 0 else 0.0


def _shear(beta_c, d_over_alpha, z_re, z_im, abs_z):
    """Re(beta*P conj(beta*Z))/|beta*Z| from the rows of _flow and _envelope.

    Z/|Z| is taken first, so no product overflows before the ratio does.
    """
    return beta_c * (z_re / abs_z) + d_over_alpha * (z_im / abs_z)


def _kinetic(mass, grow2, p_t, beta_c, d_over_alpha):
    """T = grow2*(p_t**2 + |beta*P|**2/2)/2m from _flow's fields."""
    return grow2 * ((p_t * p_t + (beta_c * beta_c + d_over_alpha * d_over_alpha) / 2.0)
                    / (2.0 * mass))


def _mean_potential(system, params, center, var_x):
    """<V> of a packet with mean center and variance var_x, from the potential."""
    oscillator = _OSCILLATORS.get(system.kind)
    if oscillator is None:  # V = -F*x; the free particle's F is 0.0
        return -system.shape * center
    # V = sign*m*omega**2*x**2/2, and <x**2> = center**2 + var_x
    return oscillator[0] * 0.5 * params.mass * system.shape**2 * (center**2 + var_x)


def _checked(system, params, t):
    """(t as a float, oscillator terms or None for a drifting system).

    The one input gate of the closed forms: a finite real t, and x0 = 0
    for the oscillators, whose solutions are implemented for that start.
    """
    t = _require_finite("t", t)
    return t, _terms(system, params, t)


def _checked_times(system, params, times):
    """(a float64 array, terms) for a non-empty list of times, or None.

    The one-array gate: ints, floats and np.float64s, all finite and, for
    an oscillator, with every |omega*t| within its bound.  Any other list
    gives None, and the caller evaluates it per time.
    """
    if not set(map(type, times)) <= {float, int, np.float64}:
        return None
    try:
        t = np.array(times, dtype=float)
    except OverflowError:  # an int beyond the float range
        return None
    oscillator = _OSCILLATORS.get(system.kind)
    if not (np.isfinite(t).all() if oscillator is None
            else np.abs(system.shape * t).max() <= oscillator[1]):
        return None
    return t, _terms(system, params, t)


def _terms(system, params, t):
    """(omega, sign, grow, grow2, c, s) of an oscillator at t, or None.

    t is a float, or a float64 array that _checked_times passed, over
    which c and s are mapped and grow = grow2 = 1.0.
    """
    kind = system.kind
    oscillator = _OSCILLATORS.get(kind)
    if oscillator is None:
        return None
    if params.x0 != 0.0:
        raise ParameterError(f"{kind.value} solutions are implemented for x0 = 0 only")
    sign, bound, cos, sin, beyond = oscillator
    omega = system.shape
    z = omega * t
    if type(z) is not float:
        return omega, sign, 1.0, 1.0, _mapped(cos, z), _mapped(sin, z)
    if abs(z) <= bound:
        return omega, sign, 1.0, 1.0, cos(z), sin(z)
    return omega, sign, *beyond(z)


def state_at(system, params, t):
    """Closed-form PacketState of `system` with initial `params` at time t."""
    t, terms = _checked(system, params, t)
    grow, _, x_t, p_t, work, beta_c, d_over_alpha = _flow(system, params, t, terms)
    scale, z_re, z_im, turn = _envelope(system, params, t, terms)
    hbar = params.hbar
    abs_z = math.hypot(z_re, z_im)
    envelope = scale * abs_z
    chirp_scale = 2.0 * hbar * envelope
    if chirp_scale == 0.0:  # a tiny hbar times a tiny |beta*Z|
        raise ParameterError(
            f"2*hbar*|beta*Z| underflows to 0 (hbar = {hbar!r}, |beta*Z| = {envelope!r})")
    center, p_t, width = grow * x_t, grow * p_t, grow * envelope
    # math.atan2 rounds a phase that underflows to 0; cmath.phase raises there.
    arg = math.atan2(z_im, z_re)
    const = (work - p_t * center - params.p0 * params.x0) / (2.0 * hbar) - 0.5 * arg
    # arg(Z) continued in t, by the turns of the flow
    if turn and round((turn - arg) / (2.0 * math.pi)) % 2:
        const -= math.pi
    quad = complex(1.0 / (2.0 * width * width),
                   -_shear(beta_c, d_over_alpha, z_re, z_im, abs_z) / chirp_scale)
    norm = 1.0 / math.sqrt(_SQRT_PI * width)
    return tuple.__new__(PacketState, (t, center, width, quad, p_t / hbar, const, norm))


def eval_psi(system, params, x, t):
    """psi(x, t); x may be a scalar or ndarray."""
    return state_at(system, params, t).psi(x)


def total_kinetic(system, params, t):
    """Closed-form kinetic expectation value T(t) = <p**2>_t / 2m."""
    t, terms = _checked(system, params, t)
    _, grow2, _, p_t, _, beta_c, d_over_alpha = _flow(system, params, t, terms)
    return _kinetic(params.mass, grow2, p_t, beta_c, d_over_alpha)


def moments_at(system, params, t):
    """Closed-form expectation values at time t.

    energy is T(0) + <V>(0): at t = 0, M = 1, so p_t = p0, beta*P = i/alpha,
    the centre is x0 and the variance beta**2/2.
    """
    t, terms = _checked(system, params, t)
    grow, grow2, x_t, p_t, _, beta_c, d_over_alpha = _flow(system, params, t, terms)
    scale, z_re, z_im, _ = _envelope(system, params, t, terms)
    center, width = grow * x_t, grow * (scale * math.hypot(z_re, z_im))
    mass, p0 = params.mass, params.p0
    try:
        var_x = width**2 / 2.0
        potential = _mean_potential(system, params, center, var_x)
    except OverflowError:
        # The input gates pass every square of an input, so a derived one
        # overflowed.
        _require_squarable(f"packet width at t = {t!r}", width)
        _require_squarable(f"packet center at t = {t!r}", center)
        raise
    energy = (_kinetic(mass, 1.0, p0, 0.0, 1.0 / params.alpha)
              + _mean_potential(system, params, params.x0, params.beta**2 / 2.0))
    var_p = grow2 * ((beta_c * beta_c + d_over_alpha * d_over_alpha) / 2.0)
    return tuple.__new__(Moments, (
        t, center, var_x, grow * p_t, var_p,
        _kinetic(mass, grow2, p_t, beta_c, d_over_alpha), potential, energy))


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
