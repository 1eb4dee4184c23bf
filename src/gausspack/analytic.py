"""Closed-form Gaussian packet states for the four model systems.

Every solution handled here keeps the form

    psi(x, t) = norm * exp(-quad_coeff*(x - center)**2
                           + 1j*(lin_phase*x + const_phase))

with Re(quad_coeff) > 0, so a single PacketState container describes all
four systems and downstream code (densities, energies, grids) never
needs per-system branches.

Numerical care taken here:

* The drifting solutions carry the factor 1/sqrt(1 + i*t/t0); the
  principal branch is used (the argument never leaves the right
  half-plane, so the phase is continuous in t).
* The oscillator solution is often written with separate exponents
  carrying 1/sin(omega*t) poles.  Those exponents are combined
  analytically here into the PacketState form, whose coefficients stay
  finite at all t because the complex envelope A(t) = beta*cos(omega*t)
  + i*(hbar/(mass*omega*beta))*sin(omega*t) never vanishes.  The
  prefactor phase -arg(A)/2 uses the principal branch.
* The inverted oscillator grows like exp(omega_tilde*t); times with
  |omega_tilde*t| > 300 are rejected, and beyond |omega_tilde*t| > 30
  the hyperbolic functions are evaluated with their common exponential
  factor extracted so no intermediate overflows.
"""

import cmath
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, TimeRangeError
from .quantities import SystemKind

__all__ = [
    "PacketState",
    "GridResult",
    "Moments",
    "state_at",
    "eval_psi",
    "probability_density",
    "moments_at",
    "sample_grid",
    "INVERTED_TIME_GUARD",
]

INVERTED_TIME_GUARD = 300.0
_HYPERBOLIC_SPLIT = 30.0
_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class PacketState:
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
        if np.ndim(x) == 0:
            return complex(value)
        return value

    def dpsi_dx(self, x):
        """Closed-form spatial derivative of psi at x."""
        u = np.asarray(x) - self.center
        factor = -2.0 * self.quad_coeff * u + 1j * self.lin_phase
        value = factor * self.psi(x)
        if np.ndim(x) == 0:
            return complex(value)
        return value

    def prob(self, x):
        """Probability density |psi|**2 in closed form."""
        u = (np.asarray(x) - self.center) / self.width
        value = np.exp(-u * u) / (_SQRT_PI * self.width)
        if np.ndim(x) == 0:
            return float(value)
        return value


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


@dataclass(frozen=True)
class Moments:
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


def _scaled_hyperbolics(z):
    """Return (scale, c, s) with cosh(z) = e**scale * c, sinh(z) = e**scale * s.

    For |z| <= 30 the plain library functions are used (scale = 0);
    beyond that the dominant exponential is factored out so that
    products of several hyperbolic factors cannot overflow prematurely.
    """
    if abs(z) <= _HYPERBOLIC_SPLIT:
        return 0.0, math.cosh(z), math.sinh(z)
    damp = math.exp(-2.0 * abs(z))
    c = 0.5 * (1.0 + damp)
    s = 0.5 * (1.0 - damp)
    if z < 0:
        s = -s
    return abs(z), c, s


def _drifting_state(params, t, force):
    """Free and uniformly accelerated packets share one solution family."""
    hbar = params.hbar
    mass = params.mass
    beta = params.beta
    t0 = params.t0
    p0 = params.p0
    x0 = params.x0

    z = complex(1.0, t / t0)
    abs_z = abs(z)
    width = beta * abs_z
    center = x0 + p0 * t / mass + force * t * t / (2.0 * mass)
    p_t = p0 + force * t

    quad = 1.0 / (2.0 * beta * beta * z)
    lin = p_t / hbar
    const = (
        force * t * (x0 - force * t * t / (6.0 * mass))
        - p_t * (x0 + p0 * t / (2.0 * mass))
    ) / hbar - 0.5 * math.atan2(t / t0, 1.0)
    norm = 1.0 / math.sqrt(_SQRT_PI * width)
    return PacketState(
        t=t, center=center, width=width, quad_coeff=quad,
        lin_phase=lin, const_phase=const, norm=norm,
    )


def _harmonic_state(params, omega, t):
    hbar = params.hbar
    mass = params.mass
    beta = params.beta
    p0 = params.p0

    c = math.cos(omega * t)
    s = math.sin(omega * t)
    gamma = hbar / (mass * omega * beta)
    envelope = complex(beta * c, gamma * s)
    width = abs(envelope)
    center = p0 * s / (mass * omega)

    quad = complex(
        1.0 / (2.0 * width * width),
        mass * omega * (beta * beta - gamma * gamma) * s * c
        / (2.0 * hbar * width * width),
    )
    lin = p0 * c / hbar
    const = -p0 * center * c / (2.0 * hbar) - 0.5 * cmath.phase(envelope)
    norm = 1.0 / math.sqrt(_SQRT_PI * width)
    return PacketState(
        t=t, center=center, width=width, quad_coeff=quad,
        lin_phase=lin, const_phase=const, norm=norm,
    )


def _inverted_state(params, omega_tilde, t):
    if abs(omega_tilde * t) > INVERTED_TIME_GUARD:
        raise TimeRangeError(
            f"|omega_tilde*t| = {abs(omega_tilde * t):g} exceeds the supported "
            f"range {INVERTED_TIME_GUARD:g}"
        )
    hbar = params.hbar
    mass = params.mass
    beta = params.beta
    p0 = params.p0

    scale, c, s = _scaled_hyperbolics(omega_tilde * t)
    grow = math.exp(scale)
    gamma = hbar / (mass * omega_tilde * beta)
    envelope = complex(beta * c, gamma * s)
    abs_env = abs(envelope)
    width = grow * abs_env
    center = p0 * grow * s / (mass * omega_tilde)

    quad = complex(
        1.0 / (2.0 * width * width),
        -mass * omega_tilde * (beta * beta + gamma * gamma) * s * c
        / (2.0 * hbar * abs_env * abs_env),
    )
    lin = p0 * grow * c / hbar
    const = -p0 * center * grow * c / (2.0 * hbar) - 0.5 * cmath.phase(envelope)
    norm = 1.0 / math.sqrt(_SQRT_PI * width)
    return PacketState(
        t=t, center=center, width=width, quad_coeff=quad,
        lin_phase=lin, const_phase=const, norm=norm,
    )


def _check_centered(system, params):
    if params.x0 != 0.0:
        raise ParameterError(
            f"{system.kind.value} solutions are implemented for x0 = 0 only"
        )


def state_at(system, params, t):
    """Closed-form PacketState of `system` with initial `params` at time t."""
    t = _as_time(t)
    kind = system.kind
    if kind is SystemKind.FREE:
        return _drifting_state(params, t, 0.0)
    if kind is SystemKind.UNIFORM_ACCELERATION:
        return _drifting_state(params, t, system.force)
    if kind is SystemKind.HARMONIC:
        _check_centered(system, params)
        return _harmonic_state(params, system.omega, t)
    if kind is SystemKind.INVERTED:
        _check_centered(system, params)
        return _inverted_state(params, system.omega_tilde, t)
    raise ParameterError(f"unknown system kind {kind!r}")  # pragma: no cover


def _as_time(t):
    """t as a finite float; any real number but a bool is accepted."""
    if type(t) is not float:
        if isinstance(t, bool) or not isinstance(t, numbers.Real):
            raise ParameterError(f"t must be a finite number, got {t!r}")
        t = float(t)
    if not math.isfinite(t):
        raise ParameterError(f"t must be a finite number, got {t!r}")
    return t


def eval_psi(system, params, x, t):
    """psi(x, t); x may be a scalar or ndarray."""
    return state_at(system, params, t).psi(x)


def probability_density(system, params, x, t):
    """|psi(x, t)|**2 in closed form; x may be a scalar or ndarray."""
    return state_at(system, params, t).prob(x)


def moments_at(system, params, t):
    """Closed-form expectation values at time t."""
    t = _as_time(t)
    hbar = params.hbar
    mass = params.mass
    kind = system.kind

    if kind in (SystemKind.FREE, SystemKind.UNIFORM_ACCELERATION):
        force = 0.0 if kind is SystemKind.FREE else system.force
        state = _drifting_state(params, t, force)
        p_t = params.p0 + force * t
        var_p = 1.0 / (2.0 * params.alpha**2)
        kinetic = (p_t * p_t + var_p) / (2.0 * mass)
        potential = -force * state.center
        energy = (params.p0**2 + var_p) / (2.0 * mass) - force * params.x0
        return Moments(
            t=t, mean_x=state.center, var_x=state.width**2 / 2.0,
            mean_p=p_t, var_p=var_p, kinetic=kinetic,
            potential=potential, energy=energy,
        )

    if kind is SystemKind.HARMONIC:
        _check_centered(system, params)
        omega = system.omega
        beta = params.beta
        p0 = params.p0
        state = _harmonic_state(params, omega, t)
        c = math.cos(omega * t)
        s = math.sin(omega * t)
        e_kin0 = (p0 * p0 + hbar * hbar / (2.0 * beta * beta)) / (2.0 * mass)
        e_pot0 = mass * omega * omega * beta * beta / 4.0
        kinetic = e_kin0 * c * c + e_pot0 * s * s
        potential = e_kin0 * s * s + e_pot0 * c * c
        var_p = (hbar * hbar / (2.0 * beta * beta)) * c * c \
            + (mass * omega * beta) ** 2 * s * s / 2.0
        return Moments(
            t=t, mean_x=state.center, var_x=state.width**2 / 2.0,
            mean_p=p0 * c, var_p=var_p, kinetic=kinetic,
            potential=potential, energy=e_kin0 + e_pot0,
        )

    if kind is SystemKind.INVERTED:
        _check_centered(system, params)
        omega_tilde = system.omega_tilde
        beta = params.beta
        p0 = params.p0
        state = _inverted_state(params, omega_tilde, t)
        scale, c, s = _scaled_hyperbolics(omega_tilde * t)
        grow = math.exp(scale)
        grow2 = grow * grow
        e_kin0 = (p0 * p0 + hbar * hbar / (2.0 * beta * beta)) / (2.0 * mass)
        e_pot0 = mass * omega_tilde * omega_tilde * beta * beta / 4.0
        kinetic = grow2 * (e_kin0 * c * c + e_pot0 * s * s)
        potential = -0.5 * mass * omega_tilde**2 * (
            state.center**2 + state.width**2 / 2.0
        )
        var_p = grow2 * (
            (hbar * hbar / (2.0 * beta * beta)) * c * c
            + (mass * omega_tilde * beta) ** 2 * s * s / 2.0
        )
        return Moments(
            t=t, mean_x=state.center, var_x=state.width**2 / 2.0,
            mean_p=p0 * grow * c, var_p=var_p, kinetic=kinetic,
            potential=potential, energy=e_kin0 - e_pot0,
        )

    raise ParameterError(f"unknown system kind {kind!r}")  # pragma: no cover


def _thread_count():
    import os

    raw = os.environ.get("GAUSSPACK_THREADS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ParameterError(f"GAUSSPACK_THREADS must be an integer, got {raw!r}")
    return max(1, n)


def sample_grid(system, params, t, window, n):
    """Evaluate psi on n uniformly spaced points spanning `window`.

    window is an (xmin, xmax) pair with xmin < xmax; n >= 2.  Evaluation
    may be chunked over GAUSSPACK_THREADS worker threads; the result is
    bitwise identical for any thread count because every point is
    evaluated by the same elementwise operations.
    """
    xmin, xmax = float(window[0]), float(window[1])
    if not (math.isfinite(xmin) and math.isfinite(xmax) and xmin < xmax):
        raise ParameterError(f"window must satisfy xmin < xmax, got {window!r}")
    if not (isinstance(n, int) and n >= 2):
        raise ParameterError(f"n must be an integer >= 2, got {n!r}")

    state = state_at(system, params, t)
    xs = np.linspace(xmin, xmax, n)
    threads = _thread_count()
    if threads == 1 or n < 4 * threads:
        psi = state.psi(xs)
    else:
        from concurrent.futures import ThreadPoolExecutor

        chunks = np.array_split(xs, threads)
        with ThreadPoolExecutor(max_workers=threads) as pool:
            parts = list(pool.map(state.psi, chunks))
        psi = np.concatenate(parts)
    prob = np.abs(psi) ** 2
    return GridResult(t=t, xs=xs, psi=psi, prob=prob)
