"""Independent numerical machinery used to cross-check the closed forms.

Nothing in this module looks at the analytic solutions beyond their
parameter bundles and sampled values of psi: integrals are done by
adaptive quadrature or by sums on a periodic grid, second derivatives by
fourth-order finite differences, momentum-space amplitudes by FFT with
explicit phase bookkeeping, and time evolution by a symmetric split-step
propagator.  The periodic-grid checks and the propagator share np.fft;
quadrature is QUADPACK's Gauss-Kronrod rule, written out here, so the
module needs numpy alone.  Agreement between these routines and the
closed-form expressions is the package's primary correctness evidence.

Parameters
----------
Quadrature follows a QuadratureSpec of tolerances and a subdivision
budget.  It is global adaptive, as QUADPACK's QAG (R. Piessens, E. de
Doncker-Kapenga, C. W. Ueberhuber and D. K. Kahaner, QUADPACK, Springer
1983): the subinterval with the largest error estimate is bisected until
the summed estimate meets the tolerance.  Each subinterval gets the
21-point Kronrod estimate, and dqk21's error estimate from its distance
to the embedded 10-point Gauss estimate.  The windows are finite and
fixed at twelve position spreads on each side of the packet center,
where the density has fallen to e**-72 of its peak, far below any
tolerance.  Splitting an integral at the packet center is done by
integrating the two half windows separately so the split point is a
quadrature endpoint.

The split-step propagator is built on the Strang step: a half
potential phase, a full kinetic phase applied in momentum space, and a
second half potential phase.  PropagatorSpec.order selects the scheme:
order 2 is one Strang step per time step (global error O(dt**2)); order
4 is Yoshida's triple jump, three Strang substeps of weights w1, 1-2*w1,
w1 with w1 = 1/(2 - 2**(1/3)) (global error O(dt**4)).  Both are exactly
unitary apart from rounding, and the boundary monitor runs after every
full step of either.
"""

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .analytic import _spread_window, state_at
from .errors import AccuracyError, BoundaryError, ParameterError, ResolutionError
from .quantities import (
    PhysicalConstants,
    SystemKind,
    SystemSpec,
    _as_int,
    _require_count,
    _require_finite,
    _require_positive,
    _require_window,
    _store_checked,
)

__all__ = [
    "QuadratureSpec",
    "PropagatorSpec",
    "IntegralResult",
    "integrate",
    "packet_window",
    "half_windows",
    "fd_second_derivative",
    "momentum_transform",
    "potential_on_grid",
    "propagate",
]


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and subdivision budget for adaptive quadrature."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_subdivisions: int = 200

    def __post_init__(self):
        _store_checked(self, "rel_tol", _require_positive)
        _store_checked(self, "abs_tol", _require_positive)
        object.__setattr__(self, "max_subdivisions",
                           _require_count("max_subdivisions", self.max_subdivisions, 10))


class IntegralResult(NamedTuple):
    value: float
    error: float


# QUADPACK's 10/21-point Gauss-Kronrod rule on [-1, 1] (dqk21): the ten
# positive Kronrod nodes in descending order, every second one also a node of
# the 10-point Gauss rule; the Kronrod weights, the centre's last; and the
# Gauss weights of the nodes _KRONROD_X[1::2].
_KRONROD_X = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
)
_KRONROD_W = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
    0.149445554002916905664936468389821,
)
_GAUSS_W = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338,
)
_EPS = sys.float_info.epsilon
_TINY = sys.float_info.min


def _kronrod(f, lo, hi):
    """(integral, error estimate) of f over (lo, hi) by the 21-point rule.

    f is sampled and summed in dqk21's order.  The error estimate is
    dqk21's: |Kronrod - Gauss| rescaled by the mean deviation of f,
    resasc * min(1, (200*|K - G|/resasc)**1.5), and kept above the
    round-off floor 50*eps*(integral of |f|).
    """
    center, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    fc = float(f(center))
    kronrod, gauss = _KRONROD_W[10] * fc, 0.0
    resabs = abs(kronrod)
    pairs = [None] * 10
    # The Gauss nodes first, then the Kronrod nodes between them.
    for j in (1, 3, 5, 7, 9, 0, 2, 4, 6, 8):
        step = half * _KRONROD_X[j]
        f1, f2 = float(f(center - step)), float(f(center + step))
        pairs[j] = f1, f2
        kronrod += _KRONROD_W[j] * (f1 + f2)
        resabs += _KRONROD_W[j] * (abs(f1) + abs(f2))
        if j % 2:
            gauss += _GAUSS_W[j // 2] * (f1 + f2)
    mean = 0.5 * kronrod
    resasc = _KRONROD_W[10] * abs(fc - mean)
    for w, (f1, f2) in zip(_KRONROD_W, pairs):
        resasc += w * (abs(f1 - mean) + abs(f2 - mean))
    resabs, resasc = resabs * half, resasc * half
    error = abs((kronrod - gauss) * half)
    if resasc != 0.0 and error != 0.0:
        # min before the power, which would overflow for a tiny resasc.
        error = resasc * min(1.0, 200.0 * error / resasc) ** 1.5
    if resabs > _TINY / (50.0 * _EPS):
        error = max(50.0 * _EPS * resabs, error)
    return kronrod * half, error


def integrate(f: Callable[[float], float], window, spec=QuadratureSpec()):
    """Adaptively integrate f over window = (lo, hi).

    f is called with one float at a time.  Returns an IntegralResult
    carrying the achieved error estimate.  Raises AccuracyError (with the
    best estimate attached) when the subdivision budget is exhausted
    before the tolerances are met, or when f or an estimate is not finite.
    """
    lo, hi = _require_window("window", window)
    value, error = _kronrod(f, lo, hi)
    best = value, error
    # A heap of (-error estimate, lo, hi, integral): the worst piece first.
    pieces = [(-error, lo, hi, value)]
    while True:
        # A non-finite sample makes the Kronrod sum, and so value, non-finite.
        if not (math.isfinite(value) and math.isfinite(error)):
            raise AccuracyError(
                "quadrature met a non-finite value of the integrand or of an estimate",
                best_estimate=best[0], error_estimate=best[1],
            )
        best = value, error
        if error <= max(spec.abs_tol, spec.rel_tol * abs(value)):
            return IntegralResult(value=math.fsum(p[3] for p in pieces), error=error)
        if len(pieces) >= spec.max_subdivisions:
            raise AccuracyError(
                f"quadrature did not converge in {len(pieces)} subintervals",
                best_estimate=value, error_estimate=error,
            )
        worst, a, b, piece = heapq.heappop(pieces)
        value, error = value - piece, error + worst
        mid = 0.5 * (a + b)
        for left, right in ((a, mid), (mid, b)):
            part, part_error = _kronrod(f, left, right)
            heapq.heappush(pieces, (-part_error, left, right, part))
            value, error = value + part, error + part_error


# Half-width of the quadrature windows, in position spreads.
_WINDOW_SIGMAS = 12.0


def packet_window(system, params, t):
    """Finite window centered on the packet, twelve spreads per side."""
    lo, _, hi = _spread_window(system, params, t, _WINDOW_SIGMAS)
    return lo, hi


def half_windows(system, params, t):
    """The packet window split at the packet center (two windows)."""
    lo, mean, hi = _spread_window(system, params, t, _WINDOW_SIGMAS)
    return (lo, mean), (mean, hi)


def fd_second_derivative(psi, x, t, h=1e-3):
    """Fourth-order central difference of the second x-derivative."""
    h = _require_positive("h", h)
    return (
        -psi(x + 2.0 * h, t)
        + 16.0 * psi(x + h, t)
        - 30.0 * psi(x, t)
        + 16.0 * psi(x - h, t)
        - psi(x - 2.0 * h, t)
    ) / (12.0 * h * h)


_ALIAS_RATIO = 1e-12


def momentum_transform(xs, psi, hbar=1.0):
    """Momentum amplitude phi(p) = (2*pi*hbar)**-0.5 * Int exp(-i p x/hbar) psi dx.

    xs must be uniform, psi finite and hbar positive; returns (ps, phi)
    with ps ascending.  If the spectral amplitude has not decayed at the
    edge of the resolvable momentum window the sampling is too coarse and
    a ResolutionError is raised.
    """
    hbar = _require_positive("hbar", hbar)
    xs = np.asarray(xs, dtype=float)
    psi = np.asarray(psi, dtype=complex)
    if xs.ndim != 1 or xs.size < 4 or psi.shape != xs.shape:
        raise ParameterError("xs and psi must be matching 1-d arrays")
    if not np.isfinite(psi).all():
        raise ParameterError("psi must be finite")
    dx = xs[1] - xs[0]
    if not np.allclose(np.diff(xs), dx, rtol=1e-12, atol=0.0):
        raise ParameterError("grid must be uniformly spaced")
    ps = np.fft.fftshift(2.0 * math.pi * hbar * np.fft.fftfreq(xs.size, d=dx))
    phase = np.exp(-1j * ps * (xs[0] / hbar))  # the grid starts at xs[0], not 0
    phi = (dx / math.sqrt(2.0 * math.pi * hbar)) * phase * np.fft.fftshift(np.fft.fft(psi))
    peak = float(np.max(np.abs(phi)))
    tail = float(max(abs(phi[0]), abs(phi[-1])))
    if peak > 0.0 and tail > _ALIAS_RATIO * peak:
        raise ResolutionError(
            f"spectral tail {tail:.3e} exceeds {_ALIAS_RATIO:g} of peak "
            f"{peak:.3e}; refine the spatial grid"
        )
    return ps, phi


def _periodic_grid(lo, hi, n):
    """n points spaced (hi - lo)/n from lo, hi excluded: one period of a grid."""
    return lo + (hi - lo) * np.arange(n) / n


def _packet_grid(system, params, t, n):
    """(xs, psi, dx): psi at t on n periodic points over packet_window.

    psi is e**-36 of its peak at the edges, so grid sums converge
    exponentially in n; a grid too coarse for psi's spectrum fails
    momentum_transform's tail test with a ResolutionError.
    """
    lo, hi = packet_window(system, params, t)
    xs = _periodic_grid(lo, hi, n)
    psi = state_at(system, params, t).psi(xs)
    momentum_transform(xs, psi, params.hbar)
    return xs, psi, (hi - lo) / n


def _upper_half_integral(f, xs, dx, split):
    """Integral over [split, xs[0] + n*dx) of f's trigonometric interpolant.

    With D = fft(f)/n, wavenumbers k and s = split - xs[0] it is exactly
    D_0*(n*dx - s) + sum over k != 0 of D_k*(1 - exp(i*k*s))/(i*k).  n is
    even; the Nyquist mode, whose interpolant is not unique, is dropped.
    """
    n, s = len(xs), split - xs[0]
    coeffs = np.fft.fft(f) / n
    coeffs[n // 2] = 0.0
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=dx)[1:]  # k = 0 is the D_0 term
    tail = np.sum(coeffs[1:] * (1.0 - np.exp(1j * k * s)) / (1j * k))
    return float((coeffs[0] * (n * dx - s) + tail).real)


# Yoshida's triple-jump weights: three Strang substeps of w1*dt, w0*dt,
# w1*dt cancel the dt**3 error term of one Strang step.
_YOSHIDA_W1 = 1.0 / (2.0 - 2.0 ** (1.0 / 3.0))
_STEP_WEIGHTS = {2: (1.0,), 4: (_YOSHIDA_W1, 1.0 - 2.0 * _YOSHIDA_W1, _YOSHIDA_W1)}


@dataclass(frozen=True)
class PropagatorSpec:
    """Grid, step, scheme order and potential for split-step propagation.

    order is 2 (Strang) or 4 (Yoshida's triple jump of Strang steps).
    """

    system: SystemSpec
    constants: PhysicalConstants
    domain: tuple
    dt: float
    n_grid: int = 4096
    order: int = 2

    def __post_init__(self):
        object.__setattr__(self, "domain", _require_window("domain", self.domain))
        _store_checked(self, "dt", _require_positive)
        n = _require_count("n_grid", self.n_grid, 16)
        if n & (n - 1):
            raise ParameterError(f"n_grid must be a power of two, got {n}")
        object.__setattr__(self, "n_grid", n)
        order = _as_int(self.order)
        if order not in _STEP_WEIGHTS:
            raise ParameterError("order must be the integer 2 or 4")
        object.__setattr__(self, "order", order)

    def grid(self):
        """Periodic spatial grid (endpoint excluded)."""
        return _periodic_grid(*self.domain, self.n_grid)


def potential_on_grid(system, constants, xs):
    """The potential energy of `system` sampled on xs."""
    kind = system.kind
    xs = np.asarray(xs, dtype=float)
    if kind is SystemKind.FREE:
        return np.zeros_like(xs)
    if kind is SystemKind.UNIFORM_ACCELERATION:
        return -system.force * xs
    half = 0.5 if kind is SystemKind.HARMONIC else -0.5
    return half * constants.mass * system.shape**2 * xs * xs  # shape: omega or omega_tilde


def propagate(psi0, spec, t_final):
    """Split-step evolution of psi0 (sampled on spec.grid()) to t_final.

    Each step is one Strang step (spec.order 2) or Yoshida's triple jump
    of three Strang substeps (spec.order 4).  The step count is chosen so
    an integer number of steps of size as close as possible to spec.dt
    lands exactly on t_final.  psi0 must be finite and not all zero.  The
    packet's mean and spread are monitored after every full step; if the
    mean comes within four standard deviations of a domain edge, or either
    is NaN, the run aborts with a BoundaryError, since the periodic grid
    would fold the leaked amplitude back in silently.
    """
    psi = np.asarray(psi0, dtype=complex).copy()
    if psi.shape != (spec.n_grid,):
        raise ParameterError(
            f"psi0 must have shape ({spec.n_grid},), got {psi.shape}"
        )
    if not (np.isfinite(psi).all() and psi.any()):
        raise ParameterError("psi0 must be finite and not all zero")
    t_final = _require_finite("t_final", t_final)
    if not t_final >= 0:
        raise ParameterError("t_final must be a finite non-negative number")
    if t_final == 0.0:
        return psi

    hbar = spec.constants.hbar
    mass = spec.constants.mass
    lo, hi = spec.domain
    xs = spec.grid()
    dx = xs[1] - xs[0]

    n_steps = max(1, round(t_final / spec.dt))
    dt = t_final / n_steps

    v = potential_on_grid(spec.system, spec.constants, xs)
    p = 2.0 * math.pi * hbar * np.fft.fftfreq(spec.n_grid, d=dx)
    weights = _STEP_WEIGHTS[spec.order]
    # Substep k opens with the half potential phases of substeps k-1 and k
    # fused; the step closes with the last substep's half phase.
    opening = (0.0,) + weights[:-1]
    stages = [
        (np.exp(-0.5j * v * ((w_prev + w) * dt) / hbar),
         np.exp(-0.5j * p * p * (w * dt) / (mass * hbar)))
        for w_prev, w in zip(opening, weights)
    ]
    closing_v_phase = np.exp(-0.5j * v * (weights[-1] * dt) / hbar)

    # Rows 1, x, x**2 against |psi|**2 laid out as interleaved re**2, im**2.
    moment_rows = np.repeat(np.stack([np.ones_like(xs), xs, xs * xs]), 2, axis=1)
    squares = np.empty(2 * spec.n_grid)

    for _ in range(n_steps):
        for v_phase, kinetic_phase in stages:
            psi *= v_phase
            np.fft.fft(psi, out=psi)
            # kinetic_phase * psi, not psi * kinetic_phase: complex multiply
            # is not bitwise commutative, and the Strang bits are pinned.
            np.multiply(kinetic_phase, psi, out=psi)
            np.fft.ifft(psi, out=psi)
        psi *= closing_v_phase

        np.square(psi.view(float), out=squares)
        total, first, second = moment_rows @ squares
        mean = float(first / total)
        var = float(second / total) - mean * mean
        sd = math.sqrt(max(var, 0.0))
        # Written so that a NaN mean or spread fails the test too.
        if not (lo < mean - 4.0 * sd and mean + 4.0 * sd < hi):
            raise BoundaryError(
                f"packet reached within four standard deviations of the domain "
                f"edge (mean {mean:.3g}, sd {sd:.3g}, domain [{lo:g}, {hi:g}])"
            )
    return psi
