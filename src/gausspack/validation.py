"""Analytic-versus-oracle check suite.

Each check compares a closed-form quantity against an independent
numerical estimate and records both values plus absolute and relative
errors.  Every check samples psi on one periodic packet grid,
oracle._packet_grid, where grid sums and FFTs are exact up to
rounding; a grid too coarse for psi fails its spectral tail test with
a ResolutionError instead of giving a number.  The default suite
covers, for each of the four systems:

* ``normalization-*`` — the grid sum of |psi|**2 dx is 1;
* ``ibp-*`` — the second-derivative form -(hbar^2/2m) sum psi* psi'' dx
  (psi'' by FFT) matches the closed-form total kinetic energy, i.e. the
  integration-by-parts identity holds;
* ``halves-*`` — the exact integral of the kinetic energy density's
  trigonometric interpolant above the packet center matches T+;
* ``splitstep-*`` — split-step propagation of psi(0) on the grid of
  time t matches the analytic state there in L2 norm;

plus two ``reduction-*`` checks confirming that the oscillator and the
uniformly accelerated packet reduce to the free packet pointwise as
omega -> 0 and force -> 0 (omega = force = 1e-6, alpha = 1, p0 = 1.2,
t = 1).

Every check has one shape: ``_check_<family>(system, params, t)``
returns ``(analytic, oracle, tol)``.  `run_checks` is the one place that
names a check, computes its errors and builds its CheckResult.  For
value comparisons the relative error is abs_err/|analytic|; for
distance-style checks (split-step, reduction) the analytic target is
zero and the "relative" error is the distance itself.  A check passes
when its relative error is at or below its tolerance; `run_checks`
accepts a global tolerance override so the whole suite can be rerun
against a stricter (or looser) bar.
"""

import math
from typing import NamedTuple

import numpy as np

from .analytic import eval_psi, moments_at
from .kedensity import half_energies, kinetic_density, total_kinetic
from .oracle import (
    PropagatorSpec, _packet_grid, _upper_half_integral, packet_window, propagate,
)
from .quantities import (
    _SHAPE_FIELD,
    _require_positive,
    free_particle,
    harmonic_oscillator,
    inverted_oscillator,
    make_params,
    uniform_acceleration,
)

__all__ = ["CheckResult", "run_checks", "report"]


class CheckResult(NamedTuple):
    """Outcome of one analytic-versus-oracle comparison."""

    name: str
    system: str
    params: dict
    analytic: float
    oracle: float
    abs_err: float
    rel_err: float
    tol: float
    passed: bool


# The report's key for each CheckResult field, in field order; `passed`
# is written as "pass", a Python keyword.
_REPORT_KEYS = tuple("pass" if f == "passed" else f for f in CheckResult._fields)


def _params_dict(system, params, t):
    doc = {"hbar": params.hbar, "mass": params.mass, "alpha": params.alpha,
           "x0": params.x0, "p0": params.p0, "t": t}
    field = _SHAPE_FIELD.get(system.kind)
    if field is not None:
        doc[field] = system.shape
    return doc


# One representative (system, params, t) per system, shared by all but the
# reduction checks.  Times are O(1), well inside every closed form's range.
def _cases():
    return (
        (free_particle(), make_params(alpha=1.0, x0=0.3, p0=1.2), 1.5),
        (uniform_acceleration(0.8), make_params(alpha=0.8, p0=-0.6), 1.2),
        (harmonic_oscillator(1.3), make_params(alpha=0.7, p0=1.1), 0.9),
        (inverted_oscillator(0.8), make_params(alpha=0.9, p0=0.7), 1.1),
    )


def _reduction_cases():
    params = make_params(alpha=1.0, p0=1.2)
    return (
        (harmonic_oscillator(1e-6), params, 1.0),
        (uniform_acceleration(1e-6), params, 1.0),
    )


# Points of the packet grid; halves samples twice as many.
_GRID_N = 256

# Split-step time step, with the fourth-order scheme.  Its error terms
# vanish for V = 0 and for a linear V, so free and accelerated propagation
# are exact up to rounding at any dt; for the oscillators the O(dt**4)
# error sits far below the tolerance.
_SPLITSTEP_DT = 0.01


def _check_normalization(system, params, t):
    _, psi, dx = _packet_grid(system, params, t, _GRID_N)
    return 1.0, float(np.sum(np.abs(psi) ** 2) * dx), 1e-9


def _check_ibp(system, params, t):
    _, psi, dx = _packet_grid(system, params, t, _GRID_N)
    k = 2.0 * math.pi * np.fft.fftfreq(_GRID_N, d=dx)
    d2psi = np.fft.ifft(-k * k * np.fft.fft(psi))
    scale = params.hbar**2 / (2.0 * params.mass)
    oracle = -scale * float(np.sum(np.conj(psi) * d2psi).real) * dx
    return total_kinetic(system, params, t), oracle, 1e-8


def _check_halves(system, params, t):
    xs, _, dx = _packet_grid(system, params, t, 2 * _GRID_N)
    density = kinetic_density(system, params, xs, t)
    oracle = _upper_half_integral(density, xs, dx, moments_at(system, params, t).mean_x)
    return half_energies(system, params, t).plus, oracle, 1e-8


def _check_splitstep(system, params, t):
    xs, exact, dx = _packet_grid(system, params, t, _GRID_N)
    spec = PropagatorSpec(
        system=system, constants=params.constants,
        domain=packet_window(system, params, t), dt=_SPLITSTEP_DT,
        n_grid=_GRID_N, order=4,
    )
    numeric = propagate(eval_psi(system, params, xs, 0.0), spec, t)
    distance = math.sqrt(float(np.sum(np.abs(numeric - exact) ** 2) * dx))
    return 0.0, distance, 1e-6


def _check_reduction(system, params, t):
    xs, free_psi, _ = _packet_grid(free_particle(), params, t, _GRID_N)
    diff = np.abs(eval_psi(system, params, xs, t) - free_psi)
    return 0.0, float(np.max(diff)), 1e-5


def _suite():
    """(name, check, case) per check in report order, built on each call
    so that a wrapper put on a _check_* function sees every run."""
    families = (
        ("normalization", _check_normalization, _cases()),
        ("ibp", _check_ibp, _cases()),
        ("halves", _check_halves, _cases()),
        ("splitstep", _check_splitstep, _cases()),
        ("reduction", _check_reduction, _reduction_cases()),
    )
    for family, check, cases in families:
        for case in cases:
            yield f"{family}-{case[0].kind.value}", check, case


def run_checks(name_filter=None, rel_tol=None):
    """Run the suite, optionally filtered by substring, and collect results.

    Parameters
    ----------
    name_filter : str, optional
        Run only checks whose name contains this substring.
    rel_tol : float, optional
        Replace every check's built-in tolerance with this value.

    Returns
    -------
    list of CheckResult
    """
    if rel_tol is not None:
        rel_tol = _require_positive("tolerance override", rel_tol)
    results = []
    for name, check, (system, params, t) in _suite():
        if name_filter is not None and name_filter not in name:
            continue
        analytic, oracle, tol = check(system, params, t)
        abs_err = abs(oracle - analytic)
        rel_err = abs_err / abs(analytic) if analytic != 0.0 else abs_err
        tol = tol if rel_tol is None else rel_tol
        results.append(CheckResult(
            name=name,
            system=system.kind.value,
            params=_params_dict(system, params, t),
            analytic=float(analytic),
            oracle=float(oracle),
            abs_err=float(abs_err),
            rel_err=float(rel_err),
            tol=float(tol),
            passed=bool(rel_err <= tol),
        ))
    return results


def report(results):
    """Shape results into the JSON-ready report document."""
    return {
        "checks": [dict(zip(_REPORT_KEYS, r)) for r in results],
        "n_checks": len(results),
        "n_failed": sum(1 for r in results if not r.passed),
        "all_pass": all(r.passed for r in results),
    }
