"""Closed-form Gaussian wave packet evolution and kinetic energy splits.

The library evaluates exact Gaussian solutions of the time-dependent
Schrödinger equation for four one-dimensional systems — free particle,
uniform acceleration, harmonic oscillator, inverted oscillator — and
the kinetic energy density they carry, including its split into the
halves ahead of and behind the moving packet center.  An independent
numerical oracle (quadrature, finite differences, split-step
propagation) validates every closed form, and a small CLI exports
tables and figures deterministically.
"""

from .errors import (
    AccuracyError,
    BoundaryError,
    GausspackError,
    NonFiniteError,
    ParameterError,
    ResolutionError,
    ScenarioError,
    TimeRangeError,
    UnknownPresetError,
)
from .quantities import (
    OscillatorDerived,
    PacketParams,
    PhysicalConstants,
    SystemKind,
    SystemSpec,
    free_particle,
    harmonic_oscillator,
    inverted_oscillator,
    make_params,
    oscillator_derived,
    uniform_acceleration,
)
from .analytic import (
    GridResult,
    Moments,
    PacketState,
    eval_psi,
    moments_at,
    probability_density,
    sample_grid,
    state_at,
)
from .kedensity import (
    EnergySplit,
    accel_event_times,
    asymmetry_amplitude,
    extremal_p0,
    fraction_limits,
    fractions_series,
    half_energies,
    kinetic_density,
    scaled_density,
    total_kinetic,
)
from .oracle import (
    IntegralResult,
    PropagatorSpec,
    QuadratureSpec,
    fd_derivative,
    fd_second_derivative,
    half_windows,
    integrate,
    momentum_transform,
    packet_window,
    potential_on_grid,
    propagate,
)
from .scenarios import (
    PRESET_NAMES,
    AbsoluteWindow,
    RelativeWindow,
    Scenario,
    load_scenario,
    preset,
    serialize_scenario,
)
from .figures import figure_tables, render_figure
from .validation import CheckResult, report, run_checks

__version__ = "0.1.0"

__all__ = [
    "AbsoluteWindow",
    "AccuracyError",
    "BoundaryError",
    "CheckResult",
    "EnergySplit",
    "GausspackError",
    "GridResult",
    "IntegralResult",
    "Moments",
    "NonFiniteError",
    "OscillatorDerived",
    "PRESET_NAMES",
    "PacketParams",
    "PacketState",
    "ParameterError",
    "PhysicalConstants",
    "PropagatorSpec",
    "QuadratureSpec",
    "RelativeWindow",
    "ResolutionError",
    "Scenario",
    "ScenarioError",
    "SystemKind",
    "SystemSpec",
    "TimeRangeError",
    "UnknownPresetError",
    "accel_event_times",
    "asymmetry_amplitude",
    "eval_psi",
    "extremal_p0",
    "fd_derivative",
    "fd_second_derivative",
    "figure_tables",
    "fraction_limits",
    "fractions_series",
    "free_particle",
    "half_energies",
    "half_windows",
    "harmonic_oscillator",
    "integrate",
    "inverted_oscillator",
    "kinetic_density",
    "load_scenario",
    "make_params",
    "momentum_transform",
    "moments_at",
    "oscillator_derived",
    "packet_window",
    "potential_on_grid",
    "preset",
    "probability_density",
    "propagate",
    "render_figure",
    "report",
    "run_checks",
    "sample_grid",
    "scaled_density",
    "serialize_scenario",
    "state_at",
    "total_kinetic",
    "uniform_acceleration",
]
