import math
import re
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

import gausspack as g
from gausspack.oracle import _packet_grid, fd_second_derivative

from conftest import FOUR_CASES


def initial_packet(params, x):
    """The shared t=0 state: Gaussian envelope times plane wave at p0."""
    beta = params.beta
    norm = (math.sqrt(math.pi) * beta) ** -0.5
    u = np.asarray(x) - params.x0
    return norm * np.exp(-(u / beta) ** 2 / 2.0 + 1j * params.p0 * u / params.hbar)


def test_t0_recovers_initial_packet(four_cases):
    xs = np.linspace(-6, 6, 301)
    for system, params, _ in four_cases:
        psi = g.eval_psi(system, params, xs, 0.0)
        assert np.max(np.abs(psi - initial_packet(params, xs))) < 1e-14


def test_states_solve_schrodinger_equation(four_cases):
    """FD residual of i*hbar dpsi/dt - H psi, sampled at random points."""
    rng = np.random.default_rng(11)
    ht = 1e-5
    hx = 1e-3
    for system, params, _ in four_cases:
        hbar, mass = params.hbar, params.mass
        for _ in range(4):
            t = float(rng.uniform(0.2, 1.8))
            m = g.moments_at(system, params, t)
            x = float(m.mean_x + rng.uniform(-2, 2) * math.sqrt(m.var_x))
            dpsi_dt = (
                g.eval_psi(system, params, x, t + ht)
                - g.eval_psi(system, params, x, t - ht)
            ) / (2.0 * ht)
            psi_xx = fd_second_derivative(
                lambda xx, tt: g.eval_psi(system, params, xx, tt), x, t, hx
            )
            psi = g.eval_psi(system, params, x, t)
            if system.kind is g.SystemKind.FREE:
                v = 0.0
            elif system.kind is g.SystemKind.UNIFORM_ACCELERATION:
                v = -system.force * x
            elif system.kind is g.SystemKind.HARMONIC:
                v = 0.5 * mass * system.omega**2 * x * x
            else:
                v = -0.5 * mass * system.omega_tilde**2 * x * x
            residual = 1j * hbar * dpsi_dt + hbar**2 / (2 * mass) * psi_xx - v * psi
            scale = abs(hbar**2 / (2 * mass) * psi_xx) + abs(v * psi) + abs(psi)
            assert abs(residual) / scale < 1e-6


def test_closed_form_derivative_matches_spectral(four_cases):
    for system, params, t in four_cases:
        xs, psi, dx = _packet_grid(system, params, t, 256)
        k = 2.0 * math.pi * np.fft.fftfreq(len(xs), d=dx)
        spectral = np.fft.ifft(1j * k * np.fft.fft(psi))
        state = g.state_at(system, params, t)
        dpsi = state.dpsi_dx(xs)
        assert np.max(np.abs(dpsi - spectral)) < 1e-12 * np.max(np.abs(dpsi))


def test_normalization_all_systems(four_cases):
    for system, params, t in four_cases:
        m = g.moments_at(system, params, t)
        sd = math.sqrt(m.var_x)
        xs = np.linspace(m.mean_x - 10 * sd, m.mean_x + 10 * sd, 20001)
        prob = g.state_at(system, params, t).prob(xs)
        assert abs(np.trapezoid(prob, xs) - 1.0) < 1e-9


def test_prob_equals_abs_psi_squared(four_cases):
    xs = np.linspace(-5, 5, 101)
    for system, params, t in four_cases:
        state = g.state_at(system, params, t)
        assert np.max(np.abs(state.prob(xs) - np.abs(state.psi(xs)) ** 2)) < 1e-13


def test_ehrenfest_relations(four_cases):
    """d<x>/dt = <p>/m and d<p>/dt = -<dV/dx> via FD on the moments."""
    h = 1e-6
    for system, params, t in four_cases:
        up = g.moments_at(system, params, t + h)
        dn = g.moments_at(system, params, t - h)
        mid = g.moments_at(system, params, t)
        dxdt = (up.mean_x - dn.mean_x) / (2 * h)
        dpdt = (up.mean_p - dn.mean_p) / (2 * h)
        assert abs(dxdt - mid.mean_p / params.mass) < 1e-6
        if system.kind is g.SystemKind.FREE:
            expected_force = 0.0
        elif system.kind is g.SystemKind.UNIFORM_ACCELERATION:
            expected_force = system.force
        elif system.kind is g.SystemKind.HARMONIC:
            expected_force = -params.mass * system.omega**2 * mid.mean_x
        else:
            expected_force = params.mass * system.omega_tilde**2 * mid.mean_x
        assert abs(dpdt - expected_force) < 1e-5


def test_energy_is_conserved(four_cases):
    for system, params, _ in four_cases:
        e0 = g.moments_at(system, params, 0.0).energy
        for t in (0.3, 0.9, 1.7):
            m = g.moments_at(system, params, t)
            assert abs(m.energy - e0) < 1e-12 * max(1.0, abs(e0))
            # kinetic + potential recombine to the conserved energy
            assert abs(m.kinetic + m.potential - e0) < 1e-10 * max(1.0, abs(e0))


def test_free_width_law():
    params = g.make_params(alpha=0.8, p0=0.4)
    free = g.free_particle()
    for t in (0.0, 0.5, 1.3, 4.0, 25.0):
        m = g.moments_at(free, params, t)
        expected = (params.beta**2 / 2.0) * (1.0 + (t / params.t0) ** 2)
        assert abs(m.var_x - expected) < 1e-12 * expected if expected else True
        assert abs(m.var_p - 1.0 / (2.0 * params.alpha**2)) < 1e-15


def test_sho_periodicity():
    system = g.harmonic_oscillator(1.3)
    params = g.make_params(alpha=0.7, p0=1.1)
    tau = 2.0 * math.pi / 1.3
    xs = np.linspace(-4, 4, 201)
    for t in (0.0, 0.4, 1.1):
        a = g.state_at(system, params, t).prob(xs)
        b = g.state_at(system, params, t + tau).prob(xs)
        assert np.max(np.abs(a - b)) < 1e-10
        ma = g.moments_at(system, params, t)
        mb = g.moments_at(system, params, t + tau)
        assert abs(ma.mean_x - mb.mean_x) < 1e-10
        assert abs(ma.var_x - mb.var_x) < 1e-10


def test_sho_coherent_width_constant():
    # beta = beta0 evolves with no change in shape
    system = g.harmonic_oscillator(1.0)
    params = g.make_params(alpha=1.0, p0=1.4)
    for t in (0.0, 0.3, 1.0, 2.9):
        m = g.moments_at(system, params, t)
        assert abs(m.var_x - 0.5) < 1e-14


# A harmonic packet with no special symmetry, hbar and mass not 1.
_SHO = g.harmonic_oscillator(1.3)
_SHO_PARAMS = g.make_params(hbar=0.8, mass=1.2, alpha=0.7, p0=1.1)
_SHO_TAU = 2.0 * math.pi / 1.3


def test_sho_revival_and_parity_identities():
    """psi(tau) = -psi(0), psi(2 tau) = psi(0), psi(x, tau/2) = -i psi(-x, 0).

    The Mehler kernel carries the Maslov phase -i per half period, so psi
    changes sign over one period and returns only after two.
    """
    xs = np.linspace(-4.0, 4.0, 201)
    psi0 = g.eval_psi(_SHO, _SHO_PARAMS, xs, 0.0)
    mirrored = g.eval_psi(_SHO, _SHO_PARAMS, -xs, 0.0)
    for periods, expected in ((1.0, -psi0), (2.0, psi0), (-1.0, -psi0),
                              (0.5, -1j * mirrored), (1.5, 1j * mirrored),
                              (-0.5, 1j * mirrored)):
        psi = g.eval_psi(_SHO, _SHO_PARAMS, xs, periods * _SHO_TAU)
        assert np.max(np.abs(psi - expected)) < 1e-13, periods


@pytest.mark.parametrize("j", range(-2, 3))
def test_sho_psi_is_continuous_across_odd_multiples_of_pi(j):
    t = (2 * j + 1) * math.pi / _SHO.omega
    xs = np.linspace(-4.0, 4.0, 201)
    before = g.eval_psi(_SHO, _SHO_PARAMS, xs, t - 1e-7)
    after = g.eval_psi(_SHO, _SHO_PARAMS, xs, t + 1e-7)
    assert np.max(np.abs(after - before)) < 1e-5  # a sign jump would be ~1


def test_sho_propagation_matches_closed_form_past_half_a_period():
    system = g.harmonic_oscillator(1.0)
    params = g.make_params(alpha=0.7, p0=1.1)
    spec = g.PropagatorSpec(system=system, constants=params.constants,
                            domain=(-16.0, 16.0), dt=0.01, n_grid=1024, order=4)
    xs = spec.grid()
    numeric = g.propagate(g.eval_psi(system, params, xs, 0.0), spec, 4.0)
    exact = g.eval_psi(system, params, xs, 4.0)
    distance = math.sqrt(float(np.sum(np.abs(numeric - exact) ** 2)) * (xs[1] - xs[0]))
    assert distance < 1e-7


def test_reductions_to_free():
    free = g.free_particle()
    params = g.make_params(alpha=1.0, p0=1.2)
    t = 1.0
    m = g.moments_at(free, params, t)
    sd = math.sqrt(m.var_x)
    xs = np.linspace(m.mean_x - 6 * sd, m.mean_x + 6 * sd, 501)
    base = g.eval_psi(free, params, xs, t)
    near_free = g.eval_psi(g.harmonic_oscillator(1e-6), params, xs, t)
    assert np.max(np.abs(near_free - base)) < 1e-5
    near_free = g.eval_psi(g.uniform_acceleration(1e-6), params, xs, t)
    assert np.max(np.abs(near_free - base)) < 1e-5
    near_free = g.eval_psi(g.inverted_oscillator(1e-6), params, xs, t)
    assert np.max(np.abs(near_free - base)) < 1e-5


def test_accel_center_and_momentum():
    system = g.uniform_acceleration(0.7)
    params = g.make_params(alpha=1.0, x0=-0.5, p0=0.4)
    for t in (0.0, 0.8, 2.1):
        m = g.moments_at(system, params, t)
        assert abs(m.mean_x - (-0.5 + 0.4 * t + 0.35 * t * t)) < 1e-12
        assert abs(m.mean_p - (0.4 + 0.7 * t)) < 1e-12


def test_free_accel_share_width_history():
    # the quadratic potential term is absent in both, so spreading matches
    params = g.make_params(alpha=0.9, p0=0.3)
    free = g.free_particle()
    accel = g.uniform_acceleration(1.1)
    for t in (0.2, 1.0, 3.3):
        assert g.moments_at(free, params, t).var_x == \
            g.moments_at(accel, params, t).var_x


def test_force_zero_matches_free_bitwise():
    params = g.make_params(alpha=1.0, x0=0.2, p0=-0.8)
    xs = np.linspace(-8, 8, 257)
    for t in (0.0, 0.7, 2.4):
        a = g.eval_psi(g.free_particle(), params, xs, t)
        b = g.eval_psi(g.uniform_acceleration(0.0), params, xs, t)
        assert np.all(a == b)


def test_oscillators_reject_offset_start():
    params = g.make_params(alpha=1.0, x0=0.5, p0=1.0)
    for system in (g.harmonic_oscillator(1.0), g.inverted_oscillator(1.0)):
        for fn in (g.state_at, g.moments_at, g.total_kinetic, g.half_energies):
            with pytest.raises(g.ParameterError):
                fn(system, params, 0.1)
        with pytest.raises(g.ParameterError, match="x0"):
            g.fractions_series(system, params, [0.1, 0.2])


@pytest.mark.parametrize("t", [1, np.int64(1), np.float32(0.5), np.float64(0.5),
                               np.float32(0.1)])
def test_time_accepts_any_real_as_float(four_cases, t):
    for system, params, _ in four_cases:
        state = g.state_at(system, params, t)
        assert type(state.t) is float
        assert state == g.state_at(system, params, float(t))
        assert g.moments_at(system, params, t) == g.moments_at(system, params, float(t))
        grid = g.sample_grid(system, params, t, (-1.0, 1.0), 8)
        assert type(grid.t) is float and grid.t == float(t)
        total = g.total_kinetic(system, params, t)
        assert type(total) is float
        assert total == g.total_kinetic(system, params, float(t))
        split = g.half_energies(system, params, t)
        assert type(split.t) is float and type(split.total) is float
        assert split == g.half_energies(system, params, float(t))
        assert g.fractions_series(system, params, [t]) == (split,)
        if system.kind in (g.SystemKind.FREE, g.SystemKind.UNIFORM_ACCELERATION):
            amplitude = g.asymmetry_amplitude(system, params, t)
            assert type(amplitude) is float
            assert amplitude == g.asymmetry_amplitude(system, params, float(t))


@pytest.mark.parametrize("t", [True, np.bool_(False), "1", 1j, math.nan, -math.inf,
                               math.inf,
                               pytest.param(10**400, id="10**400"),
                               pytest.param(-10**400, id="-10**400"),
                               pytest.param(Fraction(10**400, 3), id="Fraction(10**400,3)"),
                               pytest.param(10**5000, id="10**5000"),
                               pytest.param(Fraction(-10**5000, 3), id="Fraction(-10**5000,3)")])
def test_time_rejects_bool_and_non_reals(t):
    system, params = g.free_particle(), g.make_params()
    for fn in (g.state_at, g.moments_at, g.total_kinetic, g.half_energies,
               g.asymmetry_amplitude):
        with pytest.raises(g.ParameterError):
            fn(system, params, t)
    with pytest.raises(g.ParameterError):
        g.fractions_series(system, params, [0.5, t])


def test_inverted_time_guard():
    system = g.inverted_oscillator(2.0)
    params = g.make_params()
    with pytest.raises(g.TimeRangeError):
        g.state_at(system, params, 151.0)  # omega_tilde * t = 302 > 300
    g.state_at(system, params, 149.0)  # inside the guard
    for fn in (g.total_kinetic, g.half_energies, g.moments_at):
        with pytest.raises(g.TimeRangeError):
            fn(system, params, -151.0)
    with pytest.raises(g.TimeRangeError, match="302"):
        g.fractions_series(system, params, [0.5, 149.0, 151.0, -0.5])
    # The first bad time decides the error, as in a loop over half_energies.
    with pytest.raises(g.TimeRangeError):
        g.fractions_series(system, params, [0.5, -151.0, math.nan])
    with pytest.raises(g.ParameterError):
        g.fractions_series(system, params, [0.5, math.nan, -151.0])


@pytest.mark.parametrize("t", [1e160, -1e160])
def test_harmonic_time_overflow(t):
    # omega*t overflows to an infinity, whose cosine is undefined.
    system, params = g.harmonic_oscillator(1e150), g.make_params()
    for fn in (g.state_at, g.half_energies):
        with pytest.raises(g.TimeRangeError):
            fn(system, params, t)
    with pytest.raises(g.TimeRangeError):
        g.fractions_series(system, params, [0.5, t])


# A finite input whose float `**2` overflows is refused with ParameterError;
# each of these raised a raw OverflowError before.  A frequency is refused
# where the system is built, so those cases raise before the closed form runs.
_SHO_HUGE = partial(g.harmonic_oscillator, 1e200)
_INVERTED_HUGE = partial(g.inverted_oscillator, 1e200)
_SQUARE_OVERFLOWS = {
    "total_kinetic": lambda: g.total_kinetic(_SHO_HUGE(), g.make_params(p0=1.0), 0.0),
    "moments_at": lambda: g.moments_at(_SHO_HUGE(), g.make_params(p0=1.0), 0.0),
    "half_energies": lambda: g.half_energies(_SHO_HUGE(), g.make_params(p0=1.0), 0.0),
    "fractions_series": lambda: g.fractions_series(_SHO_HUGE(), g.make_params(), [0.0, 1.0]),
    "extremal_p0": lambda: g.extremal_p0(_SHO_HUGE(), g.make_params()),
    "potential_on_grid": lambda: g.potential_on_grid(
        _SHO_HUGE(), g.PhysicalConstants(), np.linspace(-1.0, 1.0, 5)),
    "potential_on_grid-inverted": lambda: g.potential_on_grid(
        _INVERTED_HUGE(), g.PhysicalConstants(), np.linspace(-1.0, 1.0, 5)),
    "moments_at-p0": lambda: g.moments_at(g.free_particle(), g.make_params(p0=1e200), 1.0),
    "moments_at-hbar": lambda: g.moments_at(g.free_particle(), g.make_params(hbar=1e200), 1.0),
    "total_kinetic-sho-p0": lambda: g.total_kinetic(
        g.harmonic_oscillator(1.0), g.make_params(p0=1e200), 1.0),
    # hbar and alpha pass alone, but beta = alpha*hbar = 1e200
    "total_kinetic-sho-beta": lambda: g.total_kinetic(
        g.harmonic_oscillator(1.0), g.make_params(alpha=1e100, hbar=1e100), 1.0),
}


@pytest.mark.parametrize("case", _SQUARE_OVERFLOWS)
def test_overflowing_squares_are_refused(case):
    with pytest.raises(g.ParameterError, match="below 1.3e154 in magnitude"):
        _SQUARE_OVERFLOWS[case]()


# Valid inputs whose derived quantities have no float square; each raised a
# raw OverflowError before.  The error names the quantity.
_DERIVED_SQUARE_OVERFLOWS = {
    "mass*omega*beta": lambda: g.moments_at(
        g.harmonic_oscillator(1e100), g.make_params(mass=1e100), 0.0),
    "packet width at t = 1e+200": lambda: g.moments_at(
        g.free_particle(), g.make_params(), 1e200),
    "packet center at t = 1e+100": lambda: g.moments_at(
        g.harmonic_oscillator(1e-150), g.make_params(p0=1e100), 1e100),
    "beta*mass*omega": lambda: g.extremal_p0(
        g.harmonic_oscillator(1e100), g.make_params(mass=1e100)),
}


@pytest.mark.parametrize("quantity", _DERIVED_SQUARE_OVERFLOWS)
def test_overflowing_derived_squares_are_refused(quantity):
    expected = re.escape(quantity) + " must be below 1.3e154 in magnitude"
    with pytest.raises(g.ParameterError, match=expected):
        _DERIVED_SQUARE_OVERFLOWS[quantity]()


def test_squares_just_below_the_float_range_are_accepted():
    sho = g.harmonic_oscillator(1e154)
    assert math.isfinite(g.total_kinetic(sho, g.make_params(p0=1e154), 0.0))
    assert math.isfinite(g.moments_at(g.free_particle(), g.make_params(hbar=1e154), 0.0).kinetic)


@pytest.mark.parametrize("system", [g.harmonic_oscillator(8.0), g.inverted_oscillator(8.0)])
def test_chirp_divisor_that_underflows_is_refused(system):
    """2*hbar*|A|**2 divides the chirp Im(a); with hbar = 6e-248 and
    |A| = beta = 6.7e-160 it underflows to 0, which raised ZeroDivisionError."""
    params = g.make_params(hbar=6.088798310114892e-248, alpha=1.0929703959470301e+88)
    with pytest.raises(g.ParameterError, match=re.escape("2*hbar*|A|**2 underflows to 0")):
        g.state_at(system, params, 0.0)


@pytest.mark.parametrize("system", [g.harmonic_oscillator(1.6e-162),
                                    g.inverted_oscillator(1.6e-162)])
def test_gamma_with_no_float_square_is_refused(system):
    """gamma = hbar/(mass*omega*beta) = 6.25e161 squares to inf, which made
    Im(a) = -inf and r_plus = inf; total_kinetic uses no gamma and answers."""
    params = g.make_params(p0=1.0)
    for fn in (g.state_at, g.half_energies):
        with pytest.raises(g.ParameterError, match=re.escape("gamma = hbar/(mass*omega*beta)")):
            fn(system, params, 1.0)
    assert math.isfinite(g.total_kinetic(system, params, 1.0))


@pytest.mark.parametrize("t", [1e-300, -1e-300])
def test_oscillator_phase_that_underflows_is_zero(t):
    """The envelope's phase, gamma*sin/(beta*cos), is below the smallest
    float here: it rounds to a signed zero instead of raising OverflowError."""
    sho, params = g.harmonic_oscillator(1.0), g.make_params(hbar=1e150, alpha=1e-10)
    state = g.state_at(sho, params, t)
    assert state.const_phase == 0.0
    assert all(np.isfinite(complex(v)) for v in state)
    assert all(math.isfinite(v) for v in g.moments_at(sho, params, t))


def test_moments_kinetic_is_total_kinetic():
    """moments_at and total_kinetic evaluate one formula: equal bit for bit."""
    rng = np.random.default_rng(29)
    systems = (
        (g.free_particle(), lambda: float(rng.uniform(-20.0, 20.0))),
        (g.uniform_acceleration(-0.7), lambda: float(rng.uniform(-20.0, 20.0))),
        (g.harmonic_oscillator(1.3), lambda: float(rng.uniform(-40.0, 40.0))),
        # |omega_tilde*t| in (30, 300): the exponent-extracted hyperbolics
        (g.inverted_oscillator(0.8),
         lambda: float(rng.choice([-1.0, 1.0]) * rng.uniform(30.5, 299.0) / 0.8)),
    )
    for system, draw_t in systems:
        for _ in range(200):
            drifting = system.kind in (g.SystemKind.FREE, g.SystemKind.UNIFORM_ACCELERATION)
            x0 = float(rng.uniform(-2.0, 2.0)) if drifting else 0.0
            params = g.make_params(
                hbar=float(rng.uniform(0.2, 3.0)), mass=float(rng.uniform(0.2, 3.0)),
                alpha=float(rng.uniform(0.2, 3.0)), x0=x0, p0=float(rng.uniform(-3.0, 3.0)))
            t = draw_t()
            assert g.moments_at(system, params, t).kinetic == g.total_kinetic(system, params, t)


def test_inverted_large_time_stable():
    # scaled hyperbolics keep quantities finite far past cosh overflow of e^x
    system = g.inverted_oscillator(1.0)
    params = g.make_params(alpha=1.0, p0=1.0)
    m = g.moments_at(system, params, 250.0)
    assert math.isfinite(m.var_x) and m.var_x > 0
    split = g.half_energies(system, params, 250.0)
    assert math.isfinite(split.r_plus)
    assert 0.0 < split.r_plus < 1.0


def test_dimensionless_profile_invariance():
    """r_plus depends only on p0*alpha and t/t0 (free packet)."""
    s, kappa = 0.9, 3.5
    for lam in (0.25, 4.0):  # power-of-two rescaling keeps floats exact
        a1 = 1.0
        a2 = lam * a1
        p1 = g.make_params(alpha=a1, p0=s / a1)
        p2 = g.make_params(alpha=a2, p0=s / a2)
        r1 = g.half_energies(g.free_particle(), p1, kappa * p1.t0).r_plus
        r2 = g.half_energies(g.free_particle(), p2, kappa * p2.t0).r_plus
        assert abs(r1 - r2) < 1e-14


def test_sample_grid_basics():
    free = g.free_particle()
    params = g.make_params(alpha=1.0, p0=0.5)
    grid = g.sample_grid(free, params, 1.0, (-8.0, 8.0), 64)
    assert grid.t == 1.0
    assert grid.xs.shape == (64,) and grid.psi.shape == (64,)
    assert grid.xs[0] == -8.0 and grid.xs[-1] == 8.0
    assert np.max(np.abs(grid.prob - np.abs(grid.psi) ** 2)) < 1e-15
    assert not grid.xs.flags.writeable
    assert not grid.psi.flags.writeable
    with pytest.raises(g.ParameterError):
        g.sample_grid(free, params, 1.0, (2.0, -2.0), 64)
    with pytest.raises(g.ParameterError):
        g.sample_grid(free, params, 1.0, (-2.0, 2.0), 1)


@pytest.mark.parametrize("n", [64, np.int64(64), np.int32(64)])
def test_sample_grid_accepts_any_integer_n(n):
    free, params = g.free_particle(), g.make_params(p0=0.5)
    grid = g.sample_grid(free, params, 1.0, (-8.0, 8.0), n)
    assert np.all(grid.psi == g.sample_grid(free, params, 1.0, (-8.0, 8.0), 64).psi)


@pytest.mark.parametrize("n", [True, 64.0, np.float64(64.0), "64", np.int64(1),
                               pytest.param(-10**5000, id="-10**5000")])
def test_sample_grid_rejects_bool_and_non_integer_n(n):
    with pytest.raises(g.ParameterError):
        g.sample_grid(g.free_particle(), g.make_params(), 1.0, (-8.0, 8.0), n)


@pytest.mark.parametrize("window", [
    ("-1", "1"), (False, True), (-1.0, "1"), (-math.inf, 1.0), (-1.0, math.nan),
    (1.0, 1.0), 5, (-1.0, 0.0, 1.0),
    pytest.param((-1.0, 0.0, 10**5000), id="3-tuple-with-10**5000"),
])
def test_sample_grid_rejects_bad_window(window):
    with pytest.raises(g.ParameterError):
        g.sample_grid(g.free_particle(), g.make_params(), 1.0, window, 64)


def test_sample_grid_accepts_any_real_window():
    free, params = g.free_particle(), g.make_params(p0=0.5)
    grid = g.sample_grid(free, params, 1.0, (np.float32(-8.0), np.int64(8)), 64)
    assert np.all(grid.xs == g.sample_grid(free, params, 1.0, (-8.0, 8.0), 64).xs)


def test_scalar_and_array_evaluation_agree(four_cases):
    for system, params, t in four_cases:
        state = g.state_at(system, params, t)
        xs = np.array([-1.0, 0.25, 2.0])
        arr = state.psi(xs)
        for i, x in enumerate(xs):
            one = state.psi(float(x))
            assert isinstance(one, complex)
            assert one == arr[i]
