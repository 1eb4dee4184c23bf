import math
from fractions import Fraction

import numpy as np
import pytest

import gausspack as g

from conftest import FOUR_CASES


def test_unit_gaussian_integral():
    spec = g.QuadratureSpec()
    f = lambda x: math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.pi)
    value = g.integrate(f, (-12.0, 12.0), spec)
    assert abs(value.value - 1.0) < 1e-10
    assert value.error < 1e-8


def test_probability_normalization_late_time():
    free = g.free_particle()
    params = g.make_params(alpha=1.0, p0=0.5)
    t = 5.0 * params.t0
    window = g.packet_window(free, params, t)
    value = g.integrate(
        lambda x: g.probability_density(free, params, x, t), window)
    assert abs(value.value - 1.0) < 1e-10


def test_integrate_is_deterministic():
    f = lambda x: math.exp(-x * x) * math.cos(3.0 * x)
    a = g.integrate(f, (-10.0, 10.0))
    b = g.integrate(f, (-10.0, 10.0))
    assert a.value == b.value and a.error == b.error


def test_integrate_reports_nonconvergence():
    spec = g.QuadratureSpec(max_subdivisions=10)
    f = lambda x: math.sin(1.0 / (abs(x) + 1e-6))
    with pytest.raises(g.AccuracyError) as info:
        g.integrate(f, (-1.0, 1.0), spec)
    assert info.value.best_estimate is not None
    assert info.value.error_estimate is not None


def test_quadrature_spec_validation():
    with pytest.raises(g.ParameterError):
        g.QuadratureSpec(rel_tol=0.0)
    with pytest.raises(g.ParameterError):
        g.QuadratureSpec(abs_tol=-1.0)
    with pytest.raises(g.ParameterError):
        g.QuadratureSpec(window_sigmas=4.0)  # must be >= 6
    with pytest.raises(g.ParameterError):
        g.QuadratureSpec(max_subdivisions=0)


def test_fd_derivative_plane_wave():
    p0 = 1.8
    psi = lambda x, t: complex(math.cos(p0 * x), math.sin(p0 * x))
    got = g.fd_derivative(psi, 0.37, 0.0, 1e-3)
    assert abs(got - 1j * p0 * psi(0.37, 0.0)) < 1e-8


def test_fd_derivative_symmetric_point():
    psi = lambda x, t: math.exp(-x * x)
    assert abs(g.fd_derivative(psi, 0.0, 0.0, 1e-3)) < 1e-12


def test_fd_matches_closed_form_derivative():
    rng = np.random.default_rng(17)
    for system, params, t in FOUR_CASES:
        state = g.state_at(system, params, t)
        psi = lambda x, tt: state.psi(x)
        m = g.moments_at(system, params, t)
        for _ in range(25):
            x = float(m.mean_x + rng.uniform(-3, 3) * math.sqrt(m.var_x))
            assert abs(g.fd_derivative(psi, x, t) - state.dpsi_dx(x)) < 1e-6


def test_fd_requires_positive_step():
    psi = lambda x, t: x * x
    with pytest.raises(g.ParameterError):
        g.fd_derivative(psi, 0.0, 0.0, 0.0)
    with pytest.raises(g.ParameterError):
        g.fd_second_derivative(psi, 0.0, 0.0, -1e-3)


def test_momentum_transform_gaussian_pair():
    params = g.make_params(alpha=1.0, p0=0.8)
    free = g.free_particle()
    xs = np.linspace(-40.0, 40.0, 4096, endpoint=False)
    ps, phi = g.momentum_transform(xs, g.eval_psi(free, params, xs, 0.0))
    beta = params.beta
    exact = (beta**2 / math.pi) ** 0.25 * np.exp(
        -(beta**2) * (ps - params.p0) ** 2 / 2.0)
    assert np.max(np.abs(np.abs(phi) ** 2 - exact**2)) < 1e-9
    assert np.max(np.abs(phi - exact)) < 1e-9  # phase convention too


def test_momentum_shift_phase_property():
    free = g.free_particle()
    xs = np.linspace(-40.0, 40.0, 4096, endpoint=False)
    x0 = 1.3
    _, phi0 = g.momentum_transform(
        xs, g.eval_psi(free, g.make_params(alpha=1.0), xs, 0.0))
    ps, phi1 = g.momentum_transform(
        xs, g.eval_psi(free, g.make_params(alpha=1.0, x0=x0), xs, 0.0))
    assert np.max(np.abs(phi1 - phi0 * np.exp(-1j * ps * x0))) < 1e-12
    assert np.max(np.abs(np.abs(phi1) - np.abs(phi0))) < 1e-12


def test_momentum_parseval():
    free = g.free_particle()
    params = g.make_params(alpha=0.9, p0=1.4)
    xs = np.linspace(-35.0, 35.0, 2048, endpoint=False)
    psi = g.eval_psi(free, params, xs, 1.0)
    ps, phi = g.momentum_transform(xs, psi)
    dx, dp = xs[1] - xs[0], ps[1] - ps[0]
    lhs = float(np.sum(np.abs(psi) ** 2) * dx)
    rhs = float(np.sum(np.abs(phi) ** 2) * dp)
    assert abs(lhs - rhs) < 1e-12


def test_momentum_transform_detects_aliasing():
    free = g.free_particle()
    params = g.make_params(alpha=0.2, p0=9.0)  # fast phase on a coarse grid
    xs = np.linspace(-5.0, 5.0, 32, endpoint=False)
    with pytest.raises(g.ResolutionError):
        g.momentum_transform(xs, g.eval_psi(free, params, xs, 0.0))


def test_momentum_transform_requires_uniform_grid():
    xs = np.array([0.0, 0.1, 0.25, 0.5])
    with pytest.raises(g.ParameterError):
        g.momentum_transform(xs, np.ones_like(xs, dtype=complex))


def test_momentum_transform_gates_hbar_and_psi():
    free = g.free_particle()
    xs = np.linspace(-40.0, 40.0, 1024, endpoint=False)
    psi = g.eval_psi(free, g.make_params(alpha=1.0), xs, 0.0)
    for hbar in (0.0, -1.0, True, "1", math.nan, math.inf):
        with pytest.raises(g.ParameterError):
            g.momentum_transform(xs, psi, hbar=hbar)
    for value in (math.inf, math.nan):
        bad = psi.copy()
        bad[3] = value
        with pytest.raises(g.ParameterError):
            g.momentum_transform(xs, bad)
    ps, _ = g.momentum_transform(xs, psi, hbar=np.float32(0.5))
    assert ps.dtype == np.float64


def test_propagator_spec_validation():
    free = g.free_particle()
    constants = g.PhysicalConstants()
    with pytest.raises(g.ParameterError):
        g.PropagatorSpec(system=free, constants=constants,
                         domain=(-10.0, 10.0), dt=0.01, n_grid=1000)
    with pytest.raises(g.ParameterError):
        g.PropagatorSpec(system=free, constants=constants,
                         domain=(-10.0, 10.0), dt=0.01, n_grid=8)
    with pytest.raises(g.ParameterError):
        g.PropagatorSpec(system=free, constants=constants,
                         domain=(10.0, -10.0), dt=0.01)
    with pytest.raises(g.ParameterError):
        g.PropagatorSpec(system=free, constants=constants,
                         domain=(-10.0, 10.0), dt=0.0)


def test_potential_on_grid_shapes():
    xs = np.linspace(-2.0, 2.0, 5)
    constants = g.PhysicalConstants(mass=2.0)
    assert np.all(g.potential_on_grid(g.free_particle(), constants, xs) == 0.0)
    lin = g.potential_on_grid(g.uniform_acceleration(1.5), constants, xs)
    assert np.max(np.abs(lin - (-1.5 * xs))) < 1e-15
    sho = g.potential_on_grid(g.harmonic_oscillator(3.0), constants, xs)
    assert np.max(np.abs(sho - 0.5 * 2.0 * 9.0 * xs**2)) < 1e-13
    inv = g.potential_on_grid(g.inverted_oscillator(3.0), constants, xs)
    assert np.max(np.abs(inv + sho)) < 1e-13


def test_propagate_free_single_step_is_exact_kinetic_phase():
    params = g.make_params(alpha=1.0, p0=0.7)
    free = g.free_particle()
    spec = g.PropagatorSpec(system=free, constants=params.constants,
                            domain=(-40.0, 40.0), dt=0.01, n_grid=1024)
    xs = spec.grid()
    psi0 = g.eval_psi(free, params, xs, 0.0)
    stepped = g.propagate(psi0, spec, 0.01)
    ps = 2.0 * math.pi * np.fft.fftfreq(xs.size, xs[1] - xs[0]) * params.hbar
    kinetic_phase = np.exp(-1j * ps**2 * 0.01 / (2.0 * params.mass * params.hbar))
    manual = np.fft.ifft(kinetic_phase * np.fft.fft(psi0))
    assert np.all(stepped == manual)


def test_propagate_matches_analytic_free():
    params = g.make_params(alpha=1.0, p0=2.0**-0.5)
    free = g.free_particle()
    spec = g.PropagatorSpec(system=free, constants=params.constants,
                            domain=(-40.0, 40.0), dt=1.0 / 2000.0, n_grid=4096)
    xs = spec.grid()
    psi = g.propagate(g.eval_psi(free, params, xs, 0.0), spec, 2.0 * params.t0)
    exact = g.eval_psi(free, params, xs, 2.0 * params.t0)
    dx = xs[1] - xs[0]
    err = math.sqrt(float(np.sum(np.abs(psi - exact) ** 2) * dx))
    assert err < 1e-6


def test_propagate_conserves_norm():
    system = g.harmonic_oscillator(1.0)
    params = g.make_params(alpha=1.0, p0=1.0)
    for order in (2, 4):
        spec = g.PropagatorSpec(system=system, constants=params.constants,
                                domain=(-16.0, 16.0), dt=1e-4, n_grid=256,
                                order=order)
        xs = spec.grid()
        dx = xs[1] - xs[0]
        psi0 = g.eval_psi(system, params, xs, 0.0)
        psi = g.propagate(psi0, spec, 1.0)  # 10^4 steps
        n0 = float(np.sum(np.abs(psi0) ** 2) * dx)
        n1 = float(np.sum(np.abs(psi) ** 2) * dx)
        assert abs(n1 - n0) < 1e-12


def _sho_global_errors(order, step_counts):
    """(dts, L2 errors) of propagating the sho packet to a quarter period."""
    system = g.harmonic_oscillator(1.0)
    params = g.make_params(alpha=1.0, p0=1.0)
    t_final = math.pi / 2.0
    errs, dts = [], []
    for n_steps in step_counts:
        dt = t_final / n_steps
        spec = g.PropagatorSpec(system=system, constants=params.constants,
                                domain=(-20.0, 20.0), dt=dt, n_grid=512,
                                order=order)
        xs = spec.grid()
        dx = xs[1] - xs[0]
        psi = g.propagate(g.eval_psi(system, params, xs, 0.0), spec, t_final)
        exact = g.eval_psi(system, params, xs, t_final)
        errs.append(math.sqrt(float(np.sum(np.abs(psi - exact) ** 2) * dx)))
        dts.append(dt)
    return dts, errs


def test_propagate_second_order_in_dt():
    dts, errs = _sho_global_errors(2, (200, 400, 800, 1600))
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    assert abs(slope - 2.0) < 0.1
    # halving dt quarters the error
    assert abs(errs[0] / errs[1] - 4.0) < 0.2


def test_propagate_fourth_order_in_dt():
    # Step counts whose error (5e-6 down to 1e-9) stays well above rounding.
    dts, errs = _sho_global_errors(4, (20, 40, 80, 160))
    assert min(errs) > 1e-11
    slope = float(np.polyfit(np.log(dts), np.log(errs), 1)[0])
    assert abs(slope - 4.0) < 0.2


def test_propagate_strang_matches_reference_loop():
    """Order 2 matches, bit for bit, a plain np.fft Strang loop with
    these operand orders (complex multiply is not bitwise commutative)."""
    system = g.harmonic_oscillator(1.0)
    params = g.make_params(alpha=1.0, p0=1.0)
    spec = g.PropagatorSpec(system=system, constants=params.constants,
                            domain=(-20.0, 20.0), dt=0.005, n_grid=512)
    xs = spec.grid()
    psi0 = g.eval_psi(system, params, xs, 0.0)
    dt = 1.0 / 200
    v = g.potential_on_grid(system, params.constants, xs)
    half_v = np.exp(-0.5j * v * dt / params.hbar)
    p = 2.0 * math.pi * params.hbar * np.fft.fftfreq(xs.size, d=xs[1] - xs[0])
    kinetic_phase = np.exp(-0.5j * p * p * dt / (params.mass * params.hbar))
    psi = psi0.copy()
    for _ in range(200):
        psi = psi * half_v
        psi = np.fft.ifft(kinetic_phase * np.fft.fft(psi))
        psi = psi * half_v
    assert np.array_equal(g.propagate(psi0, spec, 1.0), psi)


def test_propagate_detects_boundary_escape():
    params = g.make_params(alpha=1.0, p0=6.0)
    free = g.free_particle()
    for order in (2, 4):
        spec = g.PropagatorSpec(system=free, constants=params.constants,
                                domain=(-8.0, 8.0), dt=0.01, n_grid=256,
                                order=order)
        xs = spec.grid()
        with pytest.raises(g.BoundaryError):
            g.propagate(g.eval_psi(free, params, xs, 0.0), spec, 2.0)


def test_propagate_validates_inputs():
    params = g.make_params()
    free = g.free_particle()
    spec = g.PropagatorSpec(system=free, constants=params.constants,
                            domain=(-10.0, 10.0), dt=0.01, n_grid=64)
    xs = spec.grid()
    psi0 = g.eval_psi(free, params, xs, 0.0)
    with pytest.raises(g.ParameterError):
        g.propagate(psi0[:-1], spec, 0.1)
    with pytest.raises(g.ParameterError):
        g.propagate(psi0, spec, -0.5)
    for bad in (np.where(xs == xs[5], np.nan, psi0), np.zeros_like(psi0)):
        for t_final in (0.0, 0.1):
            with pytest.raises(g.ParameterError):
                g.propagate(bad, spec, t_final)


def test_propagate_monitor_fails_on_nan_moments():
    # |psi|**2 overflows to inf, so the monitored mean is inf/inf = NaN.
    params = g.make_params()
    free = g.free_particle()
    spec = g.PropagatorSpec(system=free, constants=params.constants,
                            domain=(-10.0, 10.0), dt=0.01, n_grid=64)
    psi0 = 1e200 * g.eval_psi(free, params, spec.grid(), 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(g.BoundaryError):
            g.propagate(psi0, spec, 0.1)


# Numbers that are not finite reals: strings, bools and infinities are
# refused at every oracle entry point, as everywhere else in the package.
_NOT_FINITE_REALS = ("1", True, False, math.inf, math.nan, None)


@pytest.mark.parametrize("window", [
    ("0", "1"), (False, True), (0.0, math.inf), (-math.inf, 1.0), (0.0, "1"),
    5, (0.0, 1.0, 2.0),
])
def test_integrate_rejects_bad_window(window):
    """integrate's window and PropagatorSpec's domain pass one (lo, hi) gate."""
    with pytest.raises(g.ParameterError):
        g.integrate(lambda x: 1.0, window)
    with pytest.raises(g.ParameterError):
        g.PropagatorSpec(system=g.free_particle(), constants=g.PhysicalConstants(),
                         domain=window, dt=0.01)


def test_integrate_accepts_any_real_window():
    value = g.integrate(lambda x: 1.0, (np.float32(0.0), np.int64(1)))
    assert value.value == 1.0


@pytest.mark.parametrize("bad", _NOT_FINITE_REALS)
@pytest.mark.parametrize("field", ["domain_lo", "domain_hi", "dt"])
def test_propagator_spec_rejects_non_reals(field, bad):
    fields = {"domain_lo": -8.0, "domain_hi": 8.0, "dt": 0.01}
    fields[field] = bad
    with pytest.raises(g.ParameterError):
        g.PropagatorSpec(system=g.free_particle(), constants=g.PhysicalConstants(),
                         domain=(fields["domain_lo"], fields["domain_hi"]),
                         dt=fields["dt"])


def test_propagator_spec_stores_floats():
    spec = g.PropagatorSpec(system=g.free_particle(), constants=g.PhysicalConstants(),
                            domain=(np.int64(-8), np.float32(8.0)), dt=Fraction(1, 64),
                            n_grid=np.int64(64), order=np.int64(4))
    assert spec.domain == (-8.0, 8.0) and spec.dt == 1 / 64
    assert all(type(v) is float for v in (*spec.domain, spec.dt))
    assert type(spec.n_grid) is int and spec.grid().shape == (64,)
    assert type(spec.order) is int and spec.order == 4


@pytest.mark.parametrize("t_final", _NOT_FINITE_REALS)
def test_propagate_rejects_non_real_time(t_final):
    params = g.make_params()
    spec = g.PropagatorSpec(system=g.free_particle(), constants=params.constants,
                            domain=(-10.0, 10.0), dt=0.01, n_grid=64)
    psi0 = g.eval_psi(g.free_particle(), params, spec.grid(), 0.0)
    with pytest.raises(g.ParameterError):
        g.propagate(psi0, spec, t_final)


@pytest.mark.parametrize("h", _NOT_FINITE_REALS)
@pytest.mark.parametrize("fd", [g.fd_derivative, g.fd_second_derivative])
def test_fd_rejects_non_real_step(fd, h):
    with pytest.raises(g.ParameterError):
        fd(lambda x, t: x * x, 0.0, 0.0, h)


@pytest.mark.parametrize("n", [True, 64.0, np.float64(64.0), "64", 3, 4.0, "4"])
def test_integer_fields_reject_bool_and_non_integers(n):
    with pytest.raises(g.ParameterError):
        g.QuadratureSpec(max_subdivisions=n)
    for field in ("n_grid", "order"):
        with pytest.raises(g.ParameterError):
            g.PropagatorSpec(system=g.free_particle(), constants=g.PhysicalConstants(),
                             domain=(-8.0, 8.0), dt=0.01, **{field: n})


def test_quadrature_spec_accepts_numpy_integer():
    spec = g.QuadratureSpec(max_subdivisions=np.int64(50))
    assert type(spec.max_subdivisions) is int
    assert spec == g.QuadratureSpec(max_subdivisions=50)


@pytest.mark.parametrize("bad", _NOT_FINITE_REALS)
@pytest.mark.parametrize("field", ["rel_tol", "abs_tol", "window_sigmas"])
def test_quadrature_spec_rejects_non_reals(field, bad):
    with pytest.raises(g.ParameterError):
        g.QuadratureSpec(**{field: bad})
