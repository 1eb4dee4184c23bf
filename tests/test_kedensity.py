import json
import math

import numpy as np
import pytest

import gausspack as g
from gausspack import figures, kedensity

from conftest import FOUR_CASES

SQRT_PI = math.sqrt(math.pi)


def test_density_integrates_to_three_quarters():
    # alpha = hbar = m = 1, p0 = 1, t = 0: T = (p0^2 + 1/(2 alpha^2))/2 = 0.75
    params = g.make_params(alpha=1.0, p0=1.0)
    free = g.free_particle()
    assert g.total_kinetic(free, params, 0.0) == 0.75
    value = g.integrate(
        lambda x: g.kinetic_density(free, params, x, 0.0),
        g.packet_window(free, params, 0.0),
    )
    assert abs(value.value - 0.75) < 1e-10


def test_density_nonnegative_and_matches_derivative(four_cases):
    rng = np.random.default_rng(5)
    for system, params, t in four_cases:
        state = g.state_at(system, params, t)
        m = g.moments_at(system, params, t)
        xs = m.mean_x + rng.uniform(-4, 4, size=40) * math.sqrt(m.var_x)
        dens = g.kinetic_density(system, params, xs, t)
        assert np.all(dens >= 0.0)
        direct = (params.hbar**2 / (2 * params.mass)) * np.abs(
            state.dpsi_dx(xs)
        ) ** 2
        assert np.max(np.abs(dens - direct)) < 1e-12 * np.max(direct)


def test_halves_sum_and_fraction_identities(four_cases):
    rng = np.random.default_rng(9)
    for system, params, _ in four_cases:
        for _ in range(10):
            t = float(rng.uniform(0.0, 2.0))
            s = g.half_energies(system, params, t)
            assert s.r_plus + s.r_minus == 1.0
            assert abs((s.plus + s.minus) - s.total) < 1e-14 * s.total
            assert 0.0 < s.r_plus < 1.0
            assert s.plus >= 0.0 and s.minus >= 0.0


def test_halves_match_quadrature(four_cases):
    for system, params, t in four_cases:
        lo_win, hi_win = g.half_windows(system, params, t)
        plus = g.integrate(
            lambda x: g.kinetic_density(system, params, x, t), hi_win)
        minus = g.integrate(
            lambda x: g.kinetic_density(system, params, x, t), lo_win)
        s = g.half_energies(system, params, t)
        assert abs(plus.value - s.plus) < 1e-8 * s.total
        assert abs(minus.value - s.minus) < 1e-8 * s.total


def test_free_fraction_growth_and_limit():
    free = g.free_particle()
    params = g.make_params(alpha=1.0, p0=2.0**-0.5)
    times = np.linspace(0.0, 50.0, 200)
    r = [g.half_energies(free, params, float(t)).r_plus for t in times]
    assert r[0] == 0.5
    assert all(b >= a - 1e-15 for a, b in zip(r, r[1:]))  # monotone rise
    limit = g.fraction_limits(free, params)[0]
    assert abs(g.half_energies(free, params, 1e6).r_plus - limit) < 1e-6
    # closed-form maximum over p0 at p0*alpha = 1/sqrt(2)
    assert abs(limit - (0.5 + 1.0 / math.sqrt(2.0 * math.pi))) < 1e-12


def test_free_fraction_formula():
    # r_plus(t) - 1/2 = (2/sqrt(pi)) * p0*alpha * (t/t0)/sqrt(1+(t/t0)^2)
    #                   / (2*(p0*alpha)^2 + 1)
    free = g.free_particle()
    rng = np.random.default_rng(21)
    for _ in range(20):
        alpha = float(rng.uniform(0.3, 2.0))
        p0 = float(rng.uniform(-2.0, 2.0))
        t = float(rng.uniform(0.0, 5.0))
        params = g.make_params(alpha=alpha, p0=p0)
        ratio = t / params.t0
        s = p0 * alpha
        expected = 0.5 + (2.0 / SQRT_PI) * s * ratio / math.hypot(1.0, ratio) / (
            2.0 * s * s + 1.0
        )
        got = g.half_energies(free, params, t).r_plus
        assert abs(got - expected) < 1e-12


def test_extremal_p0_maximizes_free_limit():
    free = g.free_particle()
    for alpha in (0.5, 1.0, 1.7):
        base = g.make_params(alpha=alpha)
        star = g.extremal_p0(free, base)
        assert abs(star * alpha - 2.0**-0.5) < 1e-15
        r_star = g.fraction_limits(free, g.make_params(alpha=alpha, p0=star))[0]
        for eps in (-1e-3, 1e-3):
            r = g.fraction_limits(
                free, g.make_params(alpha=alpha, p0=star + eps))[0]
            assert r <= r_star


def test_sho_balanced_when_beta_equals_beta0():
    system = g.harmonic_oscillator(1.0)
    params = g.make_params(alpha=1.0, p0=1.3)  # beta = beta0 = 1
    for t in np.linspace(0.0, 2.0 * math.pi, 17):
        s = g.half_energies(system, params, float(t))
        assert s.r_plus == 0.5
    # away from beta0 the ratio moves but stays balanced at quarter periods
    params = g.make_params(alpha=0.5, p0=1.0)
    tau = 2.0 * math.pi
    for k in range(5):
        s = g.half_energies(system, params, k * tau / 4.0)
        assert abs(s.r_plus - 0.5) < 1e-13


def test_sho_sign_structure():
    system = g.harmonic_oscillator(1.0)
    tau = 2.0 * math.pi
    probe = 0.6 * tau / 4.0
    narrow = g.make_params(alpha=0.5, p0=1.0)    # beta < beta0: front-loaded
    wide = g.make_params(alpha=2.0, p0=1.0)      # beta > beta0: back-loaded
    assert g.half_energies(system, narrow, probe).r_plus > 0.5
    assert g.half_energies(system, wide, probe).r_plus < 0.5
    # reversing the launch direction mirrors the split
    back = g.make_params(alpha=0.5, p0=-1.0)
    fwd = g.half_energies(system, narrow, probe)
    rev = g.half_energies(system, back, probe)
    assert abs(fwd.r_plus + rev.r_plus - 1.0) < 1e-14


def test_sho_fraction_limits_attained_at_eighth_period():
    system = g.harmonic_oscillator(1.0)
    base = g.make_params(alpha=0.5)
    params = g.make_params(alpha=0.5, p0=g.extremal_p0(system, base))
    r_plus, r_minus = g.fraction_limits(system, params)
    tau = 2.0 * math.pi
    s = g.half_energies(system, params, tau / 8.0)
    assert abs(s.r_plus - r_plus) < 1e-12
    assert abs(s.r_minus - r_minus) < 1e-12


def test_accel_matches_free_at_boosted_momentum():
    # instantaneous splits coincide with a free packet at momentum p0 + F t
    accel = g.uniform_acceleration(0.8)
    free = g.free_particle()
    params = g.make_params(alpha=0.8, p0=-0.6)
    for t in (0.0, 0.7, 1.9):
        boosted = g.make_params(alpha=0.8, p0=params.p0 + 0.8 * t)
        a = g.half_energies(accel, params, t)
        b = g.half_energies(free, boosted, t)
        assert a.total == b.total
        assert a.plus == b.plus and a.minus == b.minus


def test_accel_balance_when_momentum_vanishes():
    accel = g.uniform_acceleration(1.0)
    params = g.make_params(alpha=1.0, p0=-1.0)
    s = g.half_energies(accel, params, 1.0)  # p0 + F t = 0 here
    assert s.r_plus == 0.5
    before = g.half_energies(accel, params, 0.9)
    after = g.half_energies(accel, params, 1.1)
    assert before.r_plus < 0.5 < after.r_plus


def test_accel_event_times_and_amplitude():
    accel = g.uniform_acceleration(1.0)
    params = g.make_params(alpha=1.0, p0=-1.0)
    lo, hi = g.accel_event_times(accel, params)
    assert abs(abs(params.p0 + lo) - params.dp0) < 1e-15
    assert abs(abs(params.p0 + hi) - params.dp0) < 1e-15
    peak = g.asymmetry_amplitude(accel, params, lo)
    for dt in (-0.01, 0.01):
        assert g.asymmetry_amplitude(accel, params, lo + dt) < peak
    with pytest.raises(g.ParameterError):
        g.accel_event_times(g.uniform_acceleration(0.0), params)
    with pytest.raises(g.ParameterError):
        g.accel_event_times(g.free_particle(), params)
    with pytest.raises(g.ParameterError):
        g.asymmetry_amplitude(g.harmonic_oscillator(1.0), params, 0.5)


def test_accel_limits_are_balanced():
    accel = g.uniform_acceleration(0.5)
    params = g.make_params(alpha=1.0, p0=-1.0)
    assert g.fraction_limits(accel, params) == (0.5, 0.5)
    # and the fractions do decay toward 1/2 at large times
    drift = abs(g.half_energies(accel, params, 1e4).r_plus - 0.5)
    assert drift < 1e-3


def test_inverted_fraction_saturates():
    system = g.inverted_oscillator(1.0)
    params = g.make_params(alpha=1.0, p0=1.0)
    r_inf = g.fraction_limits(system, params)[0]
    assert abs(g.half_energies(system, params, 20.0).r_plus - r_inf) < 1e-6
    assert abs(r_inf - (0.5 + 1.0 / math.sqrt(2.0 * math.pi))) < 1e-12


def test_inverted_extremal_p0_maximizes_saturation():
    system = g.inverted_oscillator(0.7)
    base = g.make_params(alpha=1.3)
    star = g.extremal_p0(system, base)
    r_star = g.fraction_limits(system, g.make_params(alpha=1.3, p0=star))[0]
    for eps in (-1e-3, 1e-3):
        r = g.fraction_limits(
            system, g.make_params(alpha=1.3, p0=star + eps))[0]
        assert r <= r_star


def test_extremal_p0_undefined_for_accel():
    with pytest.raises(g.ParameterError):
        g.extremal_p0(g.uniform_acceleration(1.0), g.make_params())


def test_scaled_density_normalized(four_cases):
    for system, params, t in four_cases:
        window = g.packet_window(system, params, t)
        value = g.integrate(
            lambda x: g.scaled_density(system, params, x, t), window)
        assert abs(value.value - 1.0) < 1e-9
        xs = np.linspace(window[0], window[1], 64)
        dens = g.kinetic_density(system, params, xs, t)
        total = g.total_kinetic(system, params, t)
        assert np.max(np.abs(
            g.scaled_density(system, params, xs, t) - dens / total)) < 1e-15


def test_fractions_series_matches_pointwise():
    """The array-valued series gives half_energies' bits at every time."""
    rng = np.random.default_rng(41)
    systems = (
        (g.free_particle(), 40.0),
        (g.uniform_acceleration(-0.7), 40.0),
        (g.harmonic_oscillator(1.3), 80.0),
        # |omega_tilde*t| up to 299: both sides of the hyperbolic split at 30
        (g.inverted_oscillator(0.8), 299.0 / 0.8),
    )
    for system, span in systems:
        drifting = system.kind in (g.SystemKind.FREE, g.SystemKind.UNIFORM_ACCELERATION)
        for _ in range(25):
            params = g.make_params(
                hbar=float(rng.uniform(0.3, 3.0)), mass=float(rng.uniform(0.3, 3.0)),
                alpha=float(rng.uniform(0.3, 3.0)), p0=float(rng.uniform(-3.0, 3.0)),
                x0=float(rng.uniform(-2.0, 2.0)) if drifting else 0.0)
            times = [float(t) for t in rng.uniform(-span, span, 40)]
            times += [0.0, -0.0, 30.0 / 0.8, -299.0 / 0.8]
            series = g.fractions_series(system, params, times)
            pointwise = [g.half_energies(system, params, t) for t in times]
            assert all(type(s) is g.EnergySplit for s in series)
            assert np.array(series).tobytes() == np.array(pointwise).tobytes()


def test_fractions_series_takes_any_iterable(four_cases):
    for system, params, t in four_cases:
        expected = tuple(g.half_energies(system, params, u) for u in (0.0, t, -t))
        assert g.fractions_series(system, params, np.array([0.0, t, -t])) == expected
        assert g.fractions_series(system, params, (u for u in (0.0, t, -t))) == expected
        assert g.fractions_series(system, params, []) == ()


_DENSITY_SCENARIO = json.dumps({
    "version": 1, "name": "density-once", "system": "sho", "omega": 1.4,
    "alpha": 1.1, "p0": 0.9, "times": [0.0, 1.9],
    "outputs": ["psi", "prob", "kedensity", "scaled"], "grid_n": 32,
})


def test_figure_tables_evaluates_the_density_once_per_time(monkeypatch):
    calls = []
    original = kedensity.kinetic_density

    def counted(*args):
        calls.append(args[-1])
        return original(*args)

    monkeypatch.setattr(kedensity, "kinetic_density", counted)
    monkeypatch.setattr(figures, "kinetic_density", counted)
    tables = figures.figure_tables(g.load_scenario(_DENSITY_SCENARIO))
    assert [columns[-2:] for _, columns, _ in tables] == [["kedensity", "scaled"]] * 2
    assert calls == [0.0, 1.9]


def test_non_positive_total_is_refused_by_scaled_and_figure_tables(monkeypatch):
    system, params = g.harmonic_oscillator(1.4), g.make_params(alpha=1.1, p0=0.9)
    monkeypatch.setattr(kedensity, "total_kinetic", lambda *args: 0.0)
    with pytest.raises(g.ParameterError, match="not positive"):
        g.scaled_density(system, params, 0.0, 1.0)
    with pytest.raises(g.ParameterError, match="not positive"):
        figures.figure_tables(g.load_scenario(_DENSITY_SCENARIO))


_UNDERFLOWING_TOTAL = {"hbar": 1e-130, "mass": 1e308, "alpha": 1e10}


def test_a_total_that_underflows_to_zero_is_refused_on_both_paths():
    """T(0) = 1/(4*alpha**2*m) is 0.0 here: half_energies divided by it
    (ZeroDivisionError) and fractions_series gave r_plus = nan."""
    system, params = g.free_particle(), g.make_params(**_UNDERFLOWING_TOTAL)
    assert g.total_kinetic(system, params, 0.0) == 0.0
    with pytest.raises(g.ParameterError, match="^total kinetic energy is not positive$"):
        g.half_energies(system, params, 0.0)
    with pytest.raises(g.ParameterError, match="^total kinetic energy is not positive$"):
        g.fractions_series(system, params, [0.0, 1.0])
    # The free packet's T is constant in t: its limit row has the same T.
    with pytest.raises(g.ParameterError, match="^total kinetic energy is not positive$"):
        g.fraction_limits(system, params)
    with pytest.raises(g.ParameterError, match="^total kinetic energy is not positive$"):
        g.asymmetry_amplitude(system, params, 1.0)


_OVERFLOWING_TOTAL = {"mass": 1e-200, "alpha": 1e-130, "hbar": 1e140}


def test_a_total_that_overflows_is_refused_on_every_path():
    """T = 1/(4*alpha**2*m) is inf here: half_energies gave total = inf and
    plus = minus = r_plus = nan with no error."""
    system, params = g.free_particle(), g.make_params(**_OVERFLOWING_TOTAL)
    assert g.total_kinetic(system, params, 1.0) == math.inf
    message = "^total kinetic energy overflows the float range$"
    with pytest.raises(g.ParameterError, match=message):
        g.half_energies(system, params, 1.0)
    with pytest.raises(g.ParameterError, match=message):
        g.fractions_series(system, params, [0.0, 1.0])
    with pytest.raises(g.ParameterError, match=message):
        g.fractions_series(system, params, [np.float64(0.0), 1.0])
    with pytest.raises(g.ParameterError, match=message):
        g.scaled_density(system, params, 0.0, 1.0)
    with pytest.raises(g.ParameterError, match=message):
        g.fraction_limits(system, params)
    with pytest.raises(g.ParameterError, match=message):
        g.asymmetry_amplitude(system, params, 1.0)


def test_the_first_time_whose_total_fails_names_the_fault_on_both_paths():
    """T(0) underflows to 0.0 and T(1e160) overflows, as p_t = F*t does."""
    system = g.uniform_acceleration(1e150)
    params = g.make_params(mass=1e20, alpha=1e154, hbar=1e-21)
    for first, other, fault in ((0.0, 1e160, "is not positive"),
                                (1e160, 0.0, "overflows the float range")):
        for times in ([first, other], [np.float64(first), other]):
            with pytest.raises(g.ParameterError, match=f"^total kinetic energy {fault}$"):
                g.fractions_series(system, params, times)


# |r_plus - 1/2| = |delta/T| = |p*sh|/(sqrt(pi)*(p**2 + S**2/2)) with p = p_t,
# S = |beta*P| and |sh| <= S, which is at most 1/sqrt(2*pi): the bound holds for
# every Gaussian state of every system.  docs/energy_split.md section 5.
_BOUND = 0.5 + 1.0 / math.sqrt(2.0 * math.pi)
_ULPS = 4 * math.ulp(_BOUND)


def _bound_cases(rng, n_params=120, n_times=40):
    """(system, params, times): hbar, mass, alpha and the shape over two decades,
    |p0| <= 100 or the extremal p0, t over six decades of the system's time
    scale (|omega_tilde*t| < 30), either sign."""
    for make in (g.free_particle, g.uniform_acceleration, g.harmonic_oscillator,
                 g.inverted_oscillator):
        drifting = make in (g.free_particle, g.uniform_acceleration)
        for _ in range(n_params):
            hbar, mass, alpha, shape = 10.0 ** rng.uniform(-1.0, 1.0, 4)
            if make is g.free_particle:
                system = make()
            elif make is g.uniform_acceleration:
                system = make(rng.choice((-shape, shape)))
            else:
                system = make(shape)
            base = g.make_params(hbar=hbar, mass=mass, alpha=alpha)
            if make is not g.uniform_acceleration and rng.random() < 0.3:
                p0 = g.extremal_p0(system, base)
            else:
                p0 = rng.uniform(-100.0, 100.0)
            params = g.make_params(hbar=hbar, mass=mass, alpha=alpha, p0=p0)
            if make is g.inverted_oscillator:
                scaled = 30.0 * 10.0 ** rng.uniform(-6.0, 0.0, n_times)
            else:
                scaled = 10.0 ** rng.uniform(-3.0, 3.0, n_times)
            unit = params.t0 if drifting else 1.0 / shape
            signs = rng.choice((-1.0, 1.0), n_times)
            yield system, params, (signs * scaled * unit).tolist()


def _check_the_bound():
    rng = np.random.default_rng(17)
    for system, params, times in _bound_cases(rng):
        splits = np.array(g.fractions_series(system, params, times))
        worst = float(splits[:, 4:].max())  # the larger of r_plus and r_minus
        assert worst <= _BOUND + _ULPS, (system, params, worst)
    # The bound is the supremum: the free extremal packet approaches it.
    free = g.free_particle()
    for hbar, mass, alpha in ((1.0, 1.0, 1.0), (0.2, 7.0, 3.0), (9.0, 0.3, 0.15)):
        base = g.make_params(hbar=hbar, mass=mass, alpha=alpha)
        params = g.make_params(hbar=hbar, mass=mass, alpha=alpha, p0=g.extremal_p0(free, base))
        late, later = (s.r_plus for s in g.fractions_series(
            free, params, [100.0 * params.t0, 1e4 * params.t0]))
        assert _BOUND - late <= 2.1e-5 and _BOUND - later <= 3e-9, (params, late, later)


def test_no_gaussian_carries_more_than_the_bound_in_one_half():
    _check_the_bound()


def _doubled_delta(monkeypatch):
    shear = kedensity._shear
    monkeypatch.setattr(kedensity, "_shear", lambda *row: 2.0 * shear(*row))


def _no_half_in_spread_energy(monkeypatch):
    monkeypatch.setattr(kedensity, "_kinetic", lambda mass, grow2, p_t, beta_c, d_over_alpha: (
        grow2 * ((p_t * p_t + (beta_c * beta_c + d_over_alpha * d_over_alpha)) / (2.0 * mass))))


@pytest.mark.parametrize("fault", [_doubled_delta, _no_half_in_spread_energy])
def test_a_wrong_split_fails_the_bound_check(monkeypatch, fault):
    """Negative control: twice delta passes the bound, and T with |beta*P|**2
    in place of |beta*P|**2/2 keeps the extremal packet far below it."""
    fault(monkeypatch)
    with pytest.raises(AssertionError):
        _check_the_bound()


# The per-system closed forms fraction_limits, extremal_p0 and
# asymmetry_amplitude evaluated before they read half_energies' arithmetic at
# a limit point (docs/energy_split.md section 6): the new path is held to them.
def _reference_limits(system, params):
    kind, beta = system.kind, params.beta
    if kind is g.SystemKind.UNIFORM_ACCELERATION:
        return 0.5, 0.5
    if kind is g.SystemKind.FREE:
        s = params.p0 * params.alpha
        shift = (2.0 / SQRT_PI) * s / (2.0 * s * s + 1.0)
        return 0.5 + shift, 0.5 - shift
    omega = system.shape
    gamma = params.hbar / (params.mass * omega * beta)
    kappa = gamma * gamma + beta**2
    s = params.p0 / (params.mass * omega)
    shift = (2.0 / SQRT_PI) * (s / (2.0 * s * s + kappa))
    if kind is g.SystemKind.HARMONIC:
        shift = shift * (gamma * gamma - beta**2) / math.sqrt(kappa)
    else:
        shift = shift * math.sqrt(kappa)
    return 0.5 + shift, 0.5 - shift


def _reference_extremal_p0(system, params):
    if system.kind is g.SystemKind.FREE:
        return 1.0 / (params.alpha * math.sqrt(2.0))
    product = params.beta * params.mass * system.shape
    return math.sqrt(product**2 / 2.0 + params.hbar**2 / (2.0 * params.beta**2))


def _reference_amplitude(system, params, t):
    s = params.alpha * (params.p0 + system.shape * t)
    return (2.0 / SQRT_PI) * abs(s) / (2.0 * s * s + 1.0)


def test_the_limit_rows_reproduce_the_per_system_closed_forms():
    rng = np.random.default_rng(29)
    for system, params, times in _bound_cases(rng, n_params=500, n_times=2):
        limits = g.fraction_limits(system, params)
        reference = _reference_limits(system, params)
        assert max(abs(a - b) for a, b in zip(limits, reference)) <= 4.5e-16
        assert limits[0] + limits[1] == 1.0
        if system.kind in (g.SystemKind.FREE, g.SystemKind.UNIFORM_ACCELERATION):
            for t in times:
                amplitude = g.asymmetry_amplitude(system, params, t)
                assert abs(amplitude - _reference_amplitude(system, params, t)) <= 4.5e-16
        if system.kind is not g.SystemKind.UNIFORM_ACCELERATION:
            assert g.extremal_p0(system, params) == _reference_extremal_p0(system, params)


@pytest.mark.parametrize("name", ["fig3", "fig4"])
def test_extremal_p0_keeps_the_bits_of_the_oscillator_presets(name):
    scenario = g.preset(name)
    base = g.make_params(alpha=scenario.params.alpha)
    assert scenario.params.p0 == _reference_extremal_p0(scenario.system, base)
    assert scenario.params.p0.hex() == "0x1.752e50db3a3a2p+0"
