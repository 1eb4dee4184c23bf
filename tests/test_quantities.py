import dataclasses
import fractions
import math

import numpy as np
import pytest

import gausspack as g


def test_derived_packet_scales():
    params = g.make_params(hbar=2.0, mass=3.0, alpha=0.5, x0=1.0, p0=-2.0)
    assert params.beta == 0.5 * 2.0
    assert params.t0 == 3.0 * 2.0 * 0.5**2
    assert params.dp0 == 1.0 / (0.5 * math.sqrt(2.0))
    assert params.dx0 == params.beta / math.sqrt(2.0)
    assert params.hbar == 2.0 and params.mass == 3.0


def test_uncertainty_product_is_hbar_over_two():
    rng = np.random.default_rng(7)
    for _ in range(25):
        hbar = float(rng.uniform(0.2, 3.0))
        params = g.make_params(hbar=hbar, mass=float(rng.uniform(0.2, 3.0)),
                               alpha=float(rng.uniform(0.1, 4.0)))
        assert abs(params.dx0 * params.dp0 - hbar / 2.0) < 1e-12 * hbar


def test_invalid_packet_parameters_rejected():
    with pytest.raises(g.ParameterError):
        g.make_params(alpha=0.0)
    with pytest.raises(g.ParameterError):
        g.make_params(alpha=-1.0)
    with pytest.raises(g.ParameterError):
        g.make_params(hbar=0.0)
    with pytest.raises(g.ParameterError):
        g.make_params(mass=-2.0)
    with pytest.raises(g.ParameterError):
        g.make_params(p0=float("nan"))
    with pytest.raises(g.ParameterError):
        g.make_params(x0=float("inf"))


REAL_TYPES = [np.float32(0.5), np.float64(0.5), np.int64(2), np.int32(2),
              fractions.Fraction(1, 2), 2]
NON_REALS = [True, False, np.bool_(True), "0.5", 0.5j, None]
# Reals beyond the float range are refused like infinities, also past
# the 4300 digits beyond which Python cannot print an integer.
OVERFLOWING = [pytest.param(10**400, id="10**400"),
               pytest.param(-10**400, id="-10**400"),
               pytest.param(fractions.Fraction(10**400, 3), id="Fraction(10**400,3)"),
               pytest.param(10**5000, id="10**5000"),
               pytest.param(-10**5000, id="-10**5000"),
               pytest.param(fractions.Fraction(10**5000, 3), id="Fraction(10**5000,3)")]


@pytest.mark.parametrize("value", REAL_TYPES, ids=repr)
def test_parameters_accept_any_real_and_store_floats(value):
    params = g.make_params(hbar=value, mass=value, alpha=value, x0=value, p0=value)
    for field in (params.hbar, params.mass, params.alpha, params.x0, params.p0):
        assert type(field) is float and field == float(value)
    assert params == g.make_params(*(float(value),) * 5)
    for factory, field in ((g.uniform_acceleration, "force"),
                           (g.harmonic_oscillator, "omega"),
                           (g.inverted_oscillator, "omega_tilde")):
        stored = getattr(factory(value), field)
        assert type(stored) is float and stored == float(value)
    derived = g.oscillator_derived(params.constants, value)
    assert derived == g.oscillator_derived(params.constants, float(value))


@pytest.mark.parametrize("value", NON_REALS + OVERFLOWING, ids=repr)
def test_parameters_reject_bools_and_non_reals(value):
    for name in ("hbar", "mass", "alpha", "x0", "p0"):
        with pytest.raises(g.ParameterError, match=name):
            g.make_params(**{name: value})
    with pytest.raises(g.ParameterError):
        g.PhysicalConstants(hbar=value)
    for factory in (g.uniform_acceleration, g.harmonic_oscillator,
                    g.inverted_oscillator):
        with pytest.raises(g.ParameterError):
            factory(value)


def test_packet_params_requires_consistent_derived_fields():
    constants = g.PhysicalConstants(hbar=1.0, mass=1.0)
    with pytest.raises(g.ParameterError):
        g.PacketParams(constants=constants, alpha=1.0, x0=0.0, p0=0.0,
                       beta=2.0, t0=1.0)
    with pytest.raises(g.ParameterError):
        g.PacketParams(constants=constants, alpha=1.0, x0=0.0, p0=0.0,
                       beta=1.0, t0=3.0)


@pytest.mark.parametrize("kwargs, name", [
    pytest.param({"alpha": 1e154, "mass": 1e20}, "t0", id="t0-overflows"),
    pytest.param({"alpha": 1e-200}, "t0", id="t0-underflows"),
    # beta = 1e-200 and t0 = 1e-300 are positive, but beta**2 is 0.0
    pytest.param({"alpha": 1e-100, "hbar": 1e-100}, "beta", id="beta-square-underflows"),
])
def test_packet_params_refuse_infinite_or_zero_derived_scales(kwargs, name):
    # Each input is valid on its own; t0 = mass*hbar*alpha**2 is inf or 0,
    # or beta = alpha*hbar has no nonzero square to divide by.
    with pytest.raises(g.ParameterError, match=f"^{name} = "):
        g.make_params(**kwargs)


def test_a_subnormal_beta_square_is_accepted():
    params = g.make_params(alpha=1e-80, hbar=1e-80)
    assert 0.0 < params.beta**2 < 2.2e-308
    assert math.isfinite(g.state_at(g.free_particle(), params, 1.0).width)
    assert math.isfinite(g.total_kinetic(g.harmonic_oscillator(1.0), params, 1.0))


def test_params_are_frozen():
    params = g.make_params()
    with pytest.raises(dataclasses.FrozenInstanceError):
        params.alpha = 2.0


def test_system_factories_and_kinds():
    assert g.free_particle().kind is g.SystemKind.FREE
    assert g.uniform_acceleration(-0.5).force == -0.5
    assert g.harmonic_oscillator(2.0).omega == 2.0
    assert g.inverted_oscillator(0.3).omega_tilde == 0.3
    assert g.SystemKind.FREE.value == "free"
    assert g.SystemKind.UNIFORM_ACCELERATION.value == "accel"
    assert g.SystemKind.HARMONIC.value == "sho"
    assert g.SystemKind.INVERTED.value == "inverted"


def test_system_spec_validation():
    with pytest.raises(g.ParameterError):
        g.harmonic_oscillator(0.0)
    with pytest.raises(g.ParameterError):
        g.harmonic_oscillator(-1.0)
    with pytest.raises(g.ParameterError):
        g.inverted_oscillator(0.0)
    with pytest.raises(g.ParameterError):
        g.uniform_acceleration(float("nan"))
    with pytest.raises(g.ParameterError):
        g.SystemSpec(kind=g.SystemKind.FREE, force=1.0)
    with pytest.raises(g.ParameterError):
        g.SystemSpec(kind=g.SystemKind.HARMONIC)
    with pytest.raises(g.ParameterError):
        g.SystemSpec(kind=g.SystemKind.HARMONIC, omega=1.0, force=1.0)


def test_system_spec_requires_an_enum_kind():
    # SystemKind is a str enum: the plain strings equal its members but
    # would slip past every `kind is SystemKind.X` test downstream.
    with pytest.raises(g.ParameterError):
        g.SystemSpec(kind="accel", force=1.0)
    with pytest.raises(g.ParameterError):
        g.SystemSpec(kind="free")


@pytest.mark.parametrize("kind, shape", [
    (g.SystemKind.FREE, {}),
    (g.SystemKind.UNIFORM_ACCELERATION, {"force": -0.5}),
    (g.SystemKind.HARMONIC, {"omega": 2.0}),
    (g.SystemKind.INVERTED, {"omega_tilde": 0.3}),
])
def test_system_spec_rejects_a_stray_shape_field(kind, shape):
    assert g.SystemSpec(kind=kind, **shape).kind is kind
    for stray in ("force", "omega", "omega_tilde"):
        if stray not in shape:
            with pytest.raises(g.ParameterError):
                g.SystemSpec(kind=kind, **shape, **{stray: 1.0})


def test_oscillator_derived_scales():
    derived = g.oscillator_derived(g.PhysicalConstants(1.0, 1.0), 1.0)
    assert derived.beta0 == 1.0
    assert derived.tau == 2.0 * math.pi
    derived = g.oscillator_derived(g.PhysicalConstants(hbar=2.0, mass=0.5), 4.0)
    assert derived.beta0 == 1.0
    assert abs(derived.tau - math.pi / 2.0) < 1e-15
