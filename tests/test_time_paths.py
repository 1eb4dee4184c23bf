"""The per-time paths agree with each other bit for bit.

fractions_series has two paths.  A list of finite ints and floats, within
the oscillator's bound of its plain functions, is gated once and
evaluated over arrays, with the math-module functions mapped per time;
any other list is half_energies per time, the scalar reference.
moments_at places the packet with the geometry alone, state_at builds
the whole state.  Over seeded systems, parameters and times these pairs
must give the same bits, each list must take the path its times choose,
and a list with a bad time must be refused as the scalar call refuses
that time.  The comparisons are between two library paths, not against
pinned digests, so they hold at every numpy dispatch level.
"""

import json
import math
import random

import numpy as np
import pytest

import gausspack as g
from gausspack import kedensity

SEEDS = (1, 2, 3)


def _hex(record):
    return [(type(v).__name__, float(v).hex()) for v in record]


def _cases(rng):
    """(system, params, times) for each of the four systems."""
    def params(drifting):
        return g.make_params(
            hbar=rng.uniform(0.1, 10.0), mass=rng.uniform(0.1, 10.0),
            alpha=rng.uniform(0.1, 10.0), p0=rng.uniform(-5.0, 5.0),
            x0=rng.uniform(-5.0, 5.0) if drifting else 0.0)

    def times(n, span):
        return [rng.uniform(-span, span) for _ in range(n)]

    omega = rng.uniform(0.1, 10.0)
    rate = rng.uniform(0.1, 10.0)

    def edges(*zs):
        return [s * z / rate for z in zs for s in (-1.0, 1.0)]

    # |omega_tilde*t| within the hyperbolic split at 30, on both sides of it,
    # and up to 299
    return (
        (g.free_particle(), params(True), times(200, 50.0)),
        (g.uniform_acceleration(rng.uniform(-5.0, 5.0)), params(True), times(200, 50.0)),
        (g.harmonic_oscillator(omega), params(False), times(200, 1e3 / omega)),
        (g.inverted_oscillator(rate), params(False), times(200, 30.0 / rate) + edges(30.0)),
        (g.inverted_oscillator(rate), params(False),
         times(200, 31.0 / rate) + edges(29.5, 30.0, 30.5)),
        (g.inverted_oscillator(rate), params(False), times(200, 299.0 / rate) + edges(298.5, 299.0)),
    )


@pytest.mark.parametrize("seed", SEEDS)
def test_fractions_series_gives_the_bits_of_half_energies(seed):
    for system, params, times in _cases(random.Random(seed)):
        # Ints and floats take the one-array gate; an np.float64 among them
        # the per-time one.
        for extra in ([], [3], [np.float64(3.0)]):
            given = times[:50] + extra + times[50:]
            series = g.fractions_series(system, params, given)
            assert len(series) == len(given)
            for t, split in zip(given, series):
                assert _hex(split) == _hex(g.half_energies(system, params, t)), (system, t)


@pytest.mark.parametrize("seed", SEEDS)
def test_each_list_takes_the_path_its_times_choose(seed, monkeypatch):
    calls = []
    original = kedensity.half_energies

    def counted(system, params, t):
        calls.append(t)
        return original(system, params, t)

    monkeypatch.setattr(kedensity, "half_energies", counted)
    cases = _cases(random.Random(seed))
    # Floats and an int within every bound: the one-array path.
    for system, params, times in cases[:4]:
        g.fractions_series(system, params, times[:100] + [3] + times[100:200])
    assert calls == []
    # An np.float64 on any system, or inverted times past |omega_tilde*t| = 30:
    # half_energies once per time.
    for system, params, times in cases[:4]:
        given = times[:50] + [np.float64(3.0)] + times[50:]
        g.fractions_series(system, params, given)
        assert calls == given
        calls.clear()
    for system, params, times in cases[4:]:
        g.fractions_series(system, params, times)
        assert calls == times
        calls.clear()


@pytest.mark.parametrize("system, bad", [
    (g.free_particle(), math.nan),
    (g.uniform_acceleration(1.0), True),
    (g.harmonic_oscillator(1.0), 10**400),
    (g.harmonic_oscillator(1e150), 1e300),  # omega*t beyond the float range
    (g.inverted_oscillator(1.0), 301.0),
    (g.inverted_oscillator(1.0), -301.0),
    (g.inverted_oscillator(1.0), [1.0, 301.0, math.nan]),  # a whole list
])
def test_a_bad_time_in_a_list_is_refused_as_the_scalar_call_refuses_it(system, bad):
    params = g.make_params(p0=0.5)
    times = bad if type(bad) is list else [0.0, 0.5, 1.0, bad, 2.0, math.inf]
    with pytest.raises(Exception) as scalar:  # the first bad time decides
        for t in times:
            g.half_energies(system, params, t)
    with pytest.raises(type(scalar.value)) as series:
        g.fractions_series(system, params, times)
    assert type(series.value) is type(scalar.value)
    assert str(series.value) == str(scalar.value)


@pytest.mark.parametrize("seed", SEEDS)
def test_moments_place_the_packet_where_the_state_does(seed):
    for system, params, times in _cases(random.Random(seed)):
        for t in times[::10]:
            state = g.state_at(system, params, t)
            moments = g.moments_at(system, params, t)
            assert moments.mean_x.hex() == state.center.hex(), (system, t)
            assert moments.var_x.hex() == (state.width**2 / 2.0).hex(), (system, t)


def test_records_keep_their_named_tuple_types():
    params = g.make_params(p0=0.5)
    for system in (g.free_particle(), g.harmonic_oscillator(1.0), g.inverted_oscillator(1.0)):
        assert type(g.state_at(system, params, 0.5)) is g.PacketState
        assert type(g.moments_at(system, params, 0.5)) is g.Moments
        assert type(g.half_energies(system, params, 0.5)) is g.EnergySplit
        series = g.fractions_series(system, params, [0.0, 0.5, 40.0])
        assert {type(s) for s in series} == {g.EnergySplit}
        assert g.state_at(system, params, 0.5)._fields == g.PacketState._fields


@pytest.mark.parametrize("times, unit", [
    ([0, 1.5, 2, -3, 2**60 + 1, -0.0, 1e-320], "abs"),
    ([0, 1.5, 2, -3, 2**60 + 1], "t0"),
    ([1, 0.25, 7], "tau"),
])
def test_loader_times_mix_ints_and_floats(times, unit):
    system = {"system": "sho", "omega": 1.7} if unit == "tau" else {"system": "free"}
    doc = {"version": 1, "name": "t", **system, "alpha": 1.3,
           "times": {"unit": unit, "values": times}}
    scenario = g.load_scenario(json.dumps(doc))
    scale = {"abs": 1.0, "t0": scenario.params.t0, "tau": 2.0 * math.pi / 1.7}[unit]
    # The per-value rule: each time as a float, then scaled.
    assert _hex(scenario.times) == _hex(tuple(float(v) * scale for v in times))


@pytest.mark.parametrize("times, message", [
    ([1.0, 10**400, 2.0], "times must be a finite number, got 1000"),
    ([1.0, True], "times must be a finite number, got True"),
    ([1.0, 1e308], "times in unit 't0' must be a finite number, got inf"),
])
def test_loader_refuses_the_first_bad_time_by_the_per_value_rule(times, message):
    doc = {"version": 1, "name": "t", "system": "free", "mass": 10.0,
           "times": {"unit": "t0", "values": times}}
    with pytest.raises(g.ScenarioError, match="^field 'times': " + message):
        g.load_scenario(json.dumps(doc))
