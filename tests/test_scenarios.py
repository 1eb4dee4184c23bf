import json
import math

import pytest

import gausspack as g
from gausspack.scenarios import PRESET_NAMES


def test_preset_names():
    assert PRESET_NAMES == (
        "fig1", "fig2-bottom", "fig2-middle", "fig2-top", "fig3", "fig4")
    with pytest.raises(g.UnknownPresetError):
        g.preset("fig9")


def test_preset_fig2_family():
    top = g.preset("fig2-top")
    middle = g.preset("fig2-middle")
    bottom = g.preset("fig2-bottom")
    for s in (top, middle, bottom):
        assert s.system.kind is g.SystemKind.FREE
        assert s.params.alpha == 1.0 and s.params.hbar == 1.0
        assert s.times == (10.0 * s.params.t0,)
        assert isinstance(s.window, g.RelativeWindow)
    assert top.params.p0 == 0.0
    assert middle.params.p0 == middle.params.dp0
    assert bottom.params.p0 == 4.0 * bottom.params.dp0


def test_preset_oscillator_family():
    fig3 = g.preset("fig3")
    fig4 = g.preset("fig4")
    assert fig3.system.kind is g.SystemKind.HARMONIC and fig3.system.omega == 1.0
    tau = 2.0 * math.pi
    expected_times = (0.0, tau / 16, tau / 8, 3 * tau / 16, tau / 4)
    assert fig3.times == expected_times and fig4.times == expected_times
    # beta0 = 1 for omega = hbar = m = 1
    assert fig3.params.beta == 0.5
    assert fig4.params.beta == 2.0
    for s in (fig3, fig4):
        assert s.params.p0 == g.extremal_p0(s.system, s.params)


def test_preset_fig1():
    fig1 = g.preset("fig1")
    assert fig1.system.kind is g.SystemKind.FREE
    assert fig1.times[0] == 0.0 and len(fig1.times) == 5
    assert isinstance(fig1.window, g.AbsoluteWindow)
    assert "psi" in fig1.outputs


def test_round_trip_all_presets():
    for name in PRESET_NAMES:
        scenario = g.preset(name)
        text = g.serialize_scenario(scenario)
        again = g.load_scenario(text)
        assert again == scenario
        # serialization is stable, not merely equality-preserving
        assert g.serialize_scenario(again) == text


def test_preset_reference_document():
    scenario = g.load_scenario('{"version": 1, "preset": "fig2-middle"}')
    assert scenario == g.preset("fig2-middle")


_FIG2_DOC = {
    "system": "free", "alpha": 1.0,
    "times": {"unit": "t0", "values": [10.0]},
    "window": {"unit": "dx_t", "halfwidth": 6.0},
    "outputs": ["psi", "prob", "scaled"], "grid_n": 512,
}
_OSCILLATOR_DOC = {
    "system": "sho", "omega": 1.0, "p0": "extremal",
    "times": {"unit": "tau", "values": [0.0, 1 / 16, 1 / 8, 3 / 16, 1 / 4]},
    "window": {"unit": "dx_t", "halfwidth": 6.0},
    "outputs": ["psi", "prob", "scaled"], "grid_n": 512,
}
PRESET_DOCUMENTS = {
    "fig1": {
        "system": "free", "alpha": 1.0, "p0": 1.4142135623730951,
        "times": [0.0, 0.5, 1.0, 2.0, 4.0], "window": [-12.0, 24.0],
        "outputs": ["psi"], "grid_n": 512,
    },
    "fig2-top": {**_FIG2_DOC, "p0_over_dp0": 0.0},
    "fig2-middle": {**_FIG2_DOC, "p0_over_dp0": 1.0},
    "fig2-bottom": {**_FIG2_DOC, "p0_over_dp0": 4.0},
    "fig3": {**_OSCILLATOR_DOC, "beta_over_beta0": 0.5},
    "fig4": {**_OSCILLATOR_DOC, "beta_over_beta0": 2.0},
}


@pytest.mark.parametrize("name", PRESET_NAMES)
def test_full_document_matches_preset(name):
    doc = {"version": 1, "name": name, **PRESET_DOCUMENTS[name]}
    scenario = g.load_scenario(json.dumps(doc))
    assert scenario == g.preset(name)


def test_relative_momentum_and_time_units():
    doc = {
        "version": 1, "name": "u", "system": "free",
        "alpha": 2.0, "p0_over_dp0": 3.0,
        "times": {"unit": "t0", "values": [2.0, 5.0]},
        "window": [-4.0, 4.0],
    }
    scenario = g.load_scenario(json.dumps(doc))
    assert scenario.params.p0 == 3.0 * scenario.params.dp0
    assert scenario.times == (2.0 * scenario.params.t0, 5.0 * scenario.params.t0)
    assert scenario.window == g.AbsoluteWindow(-4.0, 4.0)
    assert scenario.outputs == frozenset({"psi", "prob"})  # defaults
    assert scenario.grid_n == 512


def test_times_linspace():
    doc = {
        "version": 1, "name": "lin", "system": "free",
        "times": {"linspace": [0.0, 2.0, 5]},
    }
    scenario = g.load_scenario(json.dumps(doc))
    assert scenario.times == (0.0, 0.5, 1.0, 1.5, 2.0)


def test_strict_mode_rejects_unknown_fields():
    doc = {"version": 1, "name": "x", "system": "free",
           "times": [0.0], "surprise": 1}
    with pytest.raises(g.ScenarioError) as info:
        g.load_scenario(json.dumps(doc))
    assert "surprise" in str(info.value)
    # identical document is accepted in lax mode
    scenario = g.load_scenario(json.dumps(doc), lax=True)
    assert scenario.name == "x"


def test_lax_mode_covers_nested_objects():
    doc = {
        "version": 1, "name": "x", "system": "free",
        "times": {"unit": "t0", "values": [1.0], "note": "later"},
        "window": {"unit": "dx_t", "halfwidth": 5.0, "why": "?"},
    }
    with pytest.raises(g.ScenarioError):
        g.load_scenario(json.dumps(doc))
    assert g.load_scenario(json.dumps(doc), lax=True).name == "x"


def test_malformed_json_reports_position():
    with pytest.raises(g.ScenarioError) as info:
        g.load_scenario('{"version": 1,\n  "name": oops}')
    message = str(info.value)
    assert "line 2" in message


def test_missing_file_is_a_scenario_error(tmp_path):
    with pytest.raises(g.ScenarioError):
        g.load_scenario(str(tmp_path / "absent.json"))


def test_document_validation_errors():
    base = {"version": 1, "name": "x", "system": "free", "times": [0.0]}

    def variant(**changes):
        doc = dict(base)
        doc.update(changes)
        return json.dumps({k: v for k, v in doc.items() if v is not ...})

    with pytest.raises(g.ScenarioError, match="version"):
        g.load_scenario(variant(version=2))
    with pytest.raises(g.ScenarioError, match="system"):
        g.load_scenario(variant(system="quartic"))
    with pytest.raises(g.ScenarioError, match="omega"):
        g.load_scenario(variant(system="sho"))  # omega missing
    with pytest.raises(g.ScenarioError, match="force"):
        g.load_scenario(variant(force=1.0))  # force on a free system
    with pytest.raises(g.ScenarioError, match="x0"):
        g.load_scenario(variant(system="sho", omega=1.0, x0=0.5))
    with pytest.raises(g.ScenarioError, match="beta"):
        g.load_scenario(variant(alpha=1.0, beta=2.0))  # conflicting widths
    with pytest.raises(g.ScenarioError, match="beta_over_beta0"):
        g.load_scenario(variant(beta_over_beta0=0.5))  # needs an oscillator
    with pytest.raises(g.ScenarioError, match="p0"):
        g.load_scenario(variant(p0="fastest"))
    with pytest.raises(g.ScenarioError, match="times"):
        g.load_scenario(variant(times=[]))
    with pytest.raises(g.ScenarioError, match="times"):
        g.load_scenario(variant(times={"unit": "tau", "values": [1.0]}))
    with pytest.raises(g.ScenarioError, match="window"):
        g.load_scenario(variant(window=[3.0, -3.0]))
    with pytest.raises(g.ScenarioError, match="outputs"):
        g.load_scenario(variant(outputs=["psi", "momentum"]))
    with pytest.raises(g.ScenarioError, match="grid_n"):
        g.load_scenario(variant(grid_n=8))
    with pytest.raises(g.ScenarioError):
        g.load_scenario('[1, 2, 3]')


def test_extremal_momentum_in_document():
    doc = {"version": 1, "name": "x", "system": "free", "alpha": 2.0,
           "p0": "extremal", "times": [0.0]}
    scenario = g.load_scenario(json.dumps(doc))
    assert scenario.params.p0 == g.extremal_p0(g.free_particle(),
                                               g.make_params(alpha=2.0))


def test_window_resolution():
    scenario = g.preset("fig2-middle")
    t = scenario.times[0]
    lo, hi = scenario.window.resolve(scenario.system, scenario.params, t)
    m = g.moments_at(scenario.system, scenario.params, t)
    sd = math.sqrt(m.var_x)
    assert abs(lo - (m.mean_x - 6.0 * sd)) < 1e-12
    assert abs(hi - (m.mean_x + 6.0 * sd)) < 1e-12


@pytest.mark.parametrize("bad", [True, 64.0, "64"])
def test_integer_fields_reject_bool_and_non_integers(bad):
    base = {"version": 1, "name": "x", "system": "free", "times": [0.0]}
    with pytest.raises(g.ScenarioError) as info:
        g.load_scenario(json.dumps({**base, "grid_n": bad}))
    assert info.value.field == "grid_n"
    with pytest.raises(g.ScenarioError) as info:
        g.load_scenario(json.dumps({**base, "times": {"linspace": [0.0, 1.0, bad]}}))
    assert info.value.field == "times"


def test_sweep_document():
    """A "sweep" key is an unknown field like any other."""
    doc = {"version": 1, "name": "scan", "system": "free", "times": [1.0],
           "sweep": {"axis": "p0", "values": [0.0, 0.5, 1.0]}}
    with pytest.raises(g.ScenarioError) as info:
        g.load_scenario(json.dumps(doc))
    assert info.value.field == "sweep"
    assert g.load_scenario(json.dumps(doc), lax=True).name == "scan"
