"""Scenario documents: named parameter sets consumed by the CLI.

A scenario is a JSON object with ``"version": 1``.  Two shapes exist:

* ``{"version": 1, "preset": "fig2-middle"}`` -- a reference to one of
  the built-in presets below, which are themselves full documents.
* A full description::

      {
        "version": 1,
        "name": "my-run",
        "system": "free" | "accel" | "sho" | "inverted",
        "force": 1.0,            // accel only (required there)
        "omega": 1.0,            // sho only (required there)
        "omega_tilde": 1.0,      // inverted only (required there)
        "hbar": 1.0,             // optional, default 1
        "mass": 1.0,             // optional, default 1
        "x0": 0.0,               // optional, default 0
        "alpha": 1.0,            // width: exactly one of alpha, beta,
        "beta": 1.0,             //   beta_over_beta0 (default alpha=1);
        "beta_over_beta0": 0.5,  //   beta_over_beta0 needs an oscillator
        "p0": 0.5,               // momentum: a number, or "extremal";
        "p0_over_dp0": 1.0,      //   alternatively in units of dp0
        "times": [0.0, 1.5],     // absolute, or {"unit": "abs"|"t0"|"tau",
                                 //   "values": [...]} or {"unit": ...,
                                 //   "linspace": [lo, hi, n]}
        "window": [-8.0, 8.0],   // absolute, or {"unit": "dx_t",
                                 //   "halfwidth": 6.0} resolved per time
        "outputs": ["psi", "prob", "kedensity", "scaled", "fractions"],
        "grid_n": 512
      }

Unknown fields are rejected unless the document is loaded in lax mode.
Relative units (times in t0 or tau, windows in units of the
instantaneous position spread, beta in units of the oscillator ground
width, p0 in units of the momentum spread or the asymmetry-extremal
value) are resolved at load time against the scenario's own parameters.
Numbers pass the quantities rules the records use before anything is
derived from them, and every refusal names the document field it came from.
"""

import json
import math
import os
from dataclasses import dataclass, replace

from ._textio import dumps_stable
from .analytic import _spread_window
from .errors import ParameterError, ScenarioError, UnknownPresetError
from .kedensity import extremal_p0
from .quantities import (
    PacketParams,
    PhysicalConstants,
    SystemKind,
    SystemSpec,
    oscillator_derived,
    _SHAPE_FIELD,
    _require_count,
    _require_finite,
    _require_positive,
    _require_window,
)

__all__ = [
    "FORMAT_VERSION",
    "OUTPUT_NAMES",
    "PRESET_NAMES",
    "AbsoluteWindow",
    "RelativeWindow",
    "Scenario",
    "load_scenario",
    "preset",
    "serialize_scenario",
]

FORMAT_VERSION = 1
OUTPUT_NAMES = ("psi", "prob", "kedensity", "scaled", "fractions")

@dataclass(frozen=True)
class AbsoluteWindow:
    lo: float
    hi: float

    def resolve(self, system, params, t):
        return self.lo, self.hi


@dataclass(frozen=True)
class RelativeWindow:
    """Window of +-halfwidth position spreads around the packet center."""

    halfwidth: float

    def resolve(self, system, params, t):
        lo, _, hi = _spread_window(system, params, t, self.halfwidth)
        return lo, hi


@dataclass(frozen=True)
class Scenario:
    name: str
    system: SystemSpec
    params: PacketParams
    times: tuple
    window: AbsoluteWindow | RelativeWindow
    outputs: frozenset
    grid_n: int


def _fail(field, message):
    raise ScenarioError(f"field {field!r}: {message}", field)


def _gated(field, build, *args, **kwargs):
    """build(*args, **kwargs), a quantities rule's refusal there named as field."""
    try:
        return build(*args, **kwargs)
    except ParameterError as exc:
        _fail(field, str(exc))


def _number(doc, key, rule, default=None):
    """doc[key], or default, as the quantities rule accepts it; refused under key."""
    return _gated(key, rule, key, doc.get(key, default))


def _parse_document(source):
    text = source
    if isinstance(source, (bytes, os.PathLike)) or (
        isinstance(source, str) and not source.lstrip().startswith("{")
    ):
        try:
            with open(source, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ScenarioError(f"cannot read scenario file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:  # an integer literal beyond int's digit limit
        raise ScenarioError(f"cannot parse scenario: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario document must be a JSON object")
    return doc


_KNOWN_KEYS = {
    "version", "name", "system", *_SHAPE_FIELD.values(),
    "hbar", "mass", "x0", "alpha", "beta", "beta_over_beta0",
    "p0", "p0_over_dp0", "times", "window", "outputs", "grid_n",
}


def _check_keys(doc, allowed, lax, context="document"):
    unknown = [k for k in doc if k not in allowed]
    if unknown and not lax:
        raise ScenarioError(
            f"unknown field {unknown[0]!r} in {context}", unknown[0]
        )


def _build_scenario(doc, lax):
    version = doc.get("version")
    if version != FORMAT_VERSION:
        _fail("version", f"expected {FORMAT_VERSION}, got {version!r}")
    if "preset" in doc:
        _check_keys(doc, {"version", "preset"}, lax)
        if not isinstance(doc["preset"], str):
            _fail("preset", "expected a preset name string")
        doc = _preset_document(doc["preset"])
    _check_keys(doc, _KNOWN_KEYS, lax)

    name = doc.get("name")
    if not isinstance(name, str) or not name:
        _fail("name", "a non-empty string name is required")

    kind_raw = doc.get("system")
    try:
        kind = SystemKind(kind_raw)
    except ValueError:
        _fail("system", f"expected one of {[k.value for k in SystemKind]}, got {kind_raw!r}")

    system = _build_system(doc, kind)
    params = _build_params(doc, kind, system)
    times = _gated("times", _build_times, doc, kind, system, params, lax)
    window = _gated("window", _build_window, doc, lax)
    outputs = _build_outputs(doc)
    grid_n = _gated("grid_n", _require_count, "grid_n", doc.get("grid_n", 512), 16)

    return Scenario(
        name=name, system=system, params=params, times=times,
        window=window, outputs=outputs, grid_n=grid_n,
    )


def _build_system(doc, kind):
    needed = _SHAPE_FIELD.get(kind)
    for field in _SHAPE_FIELD.values():
        if field in doc and field != needed:
            _fail(field, f"not a parameter of the {kind.value} system")
    if needed is None:
        return SystemSpec(kind=kind)
    if needed not in doc:
        _fail(needed, f"required for the {kind.value} system")
    return _gated(needed, SystemSpec, kind=kind, **{needed: doc[needed]})


def _build_params(doc, kind, system):
    constants = PhysicalConstants(_number(doc, "hbar", _require_positive, 1.0),
                                  _number(doc, "mass", _require_positive, 1.0))
    x0 = _number(doc, "x0", _require_finite, 0.0)
    if x0 != 0.0 and kind in (SystemKind.HARMONIC, SystemKind.INVERTED):
        _fail("x0", f"must be 0 for the {kind.value} system")

    width_keys = [k for k in ("alpha", "beta", "beta_over_beta0") if k in doc]
    if len(width_keys) > 1:
        _fail(width_keys[1], f"conflicts with {width_keys[0]!r}")
    if not width_keys:
        alpha = 1.0
    elif width_keys[0] == "alpha":
        alpha = doc["alpha"]  # PacketParams refuses it
    elif width_keys[0] == "beta":
        alpha = _number(doc, "beta", _require_positive) / constants.hbar
    else:
        if kind not in (SystemKind.HARMONIC, SystemKind.INVERTED):
            _fail("beta_over_beta0", "requires an oscillator system")
        ratio = _number(doc, "beta_over_beta0", _require_positive)
        beta0 = _gated("beta_over_beta0", oscillator_derived, constants, system.shape).beta0
        alpha = ratio * beta0 / constants.hbar
    # A refused scale (alpha, beta, t0) is named by the width key, else by
    # the constant that set it; with neither given every scale is 1.
    scale_key = next((k for k in (*width_keys, "hbar", "mass") if k in doc), None)
    base = _gated(scale_key, PacketParams, constants, alpha, x0, 0.0)

    momentum_keys = [k for k in ("p0", "p0_over_dp0") if k in doc]
    if len(momentum_keys) > 1:
        _fail("p0_over_dp0", "conflicts with 'p0'")
    if not momentum_keys:
        return base
    if momentum_keys[0] == "p0_over_dp0":
        p0 = _number(doc, "p0_over_dp0", _require_finite) * base.dp0
    elif doc["p0"] == "extremal":
        p0 = _gated("p0", extremal_p0, system, base)
    else:
        p0 = doc["p0"]  # PacketParams refuses it
    return _gated(momentum_keys[0], replace, base, p0=p0)


def _time_scale(unit, kind, system, params):
    if unit == "abs":
        return 1.0
    if unit == "t0":
        return params.t0
    if unit == "tau":
        if kind is not SystemKind.HARMONIC:
            _fail("times", "unit 'tau' requires an sho system")
        return 2.0 * math.pi / system.omega
    _fail("times", f"unknown unit {unit!r}")


def _build_times(doc, kind, system, params, lax=False):
    raw = doc.get("times")
    if raw is None:
        _fail("times", "required")
    unit, scale = "abs", 1.0
    if isinstance(raw, dict):
        _check_keys(raw, {"unit", "values", "linspace"}, lax, context="'times'")
        unit = raw.get("unit", "abs")
        scale = _time_scale(unit, kind, system, params)
        if ("values" in raw) == ("linspace" in raw):
            _fail("times", "give exactly one of 'values' or 'linspace'")
        if "values" in raw:
            raw = raw["values"]
        else:
            lin = raw["linspace"]
            if not (isinstance(lin, list) and len(lin) == 3):
                _fail("times", "'linspace' must be [lo, hi, n]")
            lo, hi = _require_window("times linspace", lin[:2])
            n = _require_count("times linspace n", lin[2], 2)
            step = (hi - lo) / (n - 1)
            raw = [lo + i * step for i in range(n)]
    if not (isinstance(raw, list) and raw):
        _fail("times", "expected a non-empty list of numbers")
    # Each time is refused as given, and again once scaled, which may overflow.
    scaled = f"times in unit {unit!r}"
    return tuple(_require_finite(scaled, _require_finite("times", v) * scale) for v in raw)


def _build_window(doc, lax=False):
    raw = doc.get("window")
    if raw is None:
        return RelativeWindow(halfwidth=8.0)
    if isinstance(raw, list):
        return AbsoluteWindow(*_require_window("window", raw))
    if isinstance(raw, dict):
        _check_keys(raw, {"unit", "halfwidth"}, lax, context="'window'")
        if raw.get("unit") != "dx_t":
            _fail("window", "relative window unit must be 'dx_t'")
        return RelativeWindow(_require_positive("window halfwidth", raw.get("halfwidth")))
    _fail("window", f"expected a [xmin, xmax] pair or unit object, got {raw!r}")


def _build_outputs(doc):
    raw = doc.get("outputs", ["psi", "prob"])
    if not (isinstance(raw, list) and raw and all(isinstance(v, str) for v in raw)):
        _fail("outputs", "expected a non-empty list of output names")
    bad = [v for v in raw if v not in OUTPUT_NAMES]
    if bad:
        _fail("outputs", f"unknown output {bad[0]!r}; valid: {list(OUTPUT_NAMES)}")
    return frozenset(raw)


def load_scenario(source, lax=False):
    """Parse a scenario from a JSON string or a path to a JSON file."""
    return _build_scenario(_parse_document(source), lax)


def _scenario_dict(scenario):
    """A Scenario as its canonical document: the dict serialize_scenario writes."""
    doc = {"version": FORMAT_VERSION, "name": scenario.name,
           "system": scenario.system.kind.value}
    field = _SHAPE_FIELD.get(scenario.system.kind)
    if field is not None:
        doc[field] = scenario.system.shape
    p = scenario.params
    doc.update(hbar=p.hbar, mass=p.mass, x0=p.x0, alpha=p.alpha, p0=p.p0)
    doc["times"] = list(scenario.times)
    if isinstance(scenario.window, AbsoluteWindow):
        doc["window"] = [scenario.window.lo, scenario.window.hi]
    else:
        doc["window"] = {"unit": "dx_t", "halfwidth": scenario.window.halfwidth}
    doc["outputs"] = sorted(scenario.outputs)
    doc["grid_n"] = scenario.grid_n
    return doc


def serialize_scenario(scenario):
    """Render a Scenario back to its canonical JSON text (version 1)."""
    return dumps_stable(_scenario_dict(scenario))


_FIG2 = {
    "system": "free", "alpha": 1.0, "times": {"unit": "t0", "values": [10.0]},
    "window": {"unit": "dx_t", "halfwidth": 6.0},
    "outputs": ["psi", "prob", "scaled"],
}
_OSCILLATOR = {
    "system": "sho", "omega": 1.0, "p0": "extremal",
    "times": {"unit": "tau", "values": [0.0, 1 / 16, 1 / 8, 3 / 16, 1 / 4]},
    "window": {"unit": "dx_t", "halfwidth": 6.0},
    "outputs": ["psi", "prob", "scaled"],
}
# The figure set-ups of the paper as scenario documents without their
# version and name: Fig. 1 free evolution, Fig. 2 at p0 = 0, 1 and 4 dp0,
# Figs. 3-4 the oscillator at beta0/2 and 2*beta0.
_PRESETS = {
    "fig1": {
        "system": "free", "alpha": 1.0, "p0": math.sqrt(2.0),
        "times": [0.0, 0.5, 1.0, 2.0, 4.0], "window": [-12.0, 24.0],
        "outputs": ["psi"],
    },
    "fig2-top": {**_FIG2, "p0_over_dp0": 0.0},
    "fig2-middle": {**_FIG2, "p0_over_dp0": 1.0},
    "fig2-bottom": {**_FIG2, "p0_over_dp0": 4.0},
    "fig3": {**_OSCILLATOR, "beta_over_beta0": 0.5},
    "fig4": {**_OSCILLATOR, "beta_over_beta0": 2.0},
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def _preset_document(name):
    try:
        doc = _PRESETS[name]
    except KeyError:
        raise UnknownPresetError(
            f"unknown preset {name!r}; valid names: {', '.join(PRESET_NAMES)}"
        ) from None
    return {"version": FORMAT_VERSION, "name": name, **doc}


def preset(name):
    """Return the named built-in scenario; see PRESET_NAMES."""
    return _build_scenario(_preset_document(name), lax=False)
