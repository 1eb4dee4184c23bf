"""A seeded fuzz of scenario documents through the CLI, in process.

Each run draws a document for one of the four systems, with magnitudes
from 1e-320 up to about 1.8e308, subnormals, signed zeros and a few
values that are not numbers at all, and runs `evolve`, `fractions` or
`figure` on it in one of the command's formats.  Every run must:

* exit 0, 1, 2 or 64, with no exception leaving cli.main;
* name, on exit 64, a field that the document holds;
* write nothing when it fails;
* write no nan or inf text when it succeeds.

RuntimeWarning policy: grids that do not resolve the packet (a window of
many spreads with a few points) make numpy warn about overflow in
PacketState.psi or kinetic_density, 20 to 30 runs in 1500.  Such a table
holds an infinity or a NaN, which the finiteness gate refuses with exit 2,
so the fuzz ignores the warnings and lets the exit code decide, until a
resolution guard refuses such grids outright.
"""

import contextlib
import io
import json
import random
import re
import warnings

import pytest

from gausspack import cli

SEEDS = (1, 2, 3)
RUNS = 500

_SHAPE_KEYS = {"free": None, "accel": "force", "sho": "omega", "inverted": "omega_tilde"}
_FORMATS = {"evolve": ("csv", "json"), "fractions": ("csv", "json"),
            "figure": ("svg", "csv", "json")}
_OUTPUTS = ("psi", "prob", "kedensity", "scaled", "fractions")
_NOT_NUMBERS = ("1.0", True, None, [1.0], 10**400)
_NON_FINITE = re.compile(r"\b(?:nan|inf|infinity)\b", re.IGNORECASE)
_FIELD = re.compile(r"gausspack: error: field '([^']*)': ")


def _value(rng):
    """A signed zero, a value near 1, or any magnitude from 1e-320 up; some negative."""
    draw = rng.random()
    if draw < 0.02:
        return rng.choice(_NOT_NUMBERS)
    if draw < 0.08:
        return rng.choice((0.0, -0.0))
    value = rng.uniform(0.1, 3.0) if draw < 0.7 else 10.0 ** rng.uniform(-320.0, 308.25)
    return -value if rng.random() < 0.1 else value


def _document(rng):
    system = rng.choice(tuple(_SHAPE_KEYS))
    doc = {"version": 1, "name": "f", "system": system}
    if _SHAPE_KEYS[system]:
        doc[_SHAPE_KEYS[system]] = _value(rng)
    # One document in ten may hold keys its system refuses: x0 for an
    # oscillator, beta_over_beta0 or times in tau for a drifting system.
    misfit = rng.random() < 0.1
    oscillator = system in ("sho", "inverted")
    for key in ("hbar", "mass", "x0"):
        if rng.random() < 0.4 and (key != "x0" or misfit or not oscillator):
            doc[key] = _value(rng)
    widths = ("alpha", "beta", "beta_over_beta0")[:3 if misfit or oscillator else 2]
    width = rng.choice((None, *widths))
    if width:
        doc[width] = _value(rng)
    momentum = rng.choice((None, "p0", "p0_over_dp0", "extremal"))
    if momentum == "extremal":
        doc["p0"] = "extremal"
    elif momentum:
        doc[momentum] = _value(rng)
    values = [_value(rng) for _ in range(rng.randint(1, 3))]
    units = ("list", "abs", "t0", "linspace", "tau")[:5 if misfit or system == "sho" else 4]
    unit = rng.choice(units)
    if unit == "list":
        doc["times"] = values
    elif unit == "linspace":
        doc["times"] = {"linspace": [values[0], _value(rng), rng.randint(2, 4)]}
    else:
        doc["times"] = {"unit": unit, "values": values}
    window = rng.choice((None, "abs", "dx_t"))
    if window == "abs":
        pair = [_value(rng), _value(rng)]
        numbers = all(type(v) is float for v in pair)
        doc["window"] = sorted(pair) if numbers and rng.random() < 0.8 else pair
    elif window == "dx_t":
        doc["window"] = {"unit": "dx_t", "halfwidth": _value(rng)}
    doc["outputs"] = rng.sample(_OUTPUTS, rng.randint(1, len(_OUTPUTS)))
    doc["grid_n"] = rng.randint(16, 64)
    return doc


def _main(argv):
    """cli.main(argv) as (exit code, stderr text)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except Exception as exc:  # any escape is a finding
            pytest.fail(f"{argv}: {type(exc).__name__}: {exc}")
    return code, err.getvalue()


@pytest.mark.parametrize("seed", SEEDS)
def test_scenario_fuzz_ends_in_a_documented_exit(seed, tmp_path):
    rng = random.Random(seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for _ in range(RUNS):
            doc = _document(rng)
            command = rng.choice(tuple(_FORMATS))
            fmt = rng.choice(_FORMATS[command])
            argv = [command, "--scenario", json.dumps(doc), "--format", fmt,
                    "--out", str(tmp_path / f"out.{fmt}")]
            if command == "evolve" and fmt == "csv" and rng.random() < 0.5:
                argv.append("--combined")
            code, err = _main(argv)
            written = sorted(tmp_path.iterdir())
            assert code in (0, 1, 2, 64), (argv, code, err)
            if code == 0:
                for path in written:
                    assert not _NON_FINITE.search(path.read_text()), (argv, path.name)
                    path.unlink()
            else:
                assert written == [], (argv, err)
                assert err.count("\n") == 1 and "Traceback" not in err, (argv, err)
            if code == 64:
                field = _FIELD.match(err)
                assert field and field.group(1) in doc, (argv, err)
