import importlib
import json
import pkgutil
import subprocess
import sys

import pytest

import gausspack as g

SUBMODULES = sorted(
    f"gausspack.{info.name}" for info in pkgutil.iter_modules(g.__path__)
    if info.name != "__main__"  # importing it runs the CLI
)


@pytest.mark.parametrize("name", ["gausspack", *SUBMODULES])
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []


def test_star_import():
    namespace = {}
    exec("from gausspack import *", namespace)
    assert set(g.__all__) <= namespace.keys()


# The package's public names: the union of its submodules' __all__ lists.
PUBLIC_NAMES = [
    "AbsoluteWindow", "AccuracyError", "BoundaryError", "CheckResult",
    "EnergySplit", "FORMAT_VERSION", "GausspackError", "GridResult",
    "INVERTED_TIME_GUARD", "IntegralResult", "Moments", "NonFiniteError",
    "OUTPUT_NAMES", "OscillatorDerived", "PRESET_NAMES", "PacketParams",
    "PacketState", "ParameterError", "PhysicalConstants", "PropagatorSpec",
    "QuadratureSpec", "RelativeWindow", "ResolutionError", "Scenario",
    "ScenarioError", "SystemKind", "SystemSpec", "TimeRangeError",
    "UnknownPresetError", "accel_event_times", "asymmetry_amplitude",
    "eval_psi", "extremal_p0", "fd_second_derivative", "figure_columns",
    "figure_tables", "fraction_limits", "fractions_series", "free_particle",
    "half_energies", "half_windows", "harmonic_oscillator", "integrate",
    "inverted_oscillator", "kinetic_density", "load_scenario", "make_params",
    "moments_at", "momentum_transform", "oscillator_derived", "packet_window",
    "potential_on_grid", "preset", "propagate", "render_figure", "report",
    "run_checks", "sample_grid", "scaled_density", "serialize_scenario",
    "state_at", "total_kinetic",
    "uniform_acceleration",
]


def test_public_names_are_pinned():
    assert sorted(g.__all__) == PUBLIC_NAMES


def test_each_public_name_is_declared_by_one_module():
    owners = {}
    for name in SUBMODULES:
        for exported in importlib.import_module(name).__all__:
            owners.setdefault(exported, []).append(name)
    assert {n: m for n, m in owners.items() if len(m) > 1} == {}


def _run_in_fresh_interpreter(commands):
    """cli.main exit codes of `commands`, run after `import gausspack` in a
    new interpreter, and the scipy modules loaded by the end."""
    script = (
        "import json, sys\n"
        "import gausspack\n"
        "from gausspack import cli\n"
        f"codes = [cli.main(args) for args in {commands!r}]\n"
        "scipy = sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "print(json.dumps([codes, scipy]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout)


def test_closed_form_commands_do_not_load_scipy(tmp_path):
    commands = [
        ["evolve", "--preset", "fig1", "--combined", "--out", str(tmp_path / "e.csv")],
        ["fractions", "--preset", "fig3", "--out", str(tmp_path / "f.csv")],
        ["figure", "--preset", "fig2-middle", "--out", str(tmp_path / "g.svg")],
    ]
    codes, scipy = _run_in_fresh_interpreter(commands)
    assert codes == [0, 0, 0] and scipy == []
    assert all((tmp_path / name).stat().st_size for name in ("e.csv", "f.csv", "g.svg"))


def test_validate_loads_no_quadrature(tmp_path):
    """The full validate suite loads no scipy module at all: the grid checks
    and the split-step propagator use np.fft."""
    report = tmp_path / "report.json"
    codes, scipy = _run_in_fresh_interpreter([["validate", "--out", str(report)]])
    assert codes == [0] and scipy == []
    doc = json.loads(report.read_text())
    assert doc["n_checks"] == 18 and doc["all_pass"] is True


def test_grid_checks_load_no_scipy(tmp_path):
    """normalization, ibp and halves need numpy's FFT alone."""
    commands = [["validate", "--filter", family, "--out", str(tmp_path / f"{family}.json")]
                for family in ("normalization", "ibp", "halves")]
    codes, scipy = _run_in_fresh_interpreter(commands)
    assert codes == [0, 0, 0] and scipy == []


def test_quadrature_loads_no_scipy():
    script = ("import sys, gausspack\n"
              "gausspack.integrate(abs, (-1.0, 1.0))\n"
              "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])\n")
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_every_command_and_quadrature_run_without_scipy(tmp_path):
    """With sys.modules["scipy"] = None, any import of scipy raises
    ImportError: every CLI command and a quadrature still succeed."""
    commands = [
        ["evolve", "--preset", "fig1", "--combined", "--out", str(tmp_path / "e.csv")],
        ["fractions", "--preset", "fig3", "--out", str(tmp_path / "f.csv")],
        ["figure", "--preset", "fig2-middle", "--out", str(tmp_path / "g.svg")],
        ["validate", "--out", str(tmp_path / "v.json")],
    ]
    script = (
        "import json, sys\n"
        "sys.modules['scipy'] = None\n"
        "import gausspack\n"
        "from gausspack import cli\n"
        f"codes = [cli.main(args) for args in {commands!r}]\n"
        "print(json.dumps([codes, gausspack.integrate(abs, (-1.0, 1.0)).value]))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script],
                          capture_output=True, text=True, check=True)
    assert json.loads(proc.stdout) == [[0, 0, 0, 0], 1.0]
    assert json.loads((tmp_path / "v.json").read_text())["all_pass"] is True


def test_records_are_immutable_named_tuples(four_cases):
    system, params, t = four_cases[3]
    for record in (g.state_at(system, params, t), g.moments_at(system, params, t),
                   g.half_energies(system, params, t)):
        fields = tuple(record)
        assert record == fields and hash(record) == hash(fields)
        assert fields == tuple(getattr(record, name) for name in record._fields)
        assert repr(record).startswith(f"{type(record).__name__}(t={t!r}, ")
        with pytest.raises(AttributeError):
            record.t = 0.0
