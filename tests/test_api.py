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


def test_quadrature_loads_scipy(tmp_path):
    report = tmp_path / "report.json"
    commands = [["validate", "--filter", "normalization", "--out", str(report)]]
    codes, scipy = _run_in_fresh_interpreter(commands)
    assert codes == [0] and "scipy.integrate" in scipy
    assert json.loads(report.read_text())["all_pass"] is True
