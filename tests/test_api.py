import importlib
import pkgutil

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
