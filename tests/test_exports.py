import importlib
import pkgutil

import pytest

import tscast

MODULES = ["tscast"] + [f"tscast.{m.name}" for m in pkgutil.iter_modules(tscast.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__, f"{module_name} exports nothing"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"
