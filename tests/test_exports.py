import importlib
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import tscast

MODULES = ["tscast"] + [f"tscast.{m.name}" for m in pkgutil.iter_modules(tscast.__path__)]
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.mark.parametrize("module_name", MODULES)
def test_every_exported_name_resolves(module_name):
    module = importlib.import_module(module_name)
    assert module.__all__, f"{module_name} exports nothing"
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert not missing, f"{module_name}.__all__ names undefined {missing}"


def _scipy_modules_after(code: str) -> list[str]:
    """The scipy modules a fresh interpreter has loaded after running ``code``."""
    report = "\nimport json, sys\nprint(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')))"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
    done = subprocess.run(
        [sys.executable, "-c", code + report], env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "code",
    [
        "import tscast",
        # what `python -m tscast --help` runs, with the module table read after it
        "import runpy, sys\n"
        "sys.argv = ['tscast', '--help']\n"
        "try:\n"
        "    runpy.run_module('tscast', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as stop:\n"
        "    assert stop.code == 0, stop.code",
        "import numpy as np, tscast\ntscast.ridge_fit(np.eye(3), np.ones(3))",
    ],
    ids=["import", "cli-help", "ridge-fit"],
)
def test_scipy_is_not_loaded(code):
    assert _scipy_modules_after(code) == []
