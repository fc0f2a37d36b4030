"""Smoke test: every demo script runs to completion in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SLOW_DEMOS = {"06_shortcut_ablation.py"}  # about half a minute


@pytest.mark.parametrize(
    "name",
    [
        pytest.param(path.name, marks=[pytest.mark.slow] if path.name in SLOW_DEMOS else [])
        for path in sorted((ROOT / "demos").glob("*.py"))
    ],
)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr[-2000:]
