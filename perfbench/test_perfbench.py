"""Smoke tests of the benchmark itself, at the tiny size.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 33  # variant 1


def bench(*extra, cwd=ROOT, out=None):
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), *extra]
    if out is not None:
        cmd += ["--out", str(out)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_matches_contract():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    seen = set()
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert name.match(metric["name"]) and unit.match(metric["unit"]) and metric["better"] in ("higher", "lower")
        assert metric["name"] not in seen
        seen.add(metric["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert (4 + 22 * len(WORKLOADS)) * (SPEC["run_seconds"] + 15) < 3420  # runs, each with set-up


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace, tmp_path):
    res = result_of(bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.1",
                          "--trace", str(trace), "--size", "tiny", out=tmp_path))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(res["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = res["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert math.isfinite(got["value"]) and got["value"] != 0, m["name"]


@pytest.mark.parametrize("workload", ["train-default", "ablation-small"])
def test_perturbed_reference_counts_as_failure(workload, tmp_path):
    refs = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))
    entry = refs[workload]["tiny"][str(SEED % 32)]
    key = sorted(entry)[0]
    entry[key] *= 1.0 + 1e-3
    perturbed = tmp_path / "reference.json"
    perturbed.write_text(json.dumps(refs), encoding="utf-8")
    res = result_of(bench("--workload", workload, "--seed", str(SEED), "--seconds", "0.1", "--trace", "0",
                          "--size", "tiny", "--reference", str(perturbed), out=tmp_path))
    assert res["correct"] is False and res["failed"] >= 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
