"""Compare the output files of two tscast source trees, file by file.

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the ``tscast`` package (a
checkout's ``src``). Both trees run the same commands on one generated
two-variable series, each in its own scratch directory and with BLAS on
one thread: ``ingest-check --out-dir``, ``train``, ``forecast``,
``evaluate``, ``crossval --horizons 3,5``, ``crossval --horizons 1,3,3``
(a listed horizon 1 and a repeated horizon), ``crossval --horizons 80
--radius 40`` (FastDTW warp paths over windows of more than 16 cells per
anti-diagonal, 410 of them), ``synth-gen``,
``synth-ablate --seeds 0,1 --epochs 3``, and ``train`` and ``evaluate``
of a 64-filter model with ``gru_hidden`` 128 at ``--window 64``, set by
a ``wide.json`` config written beside ``series.csv``, whose
``predict_windows`` chunks are one block of 32 windows. A command that
fails is recorded with the tail of its stderr, and the remaining commands
still run. Every file either side wrote is then listed as ``same``,
``differs`` or missing on one side, and each failed command is printed
after the list. A ``manifest.json`` is compared without its wall-clock
``timings``. The exit code is 1 if any command failed or any file differs
or is missing on one side, else 0.

This is a report for changes meant to keep every output bit for bit, not
a test: equal bits with an earlier version are not a contract of the
package.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

COMMANDS = [
    ["ingest-check", "--input", "series.csv", "--out-dir", "ingest"],
    ["train", "--input", "series.csv", "--window", "16", "--epochs", "3", "--horizon", "2", "--out-dir", "train"],
    ["forecast", "--input", "series.csv", "--checkpoint", "train/checkpoint.json", "--steps", "10", "--out-dir", "forecast"],
    ["evaluate", "--input", "series.csv", "--checkpoint", "train/checkpoint.json", "--out-dir", "evaluate"],
    ["crossval", "--input", "series.csv", "--window", "16", "--epochs", "2", "--folds", "3", "--horizons", "3,5",
     "--out-dir", "crossval"],
    ["crossval", "--input", "series.csv", "--window", "16", "--epochs", "2", "--folds", "3", "--horizons", "1,3,3",
     "--out-dir", "crossval-repeat"],
    ["crossval", "--input", "series.csv", "--window", "16", "--epochs", "1", "--folds", "3", "--horizons", "80",
     "--radius", "40", "--out-dir", "crossval-wide-radius"],
    ["synth-gen", "--n-series", "6", "--length", "64", "--seed", "3", "--out-dir", "synth-gen"],
    ["synth-ablate", "--seeds", "0,1", "--epochs", "3", "--out-dir", "ablate"],
    ["train", "--input", "series.csv", "--config", "wide.json", "--window", "64", "--epochs", "1",
     "--out-dir", "train-wide"],
    ["evaluate", "--input", "series.csv", "--checkpoint", "train-wide/checkpoint.json", "--out-dir", "evaluate-wide"],
]
WIDE_CONFIG = {"model": {"n_filters": 64, "gru_hidden": 128}}  # 448 KiB of activations a window
STDERR_LINES = 5  # of a failed command's stderr, kept for the report
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def write_series(path: Path) -> None:
    """300 rows of two noisy, drifting sines, with full-precision values."""
    t = np.arange(300.0)
    noise = np.random.default_rng(0).normal(size=(300, 2))
    data = np.stack([np.sin(t / 6.0) + 0.1 * noise[:, 0], np.cos(t / 11.0) + 0.002 * t + 0.1 * noise[:, 1]], axis=1)
    lines = ["a,b"] + [f"{float(x)!r},{float(y)!r}" for x, y in data]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def run_tree(src: Path, work: Path) -> list[str]:
    """Run every command of ``COMMANDS`` in ``work`` with the package in
    ``src``; return one report, with its stderr tail, per failed command."""
    work.mkdir(parents=True)
    write_series(work / "series.csv")
    (work / "wide.json").write_text(json.dumps(WIDE_CONFIG), encoding="utf-8")
    env = {**os.environ, **ONE_THREAD, "PYTHONPATH": str(src)}
    failures = []
    for args in COMMANDS:
        done = subprocess.run([sys.executable, "-m", "tscast", *args], cwd=work, env=env, capture_output=True, text=True)
        if done.returncode != 0:
            tail = "\n".join(done.stderr.strip().splitlines()[-STDERR_LINES:])
            failures.append(f"{src}: tscast {' '.join(args)} failed with code {done.returncode}:\n{tail}")
    return failures


def contents(path: Path) -> bytes:
    if path.name != "manifest.json":
        return path.read_bytes()
    payload = json.loads(path.read_text(encoding="utf-8"))
    payload.pop("timings", None)
    return json.dumps(payload, sort_keys=True).encode()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.exit(__doc__.split("\n\n")[1])
    parent, change = (Path(a).resolve() for a in argv)
    for src in (parent, change):
        if not (src / "tscast" / "__init__.py").is_file():
            sys.exit(f"{src} holds no tscast package")
    with tempfile.TemporaryDirectory(prefix="same_outputs_") as tmp:
        sides = Path(tmp) / "parent", Path(tmp) / "change"
        failures = [report for src, work in zip((parent, change), sides) for report in run_tree(src, work)]
        names = sorted({p.relative_to(w) for w in sides for p in w.rglob("*") if p.is_file()})
        differ = 0
        for name in names:
            a, b = (w / name for w in sides)
            if not (a.is_file() and b.is_file()):
                verdict = "missing in " + ("parent" if not a.is_file() else "change")
            else:
                verdict = "same" if contents(a) == contents(b) else "differs"
            differ += verdict != "same"
            print(f"{verdict:>17}  {name}")
    print(f"{len(names) - differ} of {len(names)} files the same")
    for report in failures:
        print(report)
    print(f"{len(failures)} of {2 * len(COMMANDS)} commands failed")
    return 1 if differ or failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
