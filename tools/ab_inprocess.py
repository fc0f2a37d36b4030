"""Time two tscast source trees against each other in one process.

    python tools/ab_inprocess.py PARENT_SRC CHANGE_SRC [ROUNDS]

Each argument is a directory that holds the ``tscast`` package (a
checkout's ``src``). Both packages are imported into this process, each
under its own name, and BLAS runs on one thread. Each round times every
case on both sides, alternating which side goes first, and a case's time
in a round is the median of a few calls. The cases, at the paper
defaults (v=1, T=64, 32 filters, k=7, H=64, batch 32) and at the
ablation config (T=16, 4 filters, k=5, H=8, L=4, batch 64):

- ``train_step``: a taped ``forecast_batch``, ``mse_loss`` and ``backward``;
- ``forecast_B1``: one ``forecast`` of a single window;
- ``forecast_batch``: an untaped ``forecast_batch`` of the whole batch.

and the DTW calls the benchmark scores with, on random-walk pairs:

- ``dtw_multivariate 20x1``: exact DTW of a (20, 1) block pair, as the
  ablation scores a rollout;
- ``dtw_exact`` and ``fastdtw`` (radius 1) at 10 and 100 points, as the
  default workload scores its rollouts and segments.

Both sides get the same parameters, windows and pairs. The table gives
the median and the minimum over the rounds (25 by default) of each side,
and the rounds the change was faster in. A last line says whether both
sides computed the same bits for every output, gradient and DTW cost.

This is a report for speed changes, not a test: times depend on the
machine and on what else runs on it.
"""

from __future__ import annotations

import importlib.util
import os
import sys
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy loads BLAS

import numpy as np  # noqa: E402

REPEATS = {"train_step": 5, "forecast_B1": 20, "forecast_batch": 5}
DTW_CASES = {  # name: (metrics function, points, extra argument, repeats)
    "dtw_multivariate 20x1": ("dtw_multivariate", 20, (), 50),
    "dtw_exact 10": ("dtw_exact", 10, (), 100),
    "fastdtw 10 r=1": ("fastdtw", 10, (1,), 50),
    "dtw_exact 100": ("dtw_exact", 100, (), 10),
    "fastdtw 100 r=1": ("fastdtw", 100, (1,), 10),
}


def load(name: str, src: Path):
    """Import the ``tscast`` package under ``src`` as module ``name``."""
    pkg = src / "tscast"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py", submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def setups(ts):
    """(label, config, batch) of both configurations, for package ``ts``."""
    return [
        ("default", ts.model.ForecasterConfig(v=1, seed=0), 32),
        ("ablation", ts.synth.default_ablation_model_config(seed=0), 64),
    ]


class Side:
    """One tree's package with its parameters and data for each setup."""

    def __init__(self, ts):
        self.ts = ts
        self.cases = {}
        for label, config, batch in setups(ts):
            params = ts.model.init_forecaster(config)
            rng = np.random.default_rng(7)
            windows = rng.normal(size=(batch, config.T, config.v))
            targets = rng.normal(size=(config.L, batch, config.v))
            self.cases[label] = (config, params, windows, targets)
        self.pairs = {}
        for name, (fn, points, extra, repeats) in DTW_CASES.items():
            a, b = np.cumsum(np.random.default_rng(points).normal(size=(2, points)), axis=1)
            if fn == "dtw_multivariate":
                a, b = a[:, None], b[:, None]
            self.pairs[name] = (getattr(ts.metrics, fn), (a, b, *extra), repeats)

    def train_step(self, label):
        ts = self.ts
        config, params, windows, targets = self.cases[label]
        with ts.autodiff.Tape():
            loss = ts.train.mse_loss(ts.model.forecast_batch(windows, params, config), targets)
            ts.autodiff.backward(loss)
        return [loss.values] + [p.grad for p in params.parameters()]

    def forecast_B1(self, label):
        config, params, windows, _ = self.cases[label]
        return [self.ts.model.forecast(windows[0], params, config).values]

    def forecast_batch(self, label):
        config, params, windows, _ = self.cases[label]
        return [self.ts.model.forecast_batch(windows, params, config).values]

    def calls(self):
        """Case name -> (a call returning the case's outputs, repeats), for every case."""
        calls = {
            f"{label} {case}": (lambda label=label, case=case: getattr(self, case)(label), repeats)
            for label, _, _ in setups(self.ts)
            for case, repeats in REPEATS.items()
        }
        for name, (fn, args, repeats) in self.pairs.items():
            calls[name] = (lambda fn=fn, args=args: [fn(*args)], repeats)
        return calls


def timed(call, repeats: int) -> float:
    """Median wall time of ``repeats`` calls, in ms."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        call()
        times.append(time.perf_counter() - t0)
    return 1e3 * float(np.median(times))


def main(argv: list[str]) -> int:
    if len(argv) not in (2, 3):
        sys.exit(__doc__.split("\n\n")[1])
    srcs = [Path(a).resolve() for a in argv[:2]]
    rounds = int(argv[2]) if len(argv) == 3 else 25
    for src in srcs:
        if not (src / "tscast" / "__init__.py").is_file():
            sys.exit(f"{src} holds no tscast package")
    sides = [Side(load(name, src)) for name, src in zip(("tscast_parent", "tscast_change"), srcs)]
    calls = [side.calls() for side in sides]

    same = all(
        all(np.array_equal(a, b) for a, b in zip(calls[0][name][0](), calls[1][name][0]())) for name in calls[0]
    )
    times = {name: ([], []) for name in calls[0]}
    for r in range(rounds):
        order = (0, 1) if r % 2 == 0 else (1, 0)
        for name, (_, repeats) in calls[0].items():
            for i in order:
                times[name][i].append(timed(calls[i][name][0], repeats))

    print(f"{rounds} rounds, one BLAS thread; times in ms")
    print(f"{'case':<26}{'parent med':>11}{'change med':>11}{'parent min':>11}{'change min':>11}{'change wins':>13}")
    for name, (parent, change) in times.items():
        wins = sum(c < p for p, c in zip(parent, change))
        print(
            f"{name:<26}{np.median(parent):>11.3f}{np.median(change):>11.3f}"
            f"{min(parent):>11.3f}{min(change):>11.3f}{f'{wins}/{rounds}':>13}"
        )
    print("outputs, gradients and DTW costs:", "same bits" if same else "DIFFER")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
