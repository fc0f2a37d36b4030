"""The benchmark's workloads: set-up, one measured pass, and the checks on
the outputs of that pass.

A pass is a workload's main call (``train_model`` or ``ablation_run``)
plus side pieces: small units of inference and scoring work on a
frozen model. The pieces of the different kinds are interleaved, and while
the main call trains, the pieces run spread over its optimizer steps, so
every kind of work is sampled all through the pass rather than in one
burst at its end. The pieces never touch the training state, and the main
call's outputs are checked against committed references.

Every input is generated from the variant (``--seed`` modulo ``VARIANTS``),
so the package only ever sees generated arrays. All series are univariate
(v=1). Calls into tscast go through module attributes (``train.train_model``,
never a name bound at import time), so the span recorder's wrappers see them.
"""

from __future__ import annotations

import gc
from collections import deque
from contextlib import nullcontext
from dataclasses import replace
from math import ceil
from pathlib import Path

import numpy as np

from spans import SIDE, rebound
from tscast import metrics, model, preprocess, synth, train

VARIANTS = 32
AGREE_TOL = 1e-9  # predict_windows row vs single-window forecast
DTW_SLACK = 1e-9  # fastdtw may tie dtw_exact up to rounding


class Tally:
    """Checks and operations attempted and failed in one run."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, what: str, ok) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)


def synth_frames(n_series: int, length: int, variant: int) -> list[preprocess.SeriesFrame]:
    """Generated trend+sine series, each normalised and smoothed on its own."""
    corpus = synth.generate(synth.SynthSpec(n_series=n_series, length=length, seed=variant))
    return [preprocess.preprocess_frame(preprocess.SeriesFrame(["y"], s.values[:, None]))[0] for s in corpus]


def evenly(n_items: int, k: int) -> list[int]:
    """k indices spread evenly over range(n_items)."""
    return [int(i) for i in np.linspace(0, n_items - 1, num=min(k, n_items)).round()]


def interleave(*kinds: list) -> list:
    """The items of every list in one list, each list's items spread evenly over it."""
    tagged = [((i + 0.5) / len(items), k, i) for k, items in enumerate(kinds) for i in range(len(items))]
    return [kinds[k][i] for _, k, i in sorted(tagged)]


def score_pair(tally: Tally, a, b, what: str) -> None:
    """Exact DTW and FastDTW (r=1) of one pair; the approximation never undercuts."""
    exact = metrics.dtw_exact(a, b)
    fast = metrics.fastdtw(a, b, radius=1)
    tally.check(f"fastdtw >= dtw_exact on {what}", fast >= exact - DTW_SLACK * max(1.0, exact))


class Workload:
    """Set-up, main call and side pieces of one workload; see the module doc."""

    name = ""
    SIZES: dict = {}

    def __init__(self, size: str, variant: int, out_dir: Path):
        self.p = self.SIZES[size]
        self.variant = variant
        self.out_dir = out_dir

    def setup(self) -> None:
        raise NotImplementedError

    def main(self, tally: Tally) -> dict:
        """The pass's main call; returns the outputs checked against the reference."""
        raise NotImplementedError

    def steps_per_pass(self) -> int:
        """Optimizer steps the main call makes."""
        raise NotImplementedError

    def pieces(self, tally: Tally, seen: dict) -> list:
        """Side pieces in running order; forecasts and predictions go into ``seen``."""
        raise NotImplementedError

    def predict_piece(self, windows, lo: int, seen: dict):
        def piece():
            seen["rows"][lo] = train.predict_windows(self.params, self.cfg, windows[lo : lo + self.train_cfg.batch_size])

        return piece

    def forecast_piece(self, windows, indices, seen: dict):
        def piece():
            for i in indices:
                seen["single"][i] = model.forecast(windows[i].input, self.params, self.cfg).values

        return piece

    def predict_and_forecast(self, windows, seen: dict) -> tuple[list, list]:
        """predict_windows over every window, one call per chunk of the training
        batch size, and single-window forecasts of ``forecasts`` evenly spread
        windows, ``per_piece`` a piece."""
        seen.update(rows={}, single={})
        chunks = [self.predict_piece(windows, lo, seen) for lo in range(0, len(windows), self.train_cfg.batch_size)]
        picked = evenly(len(windows), self.p["forecasts"])
        step = self.p["per_piece"]
        singles = [self.forecast_piece(windows, picked[k : k + step], seen) for k in range(0, len(picked), step)]
        return chunks, singles

    def check_seen(self, tally: Tally, seen: dict) -> None:
        """Every single-window forecast equals its predict_windows row."""
        if not seen.get("single"):
            return
        preds = np.concatenate([seen["rows"][lo] for lo in sorted(seen["rows"])])
        tally.check("predict_windows finite", np.all(np.isfinite(preds)))
        for i, single in seen["single"].items():
            tally.check(f"forecast(window {i}) == predict_windows row", np.max(np.abs(single - preds[i])) <= AGREE_TOL)

    def run_pass(self, tally: Tally, side=None) -> dict:
        """The main call with the side pieces spread evenly over its optimizer
        steps, the pieces left over after it, then the checks. ``side(name)`` gives
        the context each piece runs in (a span, when timed)."""
        side = side or (lambda name: nullcontext())
        seen: dict = {}
        todo = deque(self.pieces(tally, seen))
        total, planned, steps = len(todo), self.steps_per_pass(), 0

        def next_piece():
            # the cyclic collector waits while a piece runs, so a piece is not
            # billed for collecting the tape graphs that training left behind
            gc.disable()
            try:
                with side(SIDE):
                    todo.popleft()()
            finally:
                gc.enable()

        def after_step(adam_step):
            def stepped(*args, **kwargs):
                nonlocal steps
                out = adam_step(*args, **kwargs)
                steps += 1
                while todo and total - len(todo) < steps * total // (planned + 1):
                    next_piece()
                return out

            return stepped

        with rebound({"train.adam_step": after_step}):
            outputs = self.main(tally)
        while todo:
            next_piece()
        self.check_seen(tally, seen)
        return outputs


class TrainDefault(Workload):
    """train_model at the paper defaults on one series of 1000 points (936 windows)."""

    name = "train-default"
    SIZES = {
        "full": dict(length=1000, epochs=1, forecasts=100, per_piece=5, rollouts=8, steps=10,
                     segments=16, segment=100, reps=7),
        "tiny": dict(length=140, epochs=1, forecasts=4, per_piece=2, rollouts=1, steps=3,
                     segments=1, segment=20, reps=2),
    }

    def __init__(self, size: str, variant: int, out_dir: Path):
        super().__init__(size, variant, out_dir)
        self.cfg = model.ForecasterConfig(v=1, seed=variant)  # T=64, L=1, 32 filters, k=7, H=64
        epochs = self.p["epochs"]
        self.train_cfg = train.TrainConfig(learning_rate=1e-3, epochs=epochs, batch_size=32, patience=epochs, seed=variant)
        self.dtw_lengths = (self.p["segment"], self.p["segment"])

    def setup(self) -> None:
        frame, partner = synth_frames(2, self.p["length"], self.variant)
        self.series, self.partner = frame.data, partner.data
        self.windows = preprocess.build_windows(frame, self.cfg.T, self.cfg.L)
        self.params = model.init_forecaster(self.cfg)

    def main(self, tally: Tally) -> dict:
        params, history = train.train_model(self.windows, self.cfg, self.train_cfg)
        for h in history:
            tally.check(f"epoch {h['epoch']} train_mse finite", np.isfinite(h["train_mse"]))
            tally.check(f"epoch {h['epoch']} val_mse finite", np.isfinite(h["val_mse"]))
        return {"final_val_mse": history[-1]["val_mse"]}

    def steps_per_pass(self) -> int:
        return ceil(len(train.validation_split(self.windows)[0]) / self.train_cfg.batch_size) * self.train_cfg.epochs

    def pieces(self, tally: Tally, seen: dict) -> list:
        p = self.p
        chunks, singles = self.predict_and_forecast(self.windows, seen)
        n = len(self.series)
        starts = [self.cfg.T + i for i in evenly(n - self.cfg.T - p["steps"] + 1, p["rollouts"])]
        rollouts = [self.rollout_piece(tally, start) for start in starts]
        los = evenly(n - p["segment"] + 1, p["segments"])
        segments = [self.segment_piece(tally, lo) for lo in los]
        return interleave(chunks, singles, rollouts, segments)

    def rollout_piece(self, tally: Tally, start: int):
        def piece():
            steps = self.p["steps"]
            pred = train.sliding_forecast(self.params, self.cfg, self.series, start, steps)
            tally.check(f"rollout from {start} finite", np.all(np.isfinite(pred)))
            score_pair(tally, pred[:, 0], self.series[start : start + steps, 0], f"rollout from {start}")

        return piece

    def segment_piece(self, tally: Tally, lo: int):
        def piece():
            hi = lo + self.p["segment"]
            score_pair(tally, self.series[lo:hi, 0], self.partner[lo:hi, 0], f"segment at {lo}")

        return piece


class AblationSmall(Workload):
    """synth.ablation_run for one corpus at its own config, epochs fixed."""

    name = "ablation-small"
    SIZES = {
        "full": dict(n_series=80, length=120, epochs=2, forecasts=100, per_piece=5, reps=25),
        "tiny": dict(n_series=10, length=40, epochs=1, forecasts=4, per_piece=2, reps=2),
    }
    EVAL_STEPS = 20  # ablation_run's default rollout length
    STRIDE = 2  # ablation_run's default window stride

    def __init__(self, size: str, variant: int, out_dir: Path):
        super().__init__(size, variant, out_dir)
        self.spec = synth.SynthSpec(n_series=self.p["n_series"], length=self.p["length"], seed=variant)
        self.cfg = synth.default_ablation_model_config(seed=variant)  # T=16, 4 filters, k=5, H=8, L=4
        epochs = self.p["epochs"]
        self.train_cfg = replace(synth.default_ablation_train_config(seed=variant), epochs=epochs, patience=epochs)
        self.dtw_lengths = (self.EVAL_STEPS, self.EVAL_STEPS)

    def setup(self) -> None:
        frames = synth_frames(self.p["n_series"], self.p["length"], self.variant)
        n_train = len(frames) - max(1, round(0.2 * len(frames)))  # ablation_run's held-out split
        self.windows = [w for f in frames[:n_train] for w in preprocess.build_windows(f, self.cfg.T, self.cfg.L, self.STRIDE)]
        self.held_out = [f.data for f in frames[n_train:]]
        self.params = model.init_forecaster(self.cfg)

    def main(self, tally: Tally) -> dict:
        result = synth.ablation_run(self.spec, self.cfg, self.train_cfg, eval_steps=self.EVAL_STEPS)
        return {
            f"{arm}.{stat}": getattr(getattr(result, arm), stat)
            for arm in ("with_shortcut", "without_shortcut")
            for stat in ("mean_mse", "mean_dtw")
        }

    def steps_per_pass(self) -> int:
        n_train = len(train.validation_split(self.windows)[0])
        return 2 * ceil(n_train / self.train_cfg.batch_size) * self.train_cfg.epochs  # two arms

    def pieces(self, tally: Tally, seen: dict) -> list:
        chunks, singles = self.predict_and_forecast(self.windows, seen)
        rollouts = [self.rollout_piece(tally, k, data) for k, data in enumerate(self.held_out)]
        return interleave(chunks, singles, rollouts)

    def rollout_piece(self, tally: Tally, k: int, data: np.ndarray):
        """A held-out rollout scored with exact DTW, as ablation_run scores its arms."""

        def piece():
            start = len(data) - self.EVAL_STEPS
            pred = train.sliding_forecast(self.params, self.cfg, data, start, self.EVAL_STEPS)
            tally.check(f"held-out rollout {k} finite", np.all(np.isfinite(pred)))
            tally.check(f"held-out rollout {k} DTW finite", np.isfinite(metrics.dtw_multivariate(pred, data[start:])))

        return piece


WORKLOADS = {w.name: w for w in (TrainDefault, AblationSmall)}
