"""Optimization loop, loss, and the cross-validated evaluation protocol.

Training is plain minibatch Adam on the mean-squared forecast error, with
a chronological tail of the training windows held out for validation and
early stopping. Everything is deterministic given the seeds: batch order
is derived from the training seed and parameter initialization from the
model seed, so identical inputs reproduce identical histories bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tape, Tensor, backward, constant, mean_all
from .metrics import dtw_multivariate, mae_metric
from .model import STREAMS, ForecasterConfig, ForecasterParams, forecast, forecast_batch, init_forecaster
from .preprocess import ForecastWindow, SeriesFrame, blocked_kfold, build_windows, check_integer

__all__ = [
    "AdamState",
    "TrainConfig",
    "adam_step",
    "cross_validate",
    "mse_loss",
    "predict_windows",
    "sliding_forecast",
    "train_model",
    "validation_split",
]

PREDICT_BYTES = 16 * 2**20  # activations one forecast_batch call of predict_windows may hold
ROW_BLOCK = 32  # predict_windows chunks start at multiples of this and hold at least this many
# a small model's chunk stops here: at the ablation config 128 windows peak at
# 0.58 MB of arrays, below the 0.85 MB of one training step at batch 64, and
# 256 windows would peak at 1.15 MB
MAX_PREDICT_CHUNK = 128
# sliding_forecast stops a rollout once a value leaves the context's
# midpoint +- ROLLOUT_REACH context ranges. The range is floored at
# MIN_CONTEXT_RANGE (model units, where a normalised series has std 1), so a
# flat context still leaves room. Untrained models of the benchmark's 32
# variants reach at most 314 ranges in their rollouts (a 10-step rollout of
# a paper-default model). A diverging one-step rollout (49 at step 20 and
# 1e4 at step 40 on a context of range 2.2) then trips at step 42, where a
# reach of 100 would trip at step 24.
ROLLOUT_REACH, MIN_CONTEXT_RANGE = 1e4, 1.0
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        lr = self.learning_rate
        real = isinstance(lr, (int, float, np.integer, np.floating)) and not isinstance(lr, bool)
        if not (real and math.isfinite(lr) and lr > 0):
            raise ValueError(f"config field learning_rate must be a positive finite number, got {lr!r}")
        self.learning_rate = float(lr)
        for name, least in (("epochs", 0), ("batch_size", 1), ("patience", 1), ("seed", 0)):
            setattr(self, name, check_integer(f"config field {name}", getattr(self, name), least))


def mse_loss(pred, target) -> Tensor:
    """Mean squared difference over all entries, as a scalar tensor."""
    pred = pred if isinstance(pred, Tensor) else constant(pred)
    target = target if isinstance(target, Tensor) else constant(target)
    if pred.shape != target.shape:
        raise ValueError(f"mse_loss: shapes {pred.shape} and {target.shape} differ")
    diff = pred - target
    return mean_all(diff * diff)


# ---------------------------------------------------------------------------
# Adam


@dataclass
class AdamState:
    """Adam's step count and its first and second moments.

    Each moment is one flat float64 buffer, ``m_flat`` or ``v_flat``, over
    the parameters in order; parameter ``i`` owns its slice ``spans[i]``.
    """

    shapes: list[tuple[int, ...]]
    step: int = 0

    def __post_init__(self):
        ends = np.cumsum([0, *(math.prod(s) for s in self.shapes)]).tolist()
        self.spans = list(zip(ends[:-1], ends[1:]))
        self.m_flat, self.v_flat = np.zeros(ends[-1]), np.zeros(ends[-1])

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        return cls([p.shape for p in params])


def adam_step(
    params: list[Tensor], grads: list[np.ndarray], state: AdamState, hyper: TrainConfig
) -> None:
    """One bias-corrected Adam update, in place on the parameters and ``state``.

    The update is one pass over flat buffers: the gradients are
    concatenated in parameter order, the moments update as whole buffers,
    and each parameter takes its slice of the step. Every operation is the
    elementwise one a per-tensor loop makes, in the same order, so the
    parameters and moments come out bit for bit as from that loop.

    A gradient whose shape is not its parameter's raises ``ValueError``. A
    non-finite gradient aborts the step before any parameter is touched;
    the error gives the position of the first such parameter in ``params``.
    """
    if len(grads) != len(params) or len(state.shapes) != len(params):
        raise ValueError("adam_step: params, grads and state are not aligned")
    for i, (p, g, shape) in enumerate(zip(params, grads, state.shapes)):
        if np.shape(g) != p.shape or p.shape != shape:
            raise ValueError(
                f"adam_step: gradient {i} has shape {np.shape(g)}, its parameter {p.shape}"
                f" and its Adam state {shape}"
            )
    g = np.concatenate(grads, axis=None)
    if not np.isfinite(g).all():
        first = next(i for i, gi in enumerate(grads) if not np.isfinite(gi).all())
        raise FloatingPointError(
            f"adam_step: non-finite gradient for parameter {first} of {len(params)}, aborting the update"
        )

    state.step += 1
    t = state.step
    m, v = state.m_flat, state.v_flat
    scratch = np.multiply(g, 1.0 - BETA1)
    m *= BETA1
    m += scratch  # (BETA1 * m) + ((1 - BETA1) * g)
    np.multiply(g, 1.0 - BETA2, out=scratch)
    scratch *= g
    v *= BETA2
    v += scratch  # (BETA2 * v) + (((1 - BETA2) * g) * g)
    np.divide(v, 1.0 - BETA2**t, out=g)
    np.sqrt(g, out=g)
    g += EPS
    np.divide(m, 1.0 - BETA1**t, out=scratch)
    scratch *= hyper.learning_rate
    scratch /= g  # ((m / c1) * lr) / (sqrt(v / c2) + EPS)
    for p, (lo, hi) in zip(params, state.spans):
        p.values -= scratch[lo:hi].reshape(p.shape)


# ---------------------------------------------------------------------------
# training loop


def _stack_windows(windows: list[ForecastWindow]) -> tuple[np.ndarray, np.ndarray]:
    inputs = np.stack([w.input for w in windows])  # (B, T, v)
    targets = np.stack([w.target for w in windows])  # (B, L, v)
    return inputs, np.swapaxes(targets, 0, 1)  # targets as (L, B, v)


def validation_split(windows: list[ForecastWindow]) -> tuple[list[ForecastWindow], list[ForecastWindow]]:
    """Chronological train/validation split: the last 10% of the windows
    (at least one) validate; a single window validates itself."""
    if len(windows) == 1:
        return windows, windows
    n_val = max(1, int(round(0.1 * len(windows))))
    return windows[:-n_val], windows[-n_val:]


def _predict_chunk(config: ForecasterConfig) -> int:
    """Most windows per ``forecast_batch`` call in :func:`predict_windows`.

    A window's activations in ``forecast_batch`` are, per stream, the two
    conv outputs and the GRU's input projections, (2 * n_filters + 3 * H)
    float64 values per time step over the T / factor steps of every
    ``STREAMS`` resolution: 224 KiB at the paper defaults, 7 KiB at the
    ablation config. The chunk is as many whole blocks of ``ROW_BLOCK``
    windows as fit in ``PREDICT_BYTES``, at least one block and at most
    ``MAX_PREDICT_CHUNK`` windows: 64 at the defaults, 128 at the ablation
    config.
    """
    steps = sum(config.T // factor for _, factor in STREAMS)
    per_window = 8 * steps * (2 * config.n_filters + 3 * config.gru_hidden)
    blocks = PREDICT_BYTES // per_window // ROW_BLOCK
    return min(MAX_PREDICT_CHUNK, max(1, blocks) * ROW_BLOCK)


def predict_windows(
    params: ForecasterParams, config: ForecasterConfig, windows: list[ForecastWindow]
) -> np.ndarray:
    """Forecast a list of windows on frozen parameters; returns (N, L, v).

    The windows go through ``forecast_batch`` in chunks of at most
    :func:`_predict_chunk` windows, which bounds the memory a call holds. A
    last chunk shorter than ``ROW_BLOCK`` takes that many windows from the
    chunk before it, or joins it whole when that chunk is one block, so
    every chunk starts at a multiple of ``ROW_BLOCK`` and holds at least
    that many (unless N is smaller). Every row then meets
    the BLAS kernels it would meet in one batch of all N windows, and gets
    the same bits: OpenBLAS computes products of a few rows on other paths
    (matrix-vector for one row, a small-matrix kernel for the GRU's
    recurrent products below about 19 rows at H = 64), and its
    matrix-vector kernel treats the rows of an unfinished aligned block
    apart.
    """
    n = len(windows)
    if n == 0:
        raise ValueError("predict_windows: no windows to forecast (got an empty list)")
    bounds = list(range(0, n, _predict_chunk(config))) + [n]
    if len(bounds) > 2 and n - bounds[-2] < ROW_BLOCK:
        bounds[-2] -= ROW_BLOCK
        if bounds[-2] == bounds[-3]:  # the chunk before was one block
            del bounds[-2]
    outputs = []
    for lo, hi in zip(bounds, bounds[1:]):
        inputs = np.stack([w.input for w in windows[lo:hi]])
        pred = forecast_batch(inputs, params, config).values  # (L, B, v)
        outputs.append(np.swapaxes(pred, 0, 1))
    return np.concatenate(outputs, axis=0)


def _eval_mse(params, config, windows) -> float:
    preds = predict_windows(params, config, windows)
    targets = np.stack([w.target for w in windows])
    return float(np.mean((preds - targets) ** 2))


def train_model(
    windows: list[ForecastWindow],
    model_config: ForecasterConfig,
    train_config: TrainConfig,
) -> tuple[ForecasterParams, list[dict]]:
    """Minibatch Adam on the forecast MSE.

    The chronological tail (last 10%, at least one window) is held out for
    validation; training stops early once validation MSE has not improved
    for ``patience`` epochs, and the parameters returned are the best
    validation snapshot (the initial ones at 0 epochs). History records
    one dict per completed epoch.
    """
    if not windows:
        raise ValueError("train_model: need at least one window")
    params = init_forecaster(model_config)

    train_windows, val_windows = validation_split(windows)
    inputs, targets = _stack_windows(train_windows)
    n_train = len(train_windows)
    rng = np.random.default_rng(train_config.seed)
    opt_params = params.parameters()
    state = AdamState.for_params(opt_params)

    history: list[dict] = []
    best_val = np.inf
    best_values = [p.values.copy() for p in opt_params]
    stale = 0

    for epoch in range(train_config.epochs):
        order = rng.permutation(n_train)
        epoch_loss = 0.0
        for lo in range(0, n_train, train_config.batch_size):
            batch = order[lo : lo + train_config.batch_size]
            with Tape():
                pred = forecast_batch(inputs[batch], params, model_config)
                loss = mse_loss(pred, targets[:, batch, :])
                loss_value = loss.item()
                if not np.isfinite(loss_value):
                    raise FloatingPointError(f"training diverged at epoch {epoch}")
                backward(loss)
            grads = [p.grad for p in opt_params]
            try:
                adam_step(opt_params, grads, state, train_config)
            except FloatingPointError as err:
                named = zip(params.named_parameters(), grads)
                bad = [name for (name, _), g in named if not np.all(np.isfinite(g))]
                raise FloatingPointError(
                    f"training: non-finite gradient for {', '.join(bad)} at epoch {epoch}"
                ) from err
            params.zero_grad()
            epoch_loss += loss_value * len(batch)

        val_mse = _eval_mse(params, model_config, val_windows)
        history.append(
            {"epoch": epoch, "train_mse": epoch_loss / n_train, "val_mse": val_mse}
        )
        if val_mse < best_val:
            best_val = val_mse
            best_values = [p.values.copy() for p in opt_params]
            stale = 0
        else:
            stale += 1
            if stale >= train_config.patience:
                break
    for p, values in zip(opt_params, best_values):
        p.values = values
    return params, history


# ---------------------------------------------------------------------------
# evaluation protocol


def cross_validate(
    frame: SeriesFrame,
    model_config: ForecasterConfig,
    train_config: TrainConfig,
    k: int = 5,
    horizons: tuple[int, ...] = (),
    stride: int = 1,
    dtw_radius: int = 1,
) -> dict[str, list[float]]:
    """k-fold evaluation with contiguous test blocks.

    Per fold, a fresh model is trained on the train windows and scored on
    the test block: MSE and MAE at horizon 1, plus — for each requested
    multi-step horizon — FastDTW between the predicted and true paths,
    using a model trained with that many output heads. Each distinct
    horizon, 1 included, trains one model per fold, seeded with
    ``model_config.seed + fold``. A bad ``dtw_radius``, horizon or ``k`` is
    rejected before any training.

    Returns metric name -> one value per fold: ``mse``, ``mae``, then
    ``dtw_<h>step`` for each of ``horizons``, the CLI table's column order.
    """
    check_integer("radius", dtw_radius, 0)
    for horizon in horizons:
        check_integer("horizon", horizon, 1)
    metrics: dict[str, list[float]] = {"mse": [], "mae": []}
    metrics.update((f"dtw_{horizon}step", []) for horizon in horizons)
    runs = []  # (horizon, windows, folds), all built before the first training
    for horizon in dict.fromkeys((1, *horizons)):
        windows = build_windows(frame, model_config.T, horizon, stride)
        runs.append((horizon, windows, blocked_kfold(len(windows), k)))

    for horizon, windows, folds in runs:
        for fold, (train_idx, test_idx) in enumerate(folds):
            fold_test = [windows[i] for i in test_idx]
            fold_config = replace(model_config, L=horizon, seed=model_config.seed + fold)
            params, _ = train_model([windows[i] for i in train_idx], fold_config, train_config)
            preds = predict_windows(params, fold_config, fold_test)
            if horizon == 1:
                targets = np.stack([w.target for w in fold_test])
                metrics["mse"].append(float(np.mean((preds - targets) ** 2)))
                metrics["mae"].append(mae_metric(preds, targets))
            if horizon in horizons:
                cost = 0.0  # a plain running sum: sum() compensates from Python 3.12
                for pred, window in zip(preds, fold_test):
                    cost += dtw_multivariate(pred, window.target, radius=dtw_radius)
                metrics[f"dtw_{horizon}step"].append(cost / len(fold_test))

    return metrics


def sliding_forecast(
    params: ForecasterParams,
    config: ForecasterConfig,
    series: np.ndarray,
    start: int,
    total_steps: int,
) -> np.ndarray:
    """Forecast the ``total_steps`` rows beyond ``start`` of a (length, v)
    ``series`` by repeatedly predicting L steps from the latest T rows and
    feeding the predictions back in as context. Only the T rows before
    ``start`` are read from the source series, and they must be finite.

    Closed-loop error compounds with every slide, so roll out with a model
    whose horizon L fits the job: a one-step model slid dozens of steps
    can diverge even when its one-step error is tiny. Such a rollout is
    stopped: once a forecast value (NaN included) lies outside the
    context's midpoint +- ``ROLLOUT_REACH`` times its range, per variable,
    a ValueError names the step, the value and the bound.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim != 2:
        raise ValueError(f"sliding_forecast: expected a (length, v) series, got shape {series.shape}")
    check_integer("start", start, 0)
    check_integer("total_steps", total_steps, 1)
    if not config.T <= start <= len(series):
        raise ValueError(
            f"start={start} must lie between the window length T={config.T} "
            f"and the series length {len(series)}"
        )

    bad = np.flatnonzero(~np.isfinite(series[start - config.T : start]).all(axis=1))
    if bad.size:
        raise ValueError(f"series has a non-finite value at index {start - config.T + bad[0]}, before start={start}")

    slides = -(-total_steps // config.L)
    rolled = np.empty((config.T + slides * config.L, series.shape[1]))  # context, then each slide's L rows
    rolled[: config.T] = series[start - config.T : start]
    lo, hi = rolled[: config.T].min(axis=0), rolled[: config.T].max(axis=0)
    mid = (lo + hi) / 2
    reach = ROLLOUT_REACH * np.maximum(hi - lo, MIN_CONTEXT_RANGE)
    end = config.T + total_steps
    for at in range(config.T, len(rolled), config.L):
        rolled[at : at + config.L] = forecast(rolled[at - config.T : at], params, config).values
        inside = np.abs(rolled[at : min(at + config.L, end)] - mid) <= reach  # the kept steps of this slide
        if not inside.all():
            row, j = np.argwhere(~inside)[0]
            raise ValueError(
                f"sliding_forecast: the rollout diverged at step {at - config.T + row}: variable {j} is "
                f"{rolled[at + row, j]:.6g}, outside [{mid[j] - reach[j]:.6g}, {mid[j] + reach[j]:.6g}], the "
                f"context's midpoint +- {ROLLOUT_REACH:g} times its range"
            )
    return rolled[config.T : end]
