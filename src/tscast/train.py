"""Optimization loop, loss, and the cross-validated evaluation protocol.

Training is plain minibatch Adam on the mean-squared forecast error, with
a chronological tail of the training windows held out for validation and
early stopping. Everything is deterministic given the seeds: batch order
is derived from the training seed and parameter initialization from the
model seed, so identical inputs reproduce identical histories bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .autodiff import Tape, Tensor, backward, constant, mean_all
from .metrics import dtw_multivariate, mae_metric
from .model import ForecasterConfig, ForecasterParams, forecast, forecast_batch, init_forecaster
from .preprocess import ForecastWindow, SeriesFrame, blocked_kfold, build_windows

__all__ = [
    "AdamState",
    "EvalReport",
    "TrainConfig",
    "adam_step",
    "cross_validate",
    "mse_loss",
    "predict_windows",
    "sliding_forecast",
    "train_model",
    "validation_split",
]

PREDICT_CHUNK = 256  # windows per forecast_batch call in predict_windows
BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # Adam's moment decays and denominator guard


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    epochs: int = 100
    batch_size: int = 32
    patience: int = 10
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.epochs < 0 or self.batch_size < 1 or self.patience < 1:
            raise ValueError("epochs must be >= 0, batch_size and patience >= 1")


@dataclass
class EvalReport:
    """Per-fold metric values with mean / sample-std aggregates."""

    variables: list[str]
    folds: int
    metrics: dict[str, list[float]]

    def mean(self, name: str) -> float:
        return float(np.mean(self.metrics[name]))

    def std(self, name: str) -> float:
        values = self.metrics[name]
        if len(values) < 2:
            return 0.0
        return float(np.std(values, ddof=1))

    def metric_names(self) -> list[str]:
        return list(self.metrics)


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
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def for_params(cls, params: list[Tensor]) -> "AdamState":
        return cls(
            m=[np.zeros(p.shape) for p in params],
            v=[np.zeros(p.shape) for p in params],
        )


def adam_step(
    params: list[Tensor], grads: list[np.ndarray], state: AdamState, hyper: TrainConfig
) -> tuple[list[Tensor], AdamState]:
    """One bias-corrected Adam update, in place on the parameter tensors.

    A non-finite gradient aborts the step before any parameter is touched;
    the error gives the position of the first such parameter in ``params``.
    """
    if len(grads) != len(params) or len(state.m) != len(params):
        raise ValueError("adam_step: params, grads and state are not aligned")
    for i, g in enumerate(grads):
        if not np.all(np.isfinite(g)):
            raise FloatingPointError(
                f"adam_step: non-finite gradient for parameter {i} of {len(params)}, aborting the update"
            )

    state.step += 1
    t = state.step
    correct1 = 1.0 - BETA1**t
    correct2 = 1.0 - BETA2**t
    for i, (p, g) in enumerate(zip(params, grads)):
        state.m[i] = BETA1 * state.m[i] + (1.0 - BETA1) * g
        state.v[i] = BETA2 * state.v[i] + (1.0 - BETA2) * g * g
        m_hat = state.m[i] / correct1
        v_hat = state.v[i] / correct2
        p.values[...] = p.values - hyper.learning_rate * m_hat / (np.sqrt(v_hat) + EPS)
    return params, state


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


def predict_windows(
    params: ForecasterParams, config: ForecasterConfig, windows: list[ForecastWindow]
) -> np.ndarray:
    """Forecast a list of windows on frozen parameters; returns (N, L, v)."""
    if len(windows) == 0:
        raise ValueError("predict_windows: no windows to forecast (got an empty list)")
    outputs = []
    for lo in range(0, len(windows), PREDICT_CHUNK):
        inputs = np.stack([w.input for w in windows[lo : lo + PREDICT_CHUNK]])
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
    validation snapshot. History records one dict per completed epoch.
    """
    if not windows:
        raise ValueError("train_model: need at least one window")
    params = init_forecaster(model_config)
    if train_config.epochs == 0:
        return params, []

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
) -> EvalReport:
    """k-fold evaluation with contiguous test blocks.

    Per fold, a fresh model is trained on the train windows and scored on
    the test block: MSE and MAE at horizon 1, plus — for each requested
    multi-step horizon — FastDTW between the predicted and true paths,
    using a model trained with that many output heads.
    """
    metrics: dict[str, list[float]] = {"mse": [], "mae": []}

    def fold_predictions(horizon: int):
        """(test windows, predictions) per fold, in fold order; fold i's
        model is seeded with model_config.seed + i."""
        windows = build_windows(frame, model_config.T, horizon, stride)
        for fold, (train_idx, test_idx) in enumerate(blocked_kfold(len(windows), k)):
            fold_train = [windows[i] for i in train_idx]
            fold_test = [windows[i] for i in test_idx]
            fold_config = replace(model_config, L=horizon, seed=model_config.seed + fold)
            params, _ = train_model(fold_train, fold_config, train_config)
            yield fold_test, predict_windows(params, fold_config, fold_test)

    for fold_test, preds in fold_predictions(1):
        targets = np.stack([w.target for w in fold_test])
        metrics["mse"].append(float(np.mean((preds - targets) ** 2)))
        metrics["mae"].append(mae_metric(preds, targets))

    for horizon in horizons:
        name = f"dtw_{horizon}step"
        metrics[name] = []
        for fold_test, preds in fold_predictions(horizon):
            cost = 0.0
            for pred, window in zip(preds, fold_test):
                cost += dtw_multivariate(pred, window.target, radius=dtw_radius)
            metrics[name].append(cost / len(fold_test))

    return EvalReport(variables=list(frame.names), folds=k, metrics=metrics)


def sliding_forecast(
    params: ForecasterParams,
    config: ForecasterConfig,
    series: np.ndarray,
    start: int,
    total_steps: int,
) -> np.ndarray:
    """Forecast ``total_steps`` values beyond ``start`` by repeatedly
    predicting L steps from the latest T observations and feeding the
    predictions back in as context. Only the T values before ``start``
    are read from the source series, and they must be finite.

    Closed-loop error compounds with every slide, so roll out with a model
    whose horizon L fits the job: a one-step model slid dozens of steps
    can diverge even when its one-step error is tiny.
    """
    series = np.asarray(series, dtype=np.float64)
    if series.ndim == 1:
        series = series[:, None]
    if not config.T <= start <= len(series):
        raise ValueError(
            f"start={start} must lie between the window length T={config.T} "
            f"and the series length {len(series)}"
        )
    if total_steps < 1:
        raise ValueError(f"total_steps must be >= 1, got {total_steps}")

    bad = np.flatnonzero(~np.isfinite(series[start - config.T : start]).all(axis=1))
    if bad.size:
        raise ValueError(f"series has a non-finite value at index {start - config.T + bad[0]}, before start={start}")

    context = series[:start].copy()
    produced: list[np.ndarray] = []
    while len(produced) < total_steps:
        window = context[-config.T :]
        step = forecast(window, params, config).values  # (L, v)
        for row in step:
            produced.append(row)
        context = np.concatenate([context, step], axis=0)
    return np.asarray(produced[:total_steps])
