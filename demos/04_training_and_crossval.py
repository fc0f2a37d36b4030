#!/usr/bin/env python3
# Train a small model on one synthetic series, watch the loss history,
# then run the blocked 5-fold protocol with a multi-step DTW horizon.

import numpy as np

from tscast.model import ForecasterConfig
from tscast.preprocess import SeriesFrame, build_windows, preprocess_frame
from tscast.train import TrainConfig, cross_validate, sliding_forecast, train_model

rng = np.random.default_rng(4)
t = np.arange(240.0)
series = 0.02 * t + 1.5 * np.sin(2 * np.pi * t / 24.0) + 0.1 * rng.normal(size=240)
frame, stats = preprocess_frame(SeriesFrame(["demand"], series[:, None]))

model_config = ForecasterConfig(v=1, T=16, L=1, n_filters=4, kernel_size=5, gru_hidden=8, seed=4)
train_config = TrainConfig(learning_rate=5e-3, epochs=25, batch_size=32, patience=8, seed=4)

windows = build_windows(frame, model_config.T, model_config.L, stride=1)
params, history = train_model(windows, model_config, train_config)
print(f"trained on {len(windows)} windows for {len(history)} epochs")
for h in history[::5]:
    print(f"  epoch {h['epoch']:2d}  train {h['train_mse']:.4f}  val {h['val_mse']:.4f}")

# Multi-step forecasting feeds predictions back in as context.
path = sliding_forecast(params, model_config, frame.data, start=200, total_steps=24)
truth = frame.data[200:224]
print(f"24-step sliding forecast MSE: {np.mean((path - truth) ** 2):.4f}")

# The evaluation protocol: contiguous 5-fold blocks, one-step MSE/MAE,
# and DTW at a 5-step horizon (a separate model with 5 heads per fold).
# The last fold tests the series' end, past the trend range seen in
# training - expect it to be the hard one.
metrics = cross_validate(
    frame, model_config, TrainConfig(epochs=15, seed=4), k=5, horizons=(5,), stride=2
)
for name, folds in metrics.items():
    print(f"{name:10s} {np.mean(folds):.4f} +/- {np.std(folds, ddof=1):.4f}   folds:",
          [f"{x:.4f}" for x in folds])
