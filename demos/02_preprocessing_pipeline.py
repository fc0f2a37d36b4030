#!/usr/bin/env python3
# The data pipeline, step by step: per-variable normalization, Gaussian
# smoothing, multi-resolution downsampling, window construction, and the
# blocked fold split used for evaluation.

import numpy as np

from tscast.preprocess import (
    SeriesFrame,
    apply_normalizer,
    blocked_kfold,
    build_windows,
    downsample_avg,
    fit_normalizer,
    gaussian_kernel,
    gaussian_smooth,
    invert_normalizer,
)

rng = np.random.default_rng(1)
t = np.arange(200.0)
raw = np.stack(
    [10.0 + 0.05 * t + np.sin(t / 6.0) + 0.3 * rng.normal(size=200),
     -3.0 + 2.0 * np.cos(t / 11.0) + 0.3 * rng.normal(size=200)],
    axis=1,
)
frame = SeriesFrame(["load", "temp"], raw)

stats = fit_normalizer(frame)
print("per-variable mean:", np.round(stats.mean, 3))
print("per-variable std :", np.round(stats.std, 3), "(population, 1/N)")

normed = apply_normalizer(frame, stats)
print("after normalization, column means ~0:", np.round(normed.data.mean(axis=0), 12))

back = invert_normalizer(normed, stats)
print("round trip max error:", np.max(np.abs(back.data - frame.data)))

# The smoother is a normalized 5-tap Gaussian with std 2; reflect padding
# keeps constants constant and affine interiors affine.
print("kernel:", np.round(gaussian_kernel(), 4), "sums to", gaussian_kernel().sum())
smoothed = gaussian_smooth(normed)
print("smoothing reduced per-column std to:", np.round(smoothed.data.std(axis=0), 3))

# Downsampling averages non-overlapping groups of rows.
print("downsample [1,2,3,4] by 2:", downsample_avg(np.array([1.0, 2.0, 3.0, 4.0]), 2))
print("downsample [1,2,3,4] by 4:", downsample_avg(np.array([1.0, 2.0, 3.0, 4.0]), 4))

# Supervised windows of any length; the model reads lengths that are a
# multiple of 4, so each window supports the half and quarter resolutions.
windows = build_windows(smoothed, T=16, L=3, stride=4)
print(f"built {len(windows)} windows of input (16 x 2) and target (3 x 2)")

# Blocked folds keep test windows contiguous in time.
for i, (train_idx, test_idx) in enumerate(blocked_kfold(len(windows), k=5)):
    print(f"fold {i}: train {len(train_idx):3d} windows, test block [{test_idx[0]}..{test_idx[-1]}]")
