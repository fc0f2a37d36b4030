"""tscast: multi-scale convolutional-recurrent time series forecasting
with a linear autoregressive shortcut, trained by a small tape-based
reverse-mode autodiff engine.

The pieces, bottom to top:

- :mod:`tscast.autodiff`   dense float64 tensors, gradient tape, backward
- :mod:`tscast.preprocess` normalization, Gaussian smoothing, downsampling,
                           window construction, blocked k-fold splits
- :mod:`tscast.model`      the three-resolution conv+GRU forecaster, output
                           heads, the shortcut, ridge baseline, checkpoints
- :mod:`tscast.train`      Adam, the training loop, cross-validation,
                           sliding multi-step forecasting
- :mod:`tscast.metrics`    MAE, exact DTW, FastDTW, brute-force DTW oracle
- :mod:`tscast.synth`      synthetic trend+periodicity corpus and the
                           with/without-shortcut experiment
- :mod:`tscast.cli`        the ``tscast`` command-line tool
"""

from .autodiff import Tape, Tensor, backward, finite_diff_grad
from .metrics import dtw_bruteforce, dtw_exact, dtw_multivariate, fastdtw, mae_metric
from .model import (
    ForecasterConfig,
    ForecasterParams,
    count_parameters,
    forecast,
    forecast_batch,
    init_forecaster,
    load_checkpoint,
    ridge_fit,
    save_checkpoint,
)
from .preprocess import (
    ForecastWindow,
    NormStats,
    SeriesFrame,
    apply_normalizer,
    blocked_kfold,
    build_windows,
    downsample_avg,
    fit_normalizer,
    gaussian_smooth,
    invert_normalizer,
    preprocess_frame,
)
from .synth import SynthSpec, ablation_run, generate
from .train import (
    TrainConfig,
    cross_validate,
    mse_loss,
    sliding_forecast,
    train_model,
)

__version__ = "0.1.0"

__all__ = [
    "ForecastWindow",
    "ForecasterConfig",
    "ForecasterParams",
    "NormStats",
    "SeriesFrame",
    "SynthSpec",
    "Tape",
    "Tensor",
    "TrainConfig",
    "ablation_run",
    "apply_normalizer",
    "backward",
    "blocked_kfold",
    "build_windows",
    "count_parameters",
    "cross_validate",
    "downsample_avg",
    "dtw_bruteforce",
    "dtw_exact",
    "dtw_multivariate",
    "fastdtw",
    "finite_diff_grad",
    "fit_normalizer",
    "forecast",
    "forecast_batch",
    "gaussian_smooth",
    "generate",
    "init_forecaster",
    "invert_normalizer",
    "load_checkpoint",
    "mae_metric",
    "mse_loss",
    "preprocess_frame",
    "ridge_fit",
    "save_checkpoint",
    "sliding_forecast",
    "train_model",
]
