"""Synthetic corpus of trending, periodic series, and the ablation that
trains one model per arm of ``ARMS`` on it.

Each series is trend + sinusoid + Gaussian noise:

    s_t = slope * t + amplitude * sin(2 pi t / period + phase) + noise_t

with slope, amplitude, period and phase drawn per series from the spec
ranges. The ground-truth components are returned alongside the series so
the construction can be audited (they sum to the series exactly).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .metrics import dtw_multivariate
from .model import ForecasterConfig
from .preprocess import ForecastWindow, SeriesFrame, build_windows, check_integer, preprocess_frame
from .train import TrainConfig, sliding_forecast, train_model

__all__ = [
    "ARMS",
    "AblationArm",
    "AblationResult",
    "SynthSeries",
    "SynthSpec",
    "ablation_run",
    "corpus_to_frame",
    "default_ablation_model_config",
    "default_ablation_train_config",
    "evaluate_arm",
    "generate",
]

HOLDOUT_FRACTION = 0.2  # share of the corpus, from the tail, held out for scoring
WINDOW_STRIDE = 2  # stride of the training windows


@dataclass
class SynthSpec:
    n_series: int = 80
    length: int = 120
    slope_range: tuple[float, float] = (-0.05, 0.05)
    period_range: tuple[float, float] = (8.0, 30.0)
    amplitude_range: tuple[float, float] = (0.5, 2.0)
    noise_std: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name, least in (("n_series", 1), ("length", 8), ("seed", 0)):
            setattr(self, name, check_integer(name, getattr(self, name), least))
        for name in ("slope_range", "period_range", "amplitude_range"):
            lo, hi = getattr(self, name)
            if not lo <= hi:
                raise ValueError(f"{name} is not well ordered: ({lo}, {hi})")
            setattr(self, name, (float(lo), float(hi)))
        if self.period_range[0] <= 0:
            raise ValueError("periods must be positive")
        if self.noise_std < 0:
            raise ValueError(f"noise_std must be >= 0, got {self.noise_std}")
        self.noise_std = float(self.noise_std)


@dataclass
class SynthSeries:
    values: np.ndarray
    trend: np.ndarray
    periodic: np.ndarray
    noise: np.ndarray
    slope: float
    period: float
    amplitude: float
    phase: float


def generate(spec: SynthSpec) -> list[SynthSeries]:
    """Deterministic corpus of univariate series with per-series components."""
    rng = np.random.default_rng(spec.seed)
    t = np.arange(spec.length, dtype=np.float64)
    corpus = []
    for _ in range(spec.n_series):
        slope = rng.uniform(*spec.slope_range)
        period = rng.uniform(*spec.period_range)
        amplitude = rng.uniform(*spec.amplitude_range)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        trend = slope * t
        periodic = amplitude * np.sin(2.0 * np.pi * t / period + phase)
        noise = rng.normal(0.0, spec.noise_std, size=spec.length) if spec.noise_std > 0 else np.zeros(spec.length)
        corpus.append(
            SynthSeries(
                values=trend + periodic + noise,
                trend=trend,
                periodic=periodic,
                noise=noise,
                slope=slope,
                period=period,
                amplitude=amplitude,
                phase=phase,
            )
        )
    return corpus


def corpus_to_frame(corpus: list[SynthSeries]) -> SeriesFrame:
    """Bundle a corpus as one frame, series as columns (the CLI's format)."""
    data = np.stack([s.values for s in corpus], axis=1)
    names = [f"s{i:03d}" for i in range(len(corpus))]
    return SeriesFrame(names, data)


# ---------------------------------------------------------------------------
# the ablation

# The ablation's arms in training and table order: each arm's name and the
# ForecasterConfig fields it sets. The first is the full model the rest ablate.
ARMS = (
    ("with_shortcut", {"use_ar_shortcut": True}),
    ("without_shortcut", {"use_ar_shortcut": False}),
)


def default_ablation_model_config(seed: int = 0) -> ForecasterConfig:
    return ForecasterConfig(
        v=1, T=16, L=4, n_filters=4, kernel_size=5, gru_hidden=8, ar_window=5, seed=seed
    )


def default_ablation_train_config(seed: int = 0) -> TrainConfig:
    return TrainConfig(learning_rate=5e-3, epochs=60, batch_size=64, patience=10, seed=seed)


@dataclass
class AblationArm:
    mse_per_series: list[float]
    dtw_per_series: list[float]

    @property
    def mean_mse(self) -> float:
        return float(np.mean(self.mse_per_series))

    @property
    def mean_dtw(self) -> float:
        return float(np.mean(self.dtw_per_series))


@dataclass
class AblationResult:
    seed: int
    eval_steps: int
    arms: dict[str, AblationArm]  # in ARMS order
    traces: list[dict]

    # perfbench's ablation workload reads the two arms by these names
    @property
    def with_shortcut(self) -> AblationArm:
        return self.arms["with_shortcut"]

    @property
    def without_shortcut(self) -> AblationArm:
        return self.arms["without_shortcut"]


def evaluate_arm(
    windows: list[ForecastWindow],
    held_out: list[np.ndarray],
    model_config: ForecasterConfig,
    train_config: TrainConfig,
    eval_steps: int,
) -> tuple[AblationArm, list[np.ndarray]]:
    """Train one model on the training windows, score sliding multi-step
    forecasts on each preprocessed held-out series (a (length, 1) array).
    Returns the arm result plus the (eval_steps, 1) forecast per held-out
    series. A bad ``eval_steps`` fails before training.
    """
    check_integer("eval_steps", eval_steps, 1)
    params, _ = train_model(windows, model_config, train_config)

    mse_list, dtw_list, predictions = [], [], []
    for data in held_out:
        start = data.shape[0] - eval_steps
        pred = sliding_forecast(params, model_config, data, start, eval_steps)
        truth = data[start:]
        mse_list.append(float(np.mean((pred - truth) ** 2)))
        dtw_list.append(dtw_multivariate(pred, truth, radius=None))
        predictions.append(pred)
    return AblationArm(mse_per_series=mse_list, dtw_per_series=dtw_list), predictions


def ablation_run(
    spec: SynthSpec | None = None,
    model_config: ForecasterConfig | None = None,
    train_config: TrainConfig | None = None,
    eval_steps: int = 20,
) -> AblationResult:
    """Train one model per arm of ``ARMS``, each ``model_config`` with the
    arm's fields set, and compare held-out sliding multi-step error.

    The corpus is preprocessed, split and windowed once; every arm trains
    on the same window list and is scored on the same held-out arrays.
    Each trace holds the series' truth and one rollout per arm name.
    An ``eval_steps`` outside 1 ... spec.length - T fails before training.
    """
    spec = spec or SynthSpec()
    model_config = model_config or default_ablation_model_config(seed=spec.seed)
    train_config = train_config or default_ablation_train_config(seed=spec.seed)
    check_integer("eval_steps", eval_steps, 1)
    if eval_steps > spec.length - model_config.T:
        raise ValueError(f"eval_steps={eval_steps} must lie between 1 and length - T = {spec.length - model_config.T}")
    corpus = generate(spec)
    n_train = len(corpus) - max(1, int(round(HOLDOUT_FRACTION * len(corpus))))
    if n_train < 1:
        raise ValueError("holdout fraction leaves no training series")

    windows: list[ForecastWindow] = []
    held_out: list[np.ndarray] = []
    for idx, series in enumerate(corpus):
        frame, _ = preprocess_frame(SeriesFrame(["y"], series.values[:, None]))
        if idx < n_train:
            windows.extend(build_windows(frame, model_config.T, model_config.L, WINDOW_STRIDE))
        else:
            held_out.append(frame.data)

    arms, predictions = {}, {}
    for name, fields in ARMS:
        arms[name], predictions[name] = evaluate_arm(
            windows, held_out, replace(model_config, **fields), train_config, eval_steps
        )

    traces = [
        {
            "series_index": n_train + offset,
            "start": data.shape[0] - eval_steps,
            "truth": data[:, 0].copy(),
            **{name: preds[offset][:, 0].copy() for name, preds in predictions.items()},
        }
        for offset, data in enumerate(held_out)
    ]
    return AblationResult(seed=spec.seed, eval_steps=eval_steps, arms=arms, traces=traces)
