"""Dataset preparation: normalization, Gaussian smoothing, multi-resolution
downsampling, supervised window construction, and blocked fold splitting.

All functions are pure: they return new arrays/frames and never mutate
their inputs, so they are safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ForecastWindow",
    "NormStats",
    "SeriesFrame",
    "apply_normalizer",
    "blocked_kfold",
    "build_windows",
    "check_integer",
    "downsample_avg",
    "fit_normalizer",
    "gaussian_kernel",
    "gaussian_smooth",
    "invert_normalizer",
    "preprocess_frame",
]

CONSTANT_STD_FLOOR = 1e-8


def check_integer(name: str, value, least: int) -> int:
    """``value`` as a Python int; a ValueError naming ``name`` unless it is
    an integer (a numpy integer counts, a bool does not) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < least:
        raise ValueError(f"{name} must be an integer >= {least}, got {value!r}")
    return int(value)


@dataclass
class SeriesFrame:
    """A (length, v) series, v = 1 for a univariate one, plus variable names."""

    names: list[str]
    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=np.float64)
        if data.ndim != 2:
            raise ValueError(f"SeriesFrame data must be 2-d (length, v), got shape {data.shape}")
        if data.shape[0] == 0:
            raise ValueError("SeriesFrame data has no rows")
        if data.shape[1] == 0:
            raise ValueError("SeriesFrame data has no variables")
        if len(self.names) != data.shape[1]:
            raise ValueError(
                f"{len(self.names)} variable names for {data.shape[1]} columns"
            )
        if not np.all(np.isfinite(data)):
            raise ValueError("SeriesFrame data contains non-finite values")
        self.data = data

    @property
    def length(self) -> int:
        return self.data.shape[0]

    @property
    def n_variables(self) -> int:
        return self.data.shape[1]


@dataclass
class NormStats:
    """Per-variable mean / population std; constant columns use std 1."""

    mean: np.ndarray
    std: np.ndarray
    constant: np.ndarray  # bool mask of variables flagged as constant


@dataclass
class ForecastWindow:
    """One supervised instance: a T x v input block and the L x v block
    immediately following it in the source series."""

    input: np.ndarray
    target: np.ndarray

    def __post_init__(self):
        if self.input.ndim != 2 or self.target.ndim != 2:
            raise ValueError(
                f"input and target must be 2-d (steps x v) blocks, got shapes {self.input.shape} and {self.target.shape}"
            )
        if self.target.shape[0] < 1:
            raise ValueError("target horizon must be at least 1")
        if self.input.shape[1] != self.target.shape[1]:
            raise ValueError("input and target variable counts differ")


def fit_normalizer(frame: SeriesFrame) -> NormStats:
    """Per-variable mean and population (1/N) standard deviation.

    Variables with std below 1e-8 are flagged constant and given std 1 so
    that normalization is well defined.
    """
    if frame.length < 2:
        raise ValueError(f"need at least 2 rows to fit a normalizer, got {frame.length}")
    mean = frame.data.mean(axis=0)
    std = frame.data.std(axis=0)  # population, ddof=0
    constant = std < CONSTANT_STD_FLOOR
    std = np.where(constant, 1.0, std)
    return NormStats(mean=mean, std=std, constant=constant)


def apply_normalizer(frame: SeriesFrame, stats: NormStats) -> SeriesFrame:
    _check_arity(frame, stats)
    data = (frame.data - stats.mean) / stats.std
    return SeriesFrame(list(frame.names), data)


def invert_normalizer(frame: SeriesFrame, stats: NormStats) -> SeriesFrame:
    """Exact inverse of apply_normalizer."""
    _check_arity(frame, stats)
    data = frame.data * stats.std + stats.mean
    return SeriesFrame(list(frame.names), data)


def _check_arity(frame: SeriesFrame, stats: NormStats) -> None:
    if stats.mean.shape != (frame.n_variables,) or stats.std.shape != (frame.n_variables,):
        raise ValueError(
            f"normalizer arity {stats.mean.shape} does not match {frame.n_variables} variables"
        )


def gaussian_kernel() -> np.ndarray:
    """The smoothing kernel: exp(-k^2 / (2 std^2)) for k in -2 ... 2 with
    std 2, normalized to sum to one."""
    k = np.arange(-2, 3, dtype=np.float64)
    kernel = np.exp(-(k**2) / 8.0)  # 2 std^2 = 8
    return kernel / kernel.sum()


def gaussian_smooth(frame: SeriesFrame) -> SeriesFrame:
    """Smooth each variable with :func:`gaussian_kernel`, a normalized
    5-tap Gaussian of std 2.

    Edges use reflect padding (mirror about the edge sample), so constant
    series pass through unchanged and interior points of affine series are
    preserved by the kernel's symmetry.
    """
    kernel = gaussian_kernel()
    half = kernel.size // 2
    out = np.empty_like(frame.data)
    for j in range(frame.n_variables):
        padded = np.pad(frame.data[:, j], half, mode="reflect")
        out[:, j] = np.convolve(padded, kernel, mode="valid")
    return SeriesFrame(list(frame.names), out)


def downsample_avg(block: np.ndarray, factor: int) -> np.ndarray:
    """Average non-overlapping groups of `factor` consecutive rows.

    ``block`` is (T,), (T, v), or (..., T, v) with leading batch axes; rows
    are the second-to-last axis of a 2-d or larger block.
    ``factor`` is any positive integer that divides the length: [1, 2, 3, 4]
    with factor 2 gives [1.5, 3.5]; with factor 4 gives [2.5].

    The mean is the sum over each group divided by ``factor``: the two
    ufunc calls ``ndarray.mean`` makes inside its Python wrapper, so the
    bits are the same.
    """
    block = np.asarray(block, dtype=np.float64)
    squeeze = block.ndim == 1
    if squeeze:
        block = block[:, None]
    *lead, t_len, v = block.shape
    check_integer("factor", factor, 1)
    if t_len % factor != 0:
        raise ValueError(f"length {t_len} is not divisible by factor {factor}")
    out = np.add.reduce(block.reshape(*lead, t_len // factor, factor, v), axis=-2)
    np.true_divide(out, factor, out=out)
    return out[:, 0] if squeeze else out


def build_windows(frame: SeriesFrame, T: int, L: int, stride: int = 1) -> list[ForecastWindow]:
    """Chronological sliding windows: inputs of length T, targets of length L."""
    for name, value in (("T", T), ("L", L), ("stride", stride)):
        check_integer(name, value, 1)
    if T + L > frame.length:
        raise ValueError(
            f"series of length {frame.length} cannot fit one window of T={T} plus L={L}"
        )
    windows = []
    offset = 0
    while offset + T + L <= frame.length:
        windows.append(
            ForecastWindow(
                input=frame.data[offset : offset + T].copy(),
                target=frame.data[offset + T : offset + T + L].copy(),
            )
        )
        offset += stride
    return windows


def blocked_kfold(n_windows: int, k: int = 5) -> list[tuple[np.ndarray, np.ndarray]]:
    """Contiguous test blocks partitioning range(n_windows) into k folds.

    Block sizes differ by at most one; the remainder goes to the earliest
    blocks. Train indices are the complement of each test block.
    """
    check_integer("n_windows", n_windows, 0)
    check_integer("k", k, 2)
    if n_windows < k:
        raise ValueError(f"{n_windows} windows cannot form {k} folds")
    base, rem = divmod(n_windows, k)
    folds = []
    start = 0
    everything = np.arange(n_windows)
    for i in range(k):
        size = base + (1 if i < rem else 0)
        test = everything[start : start + size]
        train = np.concatenate([everything[:start], everything[start + size :]])
        folds.append((train, test))
        start += size
    return folds


def preprocess_frame(frame: SeriesFrame) -> tuple[SeriesFrame, NormStats]:
    """Standard pipeline: fit per-variable normalization on the full series,
    apply it, then Gaussian-smooth each variable.

    Statistics are fit globally, before any fold splitting; see the README
    for the leakage caveat this implies.
    """
    stats = fit_normalizer(frame)
    normalized = apply_normalizer(frame, stats)
    return gaussian_smooth(normalized), stats
