"""Evaluation metrics: MAE, exact dynamic time warping, and the
multi-resolution FastDTW approximation.

DTW here follows the classic recurrence
    D(i, j) = |a_i - b_j| + min(D(i-1, j), D(i, j-1), D(i-1, j-1))
with absolute difference as the pointwise distance. FastDTW
coarsens both sequences by pairwise averaging, solves recursively,
projects the coarse warp path up one resolution, and refines inside a
band of the given radius, per the usual multilevel scheme. Its cost is
never below the exact cost, and equals it once the radius covers the
whole alignment matrix.

Multivariate inputs are warped per variable and the costs summed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "dtw_bruteforce",
    "dtw_exact",
    "dtw_exact_path",
    "dtw_multivariate",
    "fastdtw",
    "mae_metric",
]

BRUTEFORCE_LIMIT = 7


def mae_metric(pred, target) -> float:
    """Mean absolute difference over all entries."""
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.shape != target.shape:
        raise ValueError(f"mae: shapes {pred.shape} and {target.shape} differ")
    return float(np.mean(np.abs(pred - target)))


def _as_sequence(x) -> np.ndarray:
    seq = np.asarray(x, dtype=np.float64)
    if seq.ndim != 1:
        raise ValueError(f"expected a 1-d sequence, got shape {seq.shape}")
    if seq.size < 1:
        raise ValueError("empty sequence")
    return seq


def dtw_exact(a, b) -> float:
    """Exact DTW cost, O(n*m) time."""
    cost, _ = dtw_exact_path(a, b)
    return cost


def dtw_exact_path(a, b):
    """Exact DTW cost plus one optimal warp path.

    The path is a list of (i, j) index pairs, 0-based, monotone in both
    coordinates, from (0, 0) to (n-1, m-1), with steps in
    {(1,0), (0,1), (1,1)}.
    """
    a, b = _as_sequence(a), _as_sequence(b)
    n, m = a.size, b.size
    window = [(i, j) for i in range(n) for j in range(m)]
    return _dtw_window(a, b, window)


def _dtw_window(a, b, window):
    """DP restricted to the given cells; cells outside are unreachable."""
    inf = float("inf")
    acc: dict[tuple[int, int], float] = {}
    parent: dict[tuple[int, int], tuple[int, int] | None] = {}
    for i, j in window:
        local = abs(a[i] - b[j])
        if i == 0 and j == 0:
            acc[(i, j)] = local
            parent[(i, j)] = None
            continue
        best, step = inf, None
        for prev in ((i - 1, j - 1), (i - 1, j), (i, j - 1)):
            c = acc.get(prev, inf)
            if c < best:
                best, step = c, prev
        if step is None:
            continue  # unreachable inside this band
        acc[(i, j)] = local + best
        parent[(i, j)] = step

    end = (a.size - 1, b.size - 1)
    if end not in acc:
        raise RuntimeError("DTW window does not connect start to end")
    path = []
    cell: tuple[int, int] | None = end
    while cell is not None:
        path.append(cell)
        cell = parent[cell]
    path.reverse()
    return acc[end], path


def dtw_bruteforce(a, b) -> float:
    """Exhaustive minimum over every valid warp path; test oracle only."""
    a, b = _as_sequence(a), _as_sequence(b)
    n, m = a.size, b.size
    if n > BRUTEFORCE_LIMIT or m > BRUTEFORCE_LIMIT:
        raise ValueError(f"brute force limited to length {BRUTEFORCE_LIMIT}")

    best = [float("inf")]

    def walk(i, j, cost):
        cost += abs(a[i] - b[j])
        if cost >= best[0]:
            return
        if i == n - 1 and j == m - 1:
            best[0] = cost
            return
        if i + 1 < n and j + 1 < m:
            walk(i + 1, j + 1, cost)
        if i + 1 < n:
            walk(i + 1, j, cost)
        if j + 1 < m:
            walk(i, j + 1, cost)

    walk(0, 0, 0.0)
    return best[0]


def fastdtw(a, b, radius: int = 1) -> float:
    """Multilevel DTW approximation with refinement radius ``radius``."""
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")
    a, b = _as_sequence(a), _as_sequence(b)
    cost, _ = _fastdtw(a, b, radius)
    return cost


def _fastdtw(a, b, radius):
    min_size = radius + 2
    if a.size <= min_size or b.size <= min_size:
        return dtw_exact_path(a, b)
    _, coarse_path = _fastdtw(_halve(a), _halve(b), radius)
    window = _expand_window(coarse_path, a.size, b.size, radius)
    return _dtw_window(a, b, window)


def _halve(x: np.ndarray) -> np.ndarray:
    """Average consecutive pairs; an odd trailing element is kept as-is."""
    pairs = x.size // 2
    out = (x[0 : 2 * pairs : 2] + x[1 : 2 * pairs + 1 : 2]) / 2.0
    if x.size % 2:
        out = np.append(out, x[-1])
    return out


def _expand_window(coarse_path, n, m, radius):
    """Project a coarse warp path up one resolution and inflate it."""
    inflated = set()
    for i, j in coarse_path:
        for di in range(-radius, radius + 1):
            for dj in range(-radius, radius + 1):
                inflated.add((i + di, j + dj))
    cells = set()
    for i, j in inflated:
        for fi, fj in ((2 * i, 2 * j), (2 * i, 2 * j + 1), (2 * i + 1, 2 * j), (2 * i + 1, 2 * j + 1)):
            if 0 <= fi < n and 0 <= fj < m:
                cells.add((fi, fj))
    return sorted(cells)


def dtw_multivariate(pred, target, radius: int | None = None) -> float:
    """Sum of per-variable DTW costs between two (steps x v) blocks.

    ``radius=None`` computes exact DTW per column; an integer uses the
    FastDTW approximation.
    """
    pred = np.asarray(pred, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    if pred.ndim == 1:
        pred = pred[:, None]
    if target.ndim == 1:
        target = target[:, None]
    if pred.shape[1] != target.shape[1]:
        raise ValueError(f"variable counts differ: {pred.shape} vs {target.shape}")
    total = 0.0
    for j in range(pred.shape[1]):
        if radius is None:
            total += dtw_exact(pred[:, j], target[:, j])
        else:
            total += fastdtw(pred[:, j], target[:, j], radius)
    return total
