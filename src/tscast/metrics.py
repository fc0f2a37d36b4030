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

One kernel, ``_dtw_window``, runs every DP. Its window is a column range
lo[i] <= j <= hi[i] per row i: the whole matrix for exact DTW, the
projected band for a FastDTW level. It sweeps the anti-diagonals
d = i + j, each one a few numpy operations over the diagonal's cells,
and keeps only the window's cells (plus two pads per diagonal), so a
FastDTW band takes memory linear in the sequence length. Each cell does
the same float64 operations as a cell-by-cell loop, so costs are the
same bit for bit; the warp path is traced back over the stored costs
with the same tie order.

Multivariate inputs are warped per variable and the costs summed.
Sequences must be non-empty and finite; a NaN or infinity is rejected
with the input's name and the first bad index.
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


def _as_sequence(x, name: str) -> np.ndarray:
    seq = np.asarray(x, dtype=np.float64)
    if seq.ndim != 1:
        raise ValueError(f"{name}: expected a 1-d sequence, got shape {seq.shape}")
    if seq.size < 1:
        raise ValueError(f"{name}: empty sequence")
    _require_finite(seq, name)
    return seq


def _require_finite(x: np.ndarray, name: str) -> None:
    finite = np.isfinite(x)
    if not finite.all():
        index = tuple(int(k) for k in np.argwhere(~finite)[0])
        raise ValueError(
            f"{name} holds {finite.size - np.count_nonzero(finite)} non-finite value(s); "
            f"the first is {x[index]} at index {index if x.ndim > 1 else index[0]}"
        )


def dtw_exact(a, b) -> float:
    """Exact DTW cost, O(n*m) time."""
    a, b = _as_sequence(a, "a"), _as_sequence(b, "b")
    cost, _ = _dtw_window(a, b, 0, b.size - 1, with_path=False)
    return cost


def dtw_exact_path(a, b):
    """Exact DTW cost plus one optimal warp path.

    The path is a list of (i, j) index pairs, 0-based, monotone in both
    coordinates, from (0, 0) to (n-1, m-1), with steps in
    {(1,0), (0,1), (1,1)}. Among equal-cost predecessors it prefers
    (i-1, j-1), then (i-1, j), then (i, j-1).
    """
    a, b = _as_sequence(a, "a"), _as_sequence(b, "b")
    return _dtw_window(a, b, 0, b.size - 1, with_path=True)


def _dtw_window(a, b, lo, hi, with_path: bool):
    """DP over the cells lo[i] <= j <= hi[i] of each row i; the rest are
    unreachable. ``lo`` and ``hi`` are non-decreasing per-row arrays (or
    scalars, for the same range in every row), lo[0] = 0 and
    hi[-1] = m - 1. Returns the cost and, if asked, the warp path.

    A cell of anti-diagonal d = i + j depends only on diagonals d - 1 and
    d - 2, so the sweep handles a diagonal at a time. Because lo and hi
    are non-decreasing, the window's cells on diagonal d are the rows
    first[d] <= i < first[d] + count[d]. ``acc`` holds two inf standing in
    for diagonal -1, then each diagonal's cells between two inf pads,
    cell (i, d - i) at base[d] + 1 + i. Its predecessors (i-1, j-1),
    (i-1, j) and (i, j-1) are then at base[d-2] + i, base[d-1] + i and
    base[d-1] + i + 1, and any of them outside the window is a pad.
    """
    n, m = a.size, b.size
    diagonals = np.arange(n + m - 1)
    rows = diagonals[:n]
    first = (rows + hi).searchsorted(diagonals)
    count = (rows + lo).searchsorted(diagonals, "right") - first
    base = (count + 2).cumsum() - count - first
    cell_diag = diagonals.repeat(count)
    cell_pos = np.arange(cell_diag.size) + 2 * cell_diag + 3
    cell_row = cell_pos - (base + 1).repeat(count)
    acc = np.full(base[-1] + n + 2, np.inf)
    acc[cell_pos] = np.abs(a[cell_row] - b[cell_diag - cell_row])

    # at[d + 1] = base[d]; at[0] = 0 puts diagonal -1's cells before acc[1]
    first, count, at = first.tolist(), count.tolist(), [0] + base.tolist()
    for s, c, here, prev, prev2 in zip(first[1:], count[1:], at[2:], at[1:], at):
        p, q = prev + s, prev2 + s
        cells = acc[here + 1 + s : here + 1 + s + c]
        cells += np.minimum(np.minimum(acc[q : q + c], acc[p : p + c]), acc[p + 1 : p + 1 + c])

    cost = float(acc[at[-1] + n])
    if not np.isfinite(cost):
        raise FloatingPointError(f"DTW cost of a {n} by {m} pair is not finite (float64 overflow)")
    if not with_path:
        return cost, None
    i, j = n - 1, m - 1
    path = [(i, j)]
    while i or j:
        prev, prev2 = at[i + j], at[i + j - 1]
        c_diag, c_up, c_left = acc[prev2 + i], acc[prev + i], acc[prev + i + 1]
        if c_left < c_up and c_left < c_diag:
            j -= 1
        elif c_up < c_diag:
            i -= 1
        else:
            i, j = i - 1, j - 1
        path.append((i, j))
    path.reverse()
    return cost, path


def dtw_bruteforce(a, b) -> float:
    """Exhaustive minimum over every valid warp path; test oracle only."""
    a, b = _as_sequence(a, "a"), _as_sequence(b, "b")
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
    a, b = _as_sequence(a, "a"), _as_sequence(b, "b")
    cost, _ = _fastdtw(a, b, radius, with_path=False)
    return cost


def _fastdtw(a, b, radius, with_path):
    min_size = radius + 2
    if a.size <= min_size or b.size <= min_size:
        window = 0, b.size - 1
    else:
        _, coarse_path = _fastdtw(_halve(a), _halve(b), radius, with_path=True)
        window = _expand_window(coarse_path, a.size, b.size, radius)
    return _dtw_window(a, b, *window, with_path=with_path)


def _halve(x: np.ndarray) -> np.ndarray:
    """Average consecutive pairs; an odd trailing element is kept as-is."""
    pairs = x.size // 2
    out = (x[0 : 2 * pairs : 2] + x[1 : 2 * pairs + 1 : 2]) / 2.0
    if x.size % 2:
        out = np.append(out, x[-1])
    return out


def _expand_window(coarse_path, n, m, radius):
    """Inflate a coarse warp path by ``radius`` cells in each direction and
    project it up one resolution, as per-row column ranges (lo, hi).

    A monotone path covers a contiguous, non-decreasing column range
    [first[i], last[i]] in each coarse row i, so the inflated row i covers
    [first[i - radius] - radius, last[i + radius] + radius] (row indices
    clipped to the path), and its two fine rows the doubled range.
    """
    n_coarse = coarse_path[-1][0] + 1
    first, last = [0] * n_coarse, [0] * n_coarse
    for i, j in reversed(coarse_path):
        first[i] = j
    for i, j in coarse_path:
        last[i] = j
    rows = np.arange(n_coarse)
    lo = 2 * (np.take(first, rows - radius, mode="clip") - radius)
    hi = 2 * (np.take(last, rows + radius, mode="clip") + radius) + 1
    return np.maximum(lo, 0).repeat(2)[:n], np.minimum(hi, m - 1).repeat(2)[:n]


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
    if pred.shape[1] == 0:
        raise ValueError(f"no variables to compare: shapes {pred.shape} and {target.shape}")
    _require_finite(pred, "pred")
    _require_finite(target, "target")
    total = 0.0
    for j in range(pred.shape[1]):
        if radius is None:
            total += dtw_exact(pred[:, j], target[:, j])
        else:
            total += fastdtw(pred[:, j], target[:, j], radius)
    return total
