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

One DP contract, ``_dtw_window``, serves every DTW. Its window is a
column range lo[i] <= j <= hi[i] per row i: the whole matrix for exact
DTW, the projected band for a FastDTW level. It runs one of two sweeps,
chosen by the window's cells per anti-diagonal:

- more than ``ROW_SWEEP_CELLS``: ``_dtw_diagonals`` sweeps the
  anti-diagonals d = i + j, a few numpy operations per diagonal (about
  4 us each, whatever its length);
- otherwise ``_dtw_rows`` sweeps the rows over Python floats, about
  0.15-0.25 us a cell with no numpy call per row.

The two cost the same at 15-24 cells per diagonal on a 2-core Xeon VM
(two measurements; 16 is at the low end, where the rows are never the
slower sweep). So 100-point exact pairs take the diagonals, and 20-point
pairs and FastDTW bands of small radius the rows. Both keep only the
window's cells, so a FastDTW band takes memory linear in the length. Each
cell is |a_i - b_j| + min(D(i-1, j-1), D(i-1, j), D(i, j-1)) in float64;
min is exact and the one addition rounds the same way in any sweep order,
so both give the costs of a cell-by-cell loop bit for bit, and their warp
paths, traced back over the stored costs with the same tie order, too.

Multivariate inputs are warped per variable and the costs summed.
Sequences must be non-empty and finite; a NaN or infinity is rejected
with the input's name and the first bad index.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "check_radius",
    "dtw_bruteforce",
    "dtw_exact",
    "dtw_exact_path",
    "dtw_multivariate",
    "fastdtw",
    "mae_metric",
]

BRUTEFORCE_LIMIT = 7
ROW_SWEEP_CELLS = 16  # window cells per anti-diagonal up to which _dtw_window sweeps rows


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
    unreachable. ``lo`` and ``hi`` are non-decreasing per-row lists of
    ints (or ints, for the same range in every row), lo[0] = 0 and
    hi[-1] = m - 1. Returns the cost and, if asked, the warp path.

    A window of more than ``ROW_SWEEP_CELLS`` cells per anti-diagonal runs
    the numpy diagonal sweep, a narrower one the row sweep over Python
    floats; both give the same bits.
    """
    n, m = a.size, b.size
    if isinstance(lo, int):
        cells = n * (hi - lo + 1)
    else:
        cells = sum(hi) - sum(lo) + n
    if cells > ROW_SWEEP_CELLS * (n + m - 1):
        return _dtw_diagonals(a, b, lo, hi, with_path)
    return _dtw_rows(a, b, lo, hi, with_path)


def _dtw_diagonals(a, b, lo, hi, with_path: bool):
    """``_dtw_window`` one anti-diagonal at a time, a few numpy operations
    over each diagonal's cells.

    A cell of anti-diagonal d = i + j depends only on diagonals d - 1 and
    d - 2. Because lo and hi are non-decreasing, the window's cells on
    diagonal d are the rows first[d] <= i < first[d] + count[d]. ``acc``
    holds two inf standing in for diagonal -1, then each diagonal's cells
    between two inf pads, cell (i, d - i) at base[d] + 1 + i. Its
    predecessors (i-1, j-1), (i-1, j) and (i, j-1) are then at
    base[d-2] + i, base[d-1] + i and base[d-1] + i + 1, and any of them
    outside the window is a pad.
    """
    n, m = a.size, b.size
    diagonals = np.arange(n + m - 1)
    rows = diagonals[:n]
    first = (rows + np.asarray(hi)).searchsorted(diagonals)
    count = (rows + np.asarray(lo)).searchsorted(diagonals, "right") - first
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

    cost = _finite_cost(float(acc[at[-1] + n]), n, m)
    if not with_path:
        return cost, None

    def predecessors(i, j):
        prev, prev2 = at[i + j], at[i + j - 1]
        return acc[prev2 + i], acc[prev + i], acc[prev + i + 1]

    return cost, _trace(n, m, predecessors)


def _dtw_rows(a, b, lo, hi, with_path: bool):
    """``_dtw_window`` one row at a time over Python floats.

    Row i is a list over columns lo[i] - 1 .. hi[i], the first inf. It is
    computed from ``up``, row i - 1's costs over the same columns, inf
    outside row i - 1's window. Row -1 is [0.0], its one cell (-1, -1)
    at cost 0, so cell (0, 0) adds its local cost to 0 exactly. Without a
    path only the previous row is kept.
    """
    n, m = a.size, b.size
    a, b = a.tolist(), b.tolist()
    if isinstance(lo, int):
        lo, hi = [lo] * n, [hi] * n
    inf = math.inf
    kept = []
    prev, prev_j0 = [0.0], 0
    for x, j0, j1 in zip(a, lo, hi):
        up = prev[j0 - prev_j0 : j1 + 2 - prev_j0]
        up += [inf] * (j1 - j0 + 2 - len(up))
        row = [inf]
        append = row.append
        left = inf
        for y, c_diag, c_up in zip(b[j0 : j1 + 1], up, up[1:]):
            if c_up < c_diag:
                c_diag = c_up
            if left < c_diag:
                c_diag = left
            left = abs(x - y) + c_diag
            append(left)
        if with_path:
            kept.append((up, row))
        prev, prev_j0 = row, j0

    cost = _finite_cost(prev[-1], n, m)
    if not with_path:
        return cost, None

    def predecessors(i, j):
        k = j - lo[i]
        up, row = kept[i]
        return up[k], up[k + 1], row[k]

    return cost, _trace(n, m, predecessors)


def _finite_cost(cost: float, n: int, m: int) -> float:
    if not math.isfinite(cost):
        raise FloatingPointError(f"DTW cost of a {n} by {m} pair is not finite (float64 overflow)")
    return cost


def _trace(n, m, predecessors):
    """Warp path back from (n-1, m-1). ``predecessors(i, j)`` gives the
    costs of cells (i-1, j-1), (i-1, j) and (i, j-1), inf outside the
    window; among equal ones the path takes them in that order."""
    i, j = n - 1, m - 1
    path = [(i, j)]
    while i or j:
        c_diag, c_up, c_left = predecessors(i, j)
        if c_left < c_up and c_left < c_diag:
            j -= 1
        elif c_up < c_diag:
            i -= 1
        else:
            i, j = i - 1, j - 1
        path.append((i, j))
    path.reverse()
    return path


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


def check_radius(radius) -> None:
    """Raise a ValueError unless ``radius`` is an integer >= 0."""
    if isinstance(radius, bool) or not isinstance(radius, (int, np.integer)):
        raise ValueError(f"radius must be an integer >= 0, got {radius!r}")
    if radius < 0:
        raise ValueError(f"radius must be >= 0, got {radius}")


def fastdtw(a, b, radius: int = 1) -> float:
    """Multilevel DTW approximation with refinement radius ``radius``."""
    check_radius(radius)
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
    """Average consecutive pairs; an odd trailing element is kept as-is.

    Computed over Python floats, whose (p + q) / 2.0 rounds as numpy's
    does, to skip numpy's per-call set-up on short levels.
    """
    xs = x.tolist()
    out = [(p + q) / 2.0 for p, q in zip(xs[0::2], xs[1::2])]
    if len(xs) % 2:
        out.append(xs[-1])
    return np.array(out)


def _expand_window(coarse_path, n, m, radius):
    """Inflate a coarse warp path by ``radius`` cells in each direction and
    project it up one resolution, as per-row column ranges (lo, hi), two
    lists of ints.

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
    top = n_coarse - 1
    lo, hi = [], []
    for i in range(n_coarse):
        j0 = max(2 * (first[max(i - radius, 0)] - radius), 0)
        j1 = min(2 * (last[min(i + radius, top)] + radius) + 1, m - 1)
        lo += (j0, j0)
        hi += (j1, j1)
    return lo[:n], hi[:n]


def dtw_multivariate(pred, target, radius: int | None = None) -> float:
    """Sum of per-variable DTW costs between two (steps x v) blocks.

    ``radius=None`` computes exact DTW per column; an integer uses the
    FastDTW approximation.
    """
    if radius is not None:
        check_radius(radius)
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
    for block, name in ((pred, "pred"), (target, "target")):
        if block.ndim != 2:
            raise ValueError(f"{name}: expected a (steps x v) block, got shape {block.shape}")
        if block.shape[0] < 1:
            raise ValueError(f"{name}: empty sequence")
        _require_finite(block, name)
    # each column goes straight to the DP: the blocks are checked above
    total = 0.0
    for a, b in zip(pred.T, target.T):
        if radius is None:
            total += _dtw_window(a, b, 0, b.size - 1, with_path=False)[0]
        else:
            total += _fastdtw(a, b, radius, with_path=False)[0]
    return total
