import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscast import metrics
from tscast.metrics import (
    ROW_SWEEP_CELLS,
    _dtw_diagonals,
    _dtw_rows,
    _expand_window,
    _fastdtw,
    _halve,
    dtw_bruteforce,
    dtw_exact,
    dtw_exact_path,
    dtw_multivariate,
    fastdtw,
    mae_metric,
)


# ---------------------------------------------------------------------------
# reference DP: one cell at a time over an explicit list of window cells.
# The wavefront kernel must reproduce its costs and paths bit for bit.


def _ref_dtw_window(a, b, window):
    inf = float("inf")
    acc, parent = {}, {}
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
            continue
        acc[(i, j)] = local + best
        parent[(i, j)] = step
    end = (a.size - 1, b.size - 1)
    path, cell = [], end
    while cell is not None:
        path.append(cell)
        cell = parent[cell]
    return acc[end], path[::-1]


def _ref_expand_window(coarse_path, n, m, radius):
    inflated = {
        (i + di, j + dj)
        for i, j in coarse_path
        for di in range(-radius, radius + 1)
        for dj in range(-radius, radius + 1)
    }
    cells = {
        (fi, fj)
        for i, j in inflated
        for fi, fj in ((2 * i, 2 * j), (2 * i, 2 * j + 1), (2 * i + 1, 2 * j), (2 * i + 1, 2 * j + 1))
        if 0 <= fi < n and 0 <= fj < m
    }
    return sorted(cells)


def _ref_full(a, b):
    return _ref_dtw_window(a, b, [(i, j) for i in range(a.size) for j in range(b.size)])


def _ref_halve(x):
    """Pairwise means as one numpy expression; an odd last element is kept."""
    pairs = x.size // 2
    out = (x[0 : 2 * pairs : 2] + x[1 : 2 * pairs + 1 : 2]) / 2.0
    return np.append(out, x[-1]) if x.size % 2 else out


def _ref_fastdtw(a, b, radius):
    if a.size <= radius + 2 or b.size <= radius + 2:
        return _ref_full(a, b)
    _, coarse_path = _ref_fastdtw(_ref_halve(a), _ref_halve(b), radius)
    return _ref_dtw_window(a, b, _ref_expand_window(coarse_path, a.size, b.size, radius))


def _tied_pairs(seed, count, shortest=1, longest=40):
    """Random pairs of lengths shortest-longest, rounded so that
    equal-cost predecessors (ties) are common."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        n, m = rng.integers(shortest, longest + 1, size=2)
        digits = int(rng.integers(0, 3))
        yield np.round(rng.normal(size=n) * 2, digits), np.round(rng.normal(size=m) * 2, digits)


# ---------------------------------------------------------------------------
# MAE


def test_mae_equal_inputs():
    assert mae_metric([1.0, 2.0], [1.0, 2.0]) == 0.0


def test_mae_hand_value():
    assert mae_metric([1.0, -1.0], [0.0, 0.0]) == 1.0


def test_mae_shape_mismatch():
    with pytest.raises(ValueError):
        mae_metric([1.0], [1.0, 2.0])


def test_mae_below_rmse():
    rng = np.random.default_rng(0)
    for _ in range(50):
        p, t = rng.normal(size=12), rng.normal(size=12)
        mse = float(np.mean((p - t) ** 2))
        assert mae_metric(p, t) <= np.sqrt(mse) + 1e-12


# ---------------------------------------------------------------------------
# exact DTW


def test_dtw_identical_sequences():
    assert dtw_exact([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0


def test_dtw_hand_dp_table():
    # full table by hand for a=[1,2,3], b=[2,3,4]:
    # optimal alignment 1-2, 2-2?, ... min cumulative cost = 2
    assert dtw_exact([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == 2.0


def test_dtw_forced_alignment():
    # single row: |5-1| + |5-2|
    assert dtw_exact([5.0], [1.0, 2.0]) == 7.0


def test_dtw_rejects_empty():
    with pytest.raises(ValueError):
        dtw_exact([], [1.0])


def test_dtw_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(30):
        a, b = rng.normal(size=8), rng.normal(size=5)
        assert dtw_exact(a, b) == pytest.approx(dtw_exact(b, a), abs=1e-12)


def test_dtw_path_invariants():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n, m = rng.integers(1, 10, size=2)
        a, b = rng.normal(size=n), rng.normal(size=m)
        cost, path = dtw_exact_path(a, b)
        assert path[0] == (0, 0)
        assert path[-1] == (n - 1, m - 1)
        for (i0, j0), (i1, j1) in zip(path, path[1:]):
            assert (i1 - i0, j1 - j0) in {(1, 0), (0, 1), (1, 1)}
        assert cost >= 0.0


def test_dtw_exact_equals_reference_bit_for_bit():
    for a, b in _tied_pairs(11, 150):
        ref_cost, ref_path = _ref_full(a, b)
        cost, path = dtw_exact_path(a, b)
        assert cost == ref_cost
        assert path == ref_path
        assert dtw_exact(a, b) == ref_cost


def test_fastdtw_equals_reference_bit_for_bit():
    for a, b in _tied_pairs(12, 150):
        for radius in (0, 1, 2, max(a.size, b.size)):
            assert fastdtw(a, b, radius) == _ref_fastdtw(a, b, radius)[0]


def _stepped_window(rng, n, m):
    """A window that stays put for runs of 2-5 rows, then moves: the row
    sweep reuses the row above inside a run and copies it between runs."""
    lo, hi, j0, j1 = [], [], 0, 0
    while len(lo) < n:
        run = int(rng.integers(2, 6))
        lo += [j0] * run
        hi += [j1] * run
        j0 = min(j0 + int(rng.integers(0, 4)), j1 + 1, m - 1)
        j1 = min(max(j1, j0) + int(rng.integers(0, 4)), m - 1)
    hi[n - 1] = m - 1
    return lo[:n], hi[:n]


def _sweep_windows(seed, count):
    """(a, b, lo, hi, reference cells) for full matrices, the FastDTW
    bands of radius 0-2 projected from the exact coarse path, and a
    stepped window."""
    rng = np.random.default_rng(seed)
    for a, b in _tied_pairs(seed, count, longest=60):
        yield a, b, [0] * a.size, [b.size - 1] * a.size, [(i, j) for i in range(a.size) for j in range(b.size)]
        _, coarse_path = dtw_exact_path(_halve(a.tolist()), _halve(b.tolist()))
        for radius in (0, 1, 2):
            lo, hi = _expand_window(coarse_path, a.size, b.size, radius)
            yield a, b, lo, hi, _ref_expand_window(coarse_path, a.size, b.size, radius)
        lo, hi = _stepped_window(rng, a.size, b.size)
        yield a, b, lo, hi, [(i, j) for i in range(a.size) for j in range(lo[i], hi[i] + 1)]


def test_row_and_diagonal_sweeps_equal_the_reference():
    wide = narrow = 0
    for a, b, lo, hi, cells in _sweep_windows(15, 60):
        ref_cost, ref_path = _ref_dtw_window(a, b, cells)
        xs, ys = a.tolist(), b.tolist()
        assert _dtw_rows(xs, ys, lo, hi, with_path=True) == (ref_cost, ref_path)
        assert _dtw_rows(xs, ys, lo, hi, with_path=False) == (ref_cost, None)
        assert _dtw_diagonals(a, b, lo, hi) == ref_cost
        if len(cells) > ROW_SWEEP_CELLS * (a.size + b.size - 1):
            wide += 1
        else:
            narrow += 1
    # windows on both sides of the choice _fastdtw makes for a cost alone
    assert wide >= 10 and narrow >= 100


def test_fastdtw_equals_reference_bit_for_bit_on_long_pairs():
    # 60-200 points recurse through five to eight levels, as the 100-point pairs do
    for a, b in _tied_pairs(16, 8, shortest=60, longest=200):
        for radius in (0, 1, 2):
            ref_cost, ref_path = _ref_fastdtw(a, b, radius)
            assert fastdtw(a, b, radius) == ref_cost
            assert _fastdtw(a, b, radius, with_path=True) == (ref_cost, ref_path)


def test_fastdtw_equals_reference_bit_for_bit_on_short_pairs():
    # 2-20 points: up to three levels, each halving and projecting a path
    rng = np.random.default_rng(18)
    plain = [(rng.normal(size=n), rng.normal(size=m)) for n, m in rng.integers(2, 21, size=(100, 2))]
    for a, b in itertools.chain(_tied_pairs(18, 200, shortest=2, longest=20), plain):
        for x in (a, b):
            assert np.array(_halve(x.tolist())).tobytes() == _ref_halve(x).tobytes()
        for radius in (0, 1, 2):
            ref_cost, ref_path = _ref_fastdtw(a, b, radius)
            assert fastdtw(a, b, radius) == ref_cost
            assert _fastdtw(a, b, radius, with_path=True) == (ref_cost, ref_path)


def test_dtw_window_picks_the_sweep_by_cells_per_diagonal(monkeypatch):
    calls = []

    def spy(sweep):
        def run(a, b, *window_and_flag):
            calls.append((sweep.__name__, len(a), len(b)))
            return sweep(a, b, *window_and_flag)

        return run

    monkeypatch.setattr(metrics, "_dtw_rows", spy(_dtw_rows))
    monkeypatch.setattr(metrics, "_dtw_diagonals", spy(_dtw_diagonals))
    a, b = np.cumsum(np.random.default_rng(17).normal(size=(2, 100)), axis=1)
    dtw_exact(a, b)
    assert calls == [("_dtw_diagonals", 100, 100)]
    calls.clear()
    fastdtw(a, b, 1)
    # the last call is the top level, 100 by 100 in a band of radius 1
    assert calls[-1] == ("_dtw_rows", 100, 100)
    # every warp path comes from the row sweep, however wide its window
    calls.clear()
    assert dtw_exact_path(a, b) == _ref_full(a, b)
    assert calls == [("_dtw_rows", 100, 100)]
    for a, b in _tied_pairs(19, 4, shortest=80, longest=80):
        calls.clear()
        assert _fastdtw(a, b, 40, with_path=True) == _ref_fastdtw(a, b, 40)
        assert calls == [("_dtw_rows", 40, 40), ("_dtw_rows", 80, 80)]


def test_expand_window_covers_the_reference_cells():
    for a, b in _tied_pairs(13, 60):
        _, coarse_path = dtw_exact_path(_halve(a.tolist()), _halve(b.tolist()))
        for radius in (0, 1, 2):
            lo, hi = _expand_window(coarse_path, a.size, b.size, radius)
            cells = [(i, j) for i in range(a.size) for j in range(lo[i], hi[i] + 1)]
            assert cells == _ref_expand_window(coarse_path, a.size, b.size, radius)


def test_fastdtw_memory_is_linear():
    rng = np.random.default_rng(14)
    a, b = np.cumsum(rng.normal(size=(2, 4000)), axis=1)
    tracemalloc.start()
    try:
        cost = fastdtw(a, b, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.isfinite(cost)
    assert peak < 32 * 2**20


@pytest.mark.parametrize("fn", [dtw_exact, lambda a, b: fastdtw(a, b, 1)], ids=["dtw_exact", "fastdtw"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dtw_rejects_non_finite_input(fn, bad):
    clean = np.linspace(0.0, 1.0, 12)
    dirty = clean.copy()
    dirty[5] = bad
    with pytest.raises(ValueError, match=r"^a holds 1 non-finite value\(s\); the first is .* at index 5$"):
        fn(dirty, clean)
    with pytest.raises(ValueError, match=r"^b holds"):
        fn(clean, dirty)


def test_dtw_reports_overflow():
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError, match="not finite"):
        dtw_exact([1e308, -1e308], [-1e308, 1e308])


# ---------------------------------------------------------------------------
# brute force oracle agreement


def test_bruteforce_identical():
    assert dtw_bruteforce([3.0, 1.0], [3.0, 1.0]) == 0.0


def test_bruteforce_reversal_symmetry():
    rng = np.random.default_rng(3)
    for _ in range(20):
        a, b = rng.normal(size=5), rng.normal(size=4)
        assert dtw_bruteforce(a, b) == pytest.approx(dtw_bruteforce(a[::-1], b[::-1]), abs=1e-12)


def test_bruteforce_size_guard():
    with pytest.raises(ValueError):
        dtw_bruteforce(np.zeros(8), np.zeros(3))


def test_dtw_exact_matches_bruteforce_exhaustively():
    rng = np.random.default_rng(4)
    values = rng.normal(size=16)
    for n, m in itertools.product(range(1, 7), range(1, 7)):
        a = values[:n]
        b = values[16 - m :]
        assert dtw_exact(a, b) == pytest.approx(dtw_bruteforce(a, b), abs=1e-12)


# ---------------------------------------------------------------------------
# FastDTW


def test_fastdtw_full_radius_equals_exact():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n, m = rng.integers(2, 40, size=2)
        a, b = rng.normal(size=n), rng.normal(size=m)
        radius = int(max(n, m))
        assert fastdtw(a, b, radius) == pytest.approx(dtw_exact(a, b), abs=1e-12)


def test_fastdtw_base_case_equals_exact():
    rng = np.random.default_rng(6)
    for radius in (0, 1, 2):
        limit = radius + 2
        for _ in range(10):
            a = rng.normal(size=rng.integers(1, limit + 1))
            b = rng.normal(size=rng.integers(1, limit + 1))
            assert fastdtw(a, b, radius) == pytest.approx(dtw_exact(a, b), abs=1e-12)


def test_fastdtw_never_below_exact():
    rng = np.random.default_rng(7)
    for _ in range(100):
        n, m = rng.integers(2, 64, size=2)
        a, b = rng.normal(size=n), rng.normal(size=m)
        assert fastdtw(a, b, 1) >= dtw_exact(a, b) - 1e-12


def test_fastdtw_radius_one_accuracy():
    # smoothed random walks, the shape DTW is used on here (the pipeline
    # smooths every series); white noise is a known hard case for the
    # multilevel scheme and is not representative
    from tscast.preprocess import gaussian_kernel

    kernel = gaussian_kernel()
    rng = np.random.default_rng(8)
    hits = 0
    trials = 300
    for _ in range(trials):
        n, m = rng.integers(2, 64, size=2)
        a, b = np.cumsum(rng.normal(size=n)), np.cumsum(rng.normal(size=m))
        if n >= 5:
            a = np.convolve(np.pad(a, 2, mode="reflect"), kernel, mode="valid")
        if m >= 5:
            b = np.convolve(np.pad(b, 2, mode="reflect"), kernel, mode="valid")
        exact = dtw_exact(a, b)
        approx = fastdtw(a, b, 1)
        if approx <= exact * 1.10 + 1e-12:
            hits += 1
    assert hits / trials >= 0.95


def test_fastdtw_radius_monotone_on_corpus():
    # growing the radius widens each refinement band, but the coarse path
    # itself can shift, so monotonicity is statistical, not a theorem;
    # convergence to the exact cost at full radius is unconditional
    rng = np.random.default_rng(9)
    steps = violations = 0
    for _ in range(60):
        n, m = rng.integers(8, 48, size=2)
        a = np.cumsum(rng.normal(size=n))
        b = np.cumsum(rng.normal(size=m))
        costs = [fastdtw(a, b, r) for r in (0, 1, 2, 4, max(n, m))]
        for lo, hi in zip(costs, costs[1:]):
            steps += 1
            violations += hi > lo + 1e-9
        assert costs[-1] == pytest.approx(dtw_exact(a, b), abs=1e-12)
    assert violations / steps < 0.01


def test_fastdtw_rejects_negative_radius():
    with pytest.raises(ValueError):
        fastdtw([1.0, 2.0], [1.0], -1)
    for radius in (1.5, "1", None, True):
        with pytest.raises(ValueError, match=r"^radius must be an integer >= 0, got "):
            fastdtw([1.0, 2.0], [1.0], radius)
    for radius in (-1, 1.5, "1"):
        with pytest.raises(ValueError, match="^radius must be"):
            dtw_multivariate(np.zeros((3, 1)), np.zeros((3, 1)), radius)
    assert fastdtw([1.0, 2.0], [1.0], np.int64(1)) == fastdtw([1.0, 2.0], [1.0], 1)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.floats(-50, 50), min_size=1, max_size=6),
    st.lists(st.floats(-50, 50), min_size=1, max_size=6),
)
def test_dtw_exact_equals_bruteforce_property(a, b):
    assert dtw_exact(a, b) == pytest.approx(dtw_bruteforce(a, b), abs=1e-9)


# ---------------------------------------------------------------------------
# multivariate aggregation


def test_multivariate_sums_per_variable():
    rng = np.random.default_rng(10)
    p = rng.normal(size=(9, 3))
    t = rng.normal(size=(7, 3))
    total = dtw_multivariate(p, t)
    parts = sum(dtw_exact(p[:, j], t[:, j]) for j in range(3))
    assert total == pytest.approx(parts, abs=1e-12)


def test_multivariate_rejects_no_variables():
    with pytest.raises(ValueError, match="no variables"):
        dtw_multivariate(np.zeros((5, 0)), np.zeros((5, 0)))


def test_multivariate_names_the_non_finite_block():
    p = np.zeros((6, 2))
    t = np.ones((6, 2))
    t[4, 1] = np.nan
    with pytest.raises(ValueError, match=r"^target holds 1 non-finite value\(s\); the first is nan at index \(4, 1\)$"):
        dtw_multivariate(p, t, radius=1)


@pytest.mark.parametrize("one_d", ["pred", "target"])
def test_multivariate_rejects_a_1d_block(one_d):
    blocks = {"pred": np.zeros((3, 1)), "target": np.zeros((3, 1)), one_d: np.zeros(3)}
    with pytest.raises(ValueError, match=rf"^{one_d}: expected a \(steps x v\) block, got shape \(3,\)$"):
        dtw_multivariate(blocks["pred"], blocks["target"])


def test_multivariate_univariate_input():
    p = np.array([1.0, 2.0, 3.0])
    t = np.array([2.0, 3.0, 4.0])
    assert dtw_multivariate(p[:, None], t[:, None]) == pytest.approx(dtw_exact(p, t), abs=1e-12)
