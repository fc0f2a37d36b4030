import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscast.preprocess import (
    ForecastWindow,
    SeriesFrame,
    apply_normalizer,
    blocked_kfold,
    build_windows,
    downsample_avg,
    fit_normalizer,
    gaussian_kernel,
    gaussian_smooth,
    invert_normalizer,
    preprocess_frame,
)


def _frame(data, names=None):
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 1:
        data = data[:, None]
    names = names or [f"v{i}" for i in range(data.shape[1])]
    return SeriesFrame(names, data)


# ---------------------------------------------------------------------------
# normalization


def test_fit_normalizer_hand_values():
    stats = fit_normalizer(_frame([1.0, 2.0, 3.0]))
    assert stats.mean[0] == 2.0
    # population std of [1,2,3]
    assert abs(stats.std[0] - np.sqrt(2.0 / 3.0)) < 1e-12
    assert not stats.constant[0]


def test_fit_normalizer_constant_column():
    stats = fit_normalizer(_frame([5.0, 5.0, 5.0]))
    assert stats.mean[0] == 5.0
    assert stats.std[0] == 1.0
    assert stats.constant[0]


def test_fit_normalizer_idempotent_on_standardized_input():
    rng = np.random.default_rng(0)
    col = rng.normal(size=500)
    col = (col - col.mean()) / col.std()
    stats = fit_normalizer(_frame(col))
    assert abs(stats.mean[0]) < 1e-10
    assert abs(stats.std[0] - 1.0) < 1e-10


def test_fit_normalizer_rejects_tiny_frame():
    with pytest.raises(ValueError):
        fit_normalizer(_frame([1.0]))


def test_apply_normalizer_hand_values():
    frame = _frame([1.0, 2.0, 3.0])
    stats = fit_normalizer(frame)
    normed = apply_normalizer(frame, stats)
    expected = np.array([-1.0, 0.0, 1.0]) / np.sqrt(2.0 / 3.0) * np.sqrt(2.0 / 3.0)
    # hand computation: (x - 2) / 0.816496...
    assert np.allclose(normed.data[:, 0], [-1.224744871391589, 0.0, 1.224744871391589])


def test_normalizer_round_trip_exact():
    rng = np.random.default_rng(1)
    frame = _frame(rng.normal(size=(60, 3)) * 7.0 + 3.0)
    stats = fit_normalizer(frame)
    back = invert_normalizer(apply_normalizer(frame, stats), stats)
    assert np.max(np.abs(back.data - frame.data)) < 1e-12


def test_normalizer_identity_on_standard_input():
    rng = np.random.default_rng(2)
    col = rng.normal(size=400)
    col = (col - col.mean()) / col.std()
    frame = _frame(col)
    normed = apply_normalizer(frame, fit_normalizer(frame))
    assert np.max(np.abs(normed.data - frame.data)) < 1e-10


def test_post_normalization_moments():
    rng = np.random.default_rng(3)
    frame = _frame(rng.normal(size=(200, 4)) * [1.0, 5.0, 0.1, 30.0] + [0.0, -2.0, 9.0, 100.0])
    normed = apply_normalizer(frame, fit_normalizer(frame))
    assert np.max(np.abs(normed.data.mean(axis=0))) < 1e-10
    assert np.max(np.abs(normed.data.std(axis=0) - 1.0)) < 1e-10


def test_normalizer_arity_mismatch():
    frame = _frame(np.zeros((10, 2)) + np.arange(10)[:, None])
    stats = fit_normalizer(frame)
    other = _frame(np.arange(10.0))
    with pytest.raises(ValueError):
        apply_normalizer(other, stats)


# ---------------------------------------------------------------------------
# smoothing


def test_gaussian_kernel_matches_hand_normalization():
    kernel = gaussian_kernel()
    raw = np.exp(-np.array([-2.0, -1.0, 0.0, 1.0, 2.0]) ** 2 / 8.0)
    assert np.allclose(kernel, raw / raw.sum())
    assert np.allclose(kernel, [0.15246914, 0.22184130, 0.25137912, 0.22184130, 0.15246914], atol=1e-7)
    assert abs(kernel.sum() - 1.0) < 1e-12


def test_gaussian_smooth_constant_series():
    frame = _frame(np.full(50, 3.25))
    smoothed = gaussian_smooth(frame)
    assert np.max(np.abs(smoothed.data - 3.25)) < 1e-12


def test_gaussian_smooth_impulse_reproduces_kernel():
    data = np.zeros(41)
    data[20] = 1.0
    smoothed = gaussian_smooth(_frame(data))
    assert np.allclose(smoothed.data[18:23, 0], gaussian_kernel())
    assert np.allclose(smoothed.data[:18, 0], 0.0)


def test_gaussian_smooth_preserves_interior_of_ramp():
    ramp = np.arange(30.0)
    smoothed = gaussian_smooth(_frame(ramp))
    assert np.max(np.abs(smoothed.data[2:-2, 0] - ramp[2:-2])) < 1e-12


def test_gaussian_smooth_commutes_with_constant_shift():
    rng = np.random.default_rng(4)
    data = rng.normal(size=80)
    a = gaussian_smooth(_frame(data + 11.0)).data
    b = gaussian_smooth(_frame(data)).data + 11.0
    assert np.max(np.abs(a - b)) < 1e-12


# ---------------------------------------------------------------------------
# downsampling


def test_downsample_factor_two():
    assert np.array_equal(downsample_avg(np.array([1.0, 2.0, 3.0, 4.0]), 2), [1.5, 3.5])


def test_downsample_factor_four():
    assert np.array_equal(downsample_avg(np.array([1.0, 2.0, 3.0, 4.0]), 4), [2.5])


@pytest.mark.parametrize("factor", [2, 4])
def test_downsample_equals_ndarray_mean_byte_for_byte(factor):
    block = np.random.default_rng(factor).normal(size=(5, 16, 3)) * 100.0  # (B, T, v)
    want = block.reshape(5, 16 // factor, factor, 3).mean(axis=-2)
    assert downsample_avg(block, factor).tobytes() == want.tobytes()


def test_downsample_per_variable_independence():
    block = np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0], [4.0, 40.0]])
    out = downsample_avg(block, 2)
    assert np.array_equal(out[:, 0], downsample_avg(block[:, 0], 2))
    assert np.array_equal(out[:, 1], downsample_avg(block[:, 1], 2))


def test_downsample_preserves_global_mean():
    rng = np.random.default_rng(5)
    block = rng.normal(size=(16, 3))
    for factor in (2, 4):
        out = downsample_avg(block, factor)
        assert np.allclose(out.mean(axis=0), block.mean(axis=0), atol=1e-14)


def test_downsample_rejects_indivisible():
    with pytest.raises(ValueError):
        downsample_avg(np.arange(6.0), 4)


# ---------------------------------------------------------------------------
# window construction


def test_build_windows_offset_counting():
    frame = _frame(np.arange(10.0))
    windows = build_windows(frame, T=8, L=1, stride=1)
    assert len(windows) == 2
    assert np.array_equal(windows[0].input[:, 0], np.arange(8.0))
    assert np.array_equal(windows[0].target[:, 0], [8.0])
    assert np.array_equal(windows[1].target[:, 0], [9.0])


def test_build_windows_rejects_non_multiple_of_four():
    with pytest.raises(ValueError) as exc:
        build_windows(_frame(np.arange(20.0)), T=6, L=1)
    assert "multiple of 4" in str(exc.value)


def test_build_windows_exact_fit():
    windows = build_windows(_frame(np.arange(9.0)), T=8, L=1)
    assert len(windows) == 1


def test_build_windows_too_short():
    with pytest.raises(ValueError):
        build_windows(_frame(np.arange(8.0)), T=8, L=1)


def test_forecast_window_invariants():
    with pytest.raises(ValueError):
        ForecastWindow(input=np.zeros((6, 1)), target=np.zeros((1, 1)))


# ---------------------------------------------------------------------------
# fold splitting


def test_blocked_kfold_even_split():
    folds = blocked_kfold(10, 5)
    assert len(folds) == 5
    for _, test in folds:
        assert len(test) == 2


def test_blocked_kfold_remainder_goes_first():
    sizes = [len(test) for _, test in blocked_kfold(11, 5)]
    assert sizes == [3, 2, 2, 2, 2]


def test_blocked_kfold_rejects_too_few():
    with pytest.raises(ValueError):
        blocked_kfold(4, 5)


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=12), st.integers(min_value=0, max_value=80))
def test_blocked_kfold_partitions(k, extra):
    n = k + extra
    folds = blocked_kfold(n, k)
    all_test = np.concatenate([test for _, test in folds])
    assert len(all_test) == n
    assert np.array_equal(np.sort(all_test), np.arange(n))
    sizes = {len(test) for _, test in folds}
    assert max(sizes) - min(sizes) <= 1
    for train, test in folds:
        assert np.array_equal(np.sort(np.concatenate([train, test])), np.arange(n))
        assert len(np.intersect1d(train, test)) == 0
        # test blocks are contiguous
        assert np.array_equal(test, np.arange(test[0], test[-1] + 1))


# ---------------------------------------------------------------------------
# pipeline


def test_preprocess_frame_pipeline():
    rng = np.random.default_rng(6)
    frame = _frame(rng.normal(size=(120, 2)) * 4.0 + 10.0, names=["a", "b"])
    processed, stats = preprocess_frame(frame)
    assert processed.names == ["a", "b"]
    assert processed.data.shape == frame.data.shape
    # means stay near zero: smoothing of a zero-mean series is near zero-mean
    assert np.max(np.abs(processed.data.mean(axis=0))) < 0.2
    assert np.array_equal(stats.mean, frame.data.mean(axis=0))


def test_series_frame_rejects_nonfinite():
    with pytest.raises(ValueError):
        _frame([1.0, np.nan, 2.0])


def test_series_frame_rejects_zero_rows():
    with pytest.raises(ValueError, match="no rows"):
        SeriesFrame(["y"], np.zeros((0, 1)))
