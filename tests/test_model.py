import json
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np
import pytest

from tscast import autodiff as ad
from tscast.autodiff import Tape, Tensor, backward, constant, mean_all
from tscast.model import (
    ForecasterConfig,
    GruParams,
    HeadParams,
    ar_predict,
    conv_features,
    count_parameters,
    forecast,
    forecast_batch,
    gru_encode,
    head_predict,
    init_forecaster,
    load_checkpoint,
    multiscale_inputs,
    ridge_fit,
    save_checkpoint,
)
from tscast.preprocess import ForecastWindow
from tscast.synth import SynthSpec, default_ablation_model_config
from tscast.train import TrainConfig, predict_windows

from _checks import gradcheck

DATA = Path(__file__).resolve().parent / "data"
TINY = ForecasterConfig(v=2, T=8, L=2, n_filters=3, kernel_size=3, gru_hidden=4, seed=11)


def _zero_gru(h, c):
    z = lambda *shape: Tensor(np.zeros(shape), requires_grad=True)
    return GruParams(w=z(3 * h, c), u=z(3 * h, h), b=z(3 * h))


# ---------------------------------------------------------------------------
# config and init


def test_config_validation():
    with pytest.raises(ValueError):
        ForecasterConfig(v=1, T=6)  # not a multiple of 4
    with pytest.raises(ValueError):
        ForecasterConfig(v=1, T=8, ar_window=9)
    with pytest.raises(ValueError):
        ForecasterConfig(v=0, T=8)


@pytest.mark.parametrize("field, value", [
    ("T", 16.0), ("n_filters", 2.0), ("v", 1.0), ("L", True), ("ar_window", np.float64(3.0)),
    ("seed", 1.5), ("seed", -1), ("seed", "0"),
])
def test_config_names_a_non_integer_field_or_a_negative_seed(field, value):
    with pytest.raises(ValueError, match=f"config field {field} must be an integer >= {int(field != 'seed')}"):
        ForecasterConfig(**{"v": 1, "T": 16, field: value})


def test_config_takes_numpy_integers():
    config = ForecasterConfig(v=np.int64(1), T=np.int32(16), seed=np.int64(0))
    assert (config.v, config.T, config.seed) == (1, 16, 0)


@pytest.mark.parametrize("value", ["false", 0, 1])
def test_config_rejects_a_shortcut_flag_that_is_not_a_bool(value):
    # the string "false" is truthy, so it trained with the shortcut on
    with pytest.raises(ValueError, match=f"^config field use_ar_shortcut must be a bool, got {value!r}$"):
        ForecasterConfig(v=1, T=16, use_ar_shortcut=value)


def test_config_takes_numpy_bools():
    assert ForecasterConfig(v=1, T=16, use_ar_shortcut=np.False_).use_ar_shortcut == np.False_


def test_init_deterministic():
    a = init_forecaster(TINY)
    b = init_forecaster(TINY)
    for (name_a, ta), (name_b, tb) in zip(a.named_parameters(), b.named_parameters()):
        assert name_a == name_b
        assert np.array_equal(ta.values, tb.values)


def test_init_biases_zero_and_weights_bounded():
    params = init_forecaster(TINY)
    for name, t in params.named_parameters():
        if name.endswith("_b") or name.endswith(".b"):
            assert np.array_equal(t.values, np.zeros(t.shape)), name
            continue
        # a GRU weight stacks one block per gate (z, r, h) by rows, the heads one
        # block per output step by columns, each block drawn with its own fans
        blocks = [t.values]
        if ".gru." in name:
            blocks = np.split(t.values, 3)
        elif name == "heads.w":
            blocks = np.split(t.values, TINY.L, axis=1)
        for block in blocks:
            fan_in, fan_out = _fans(name, block)
            bound = np.sqrt(6.0 / (fan_in + fan_out))
            assert np.max(np.abs(block)) <= bound, name


def _fans(name, a):
    if "conv" in name:
        c_out, c_in, k = a.shape
        return c_in * k, c_out * k
    if a.ndim == 2:
        rows, cols = a.shape
        if name.startswith("head") or name.startswith("ar"):
            return rows, cols
        return cols, rows  # gru maps act as (out, in)
    raise AssertionError(f"unexpected weight {name}")


def test_each_gru_is_three_stacked_tensors():
    assert [f.name for f in fields(GruParams)] == ["w", "u", "b"]
    params = init_forecaster(ForecasterConfig(v=1))
    assert len(params.parameters()) == 25  # 4 conv + 3 GRU tensors per stream, one head, the shortcut
    names = [name for name, _ in params.named_parameters()]
    assert names[4:7] == ["full.gru.w", "full.gru.u", "full.gru.b"]
    gru = params.full.gru
    assert (gru.w.shape, gru.u.shape, gru.b.shape) == ((192, 32), (192, 64), (192,))


def test_heads_are_one_stacked_tensor_pair():
    config = default_ablation_model_config()  # L=4 heads of H=8 states, v=1
    params = init_forecaster(config)
    assert len(params.parameters()) == 25  # 21 stream tensors, the heads' w and b, the shortcut
    assert [name for name, _ in params.named_parameters()][21:23] == ["heads.w", "heads.b"]
    assert (params.heads.w.shape, params.heads.b.shape, params.heads.L) == ((24, 4), (4,), 4)


def test_parameter_count_matches_formula():
    for config in (TINY, ForecasterConfig(v=3, T=16, L=4, n_filters=5, kernel_size=7, gru_hidden=6)):
        params = init_forecaster(config)
        assert params.n_parameters() == count_parameters(config)
    no_ar = ForecasterConfig(v=2, T=8, L=2, n_filters=3, kernel_size=3, gru_hidden=4, use_ar_shortcut=False)
    assert init_forecaster(no_ar).n_parameters() == count_parameters(no_ar)


# ---------------------------------------------------------------------------
# multiscale inputs


def test_multiscale_paper_example():
    s, s_half, s_quarter = multiscale_inputs(np.array([1.0, 2.0, 3.0, 4.0])[None, :, None])
    assert np.array_equal(s[0, :, 0], [1.0, 2.0, 3.0, 4.0])
    assert np.array_equal(s_half[0, :, 0], [1.5, 3.5])
    assert np.array_equal(s_quarter[0, :, 0], [2.5])


def test_multiscale_constant_input():
    s, s_half, s_quarter = multiscale_inputs(np.full((2, 8, 2), 3.0))
    for block in (s, s_half, s_quarter):
        assert np.all(block == 3.0)


def test_multiscale_lengths():
    s, s_half, s_quarter = multiscale_inputs(np.random.default_rng(0).normal(size=(5, 16, 3)))
    assert s.shape == (5, 16, 3)
    assert s_half.shape == (5, 8, 3)
    assert s_quarter.shape == (5, 4, 3)


@pytest.mark.parametrize("shape", [(16,), (16, 3)])
def test_multiscale_rejects_unbatched_windows(shape):
    with pytest.raises(ValueError, match=r"\(B, T, v\)"):
        multiscale_inputs(np.zeros(shape))


# ---------------------------------------------------------------------------
# conv features


def test_conv_features_zero_weights():
    params = init_forecaster(TINY)
    stream = params.full
    stream.conv1_w.values[...] = 0.0
    stream.conv2_w.values[...] = 0.0
    out = conv_features(np.random.default_rng(1).normal(size=(1, 2, 8)), stream)
    assert np.array_equal(out.values, np.zeros((1, 3, 8)))


def test_conv_features_identity_composition():
    config = ForecasterConfig(v=1, T=8, L=1, n_filters=1, kernel_size=3, gru_hidden=2)
    params = init_forecaster(config)
    stream = params.full
    for w in (stream.conv1_w, stream.conv2_w):
        w.values[...] = 0.0
        w.values[0, 0, -1] = 1.0  # pick out the current time step
    x = np.abs(np.random.default_rng(2).normal(size=(1, 1, 8)))
    out = conv_features(x, stream)
    assert np.allclose(out.values, x)


def test_conv_features_causality_probe():
    rng = np.random.default_rng(3)
    params = init_forecaster(TINY)
    x = rng.normal(size=(1, 2, 8))
    base = conv_features(x, params.full).values
    for _ in range(20):
        t = rng.integers(1, 8)
        bumped = x.copy()
        bumped[..., t:] += rng.normal(size=(1, 2, 8 - t))
        out = conv_features(bumped, params.full).values
        assert np.array_equal(out[..., :t], base[..., :t])


# ---------------------------------------------------------------------------
# GRU


def gru_step(h, x, gru: GruParams) -> Tensor:
    """One GRU recurrence step, the reference :func:`gru_encode` is tested
    against.

    z = sigmoid(W_z x + U_z h + b_z)
    r = sigmoid(W_r x + U_r h + b_r)
    cand = tanh(W_h x + U_h (r * h) + b_h)
    h' = (1 - z) * h + z * cand

    where W_z, W_r, W_h are the row blocks of ``gru.w``, and likewise for
    U and b. ``h`` is (B, H) and ``x`` is (B, C), one row per sequence.
    Each gate's columns are picked out of the stacked products
    ``x wᵀ + b`` and ``h uᵀ`` by products with identity columns, which
    are exact.
    """
    if not isinstance(h, Tensor):
        h = constant(h)
    if not isinstance(x, Tensor):
        x = constant(x)
    pick_z, pick_r, pick_h = (constant(c) for c in np.split(np.eye(gru.u.shape[0]), 3, axis=1))
    u_t = ad.transpose(gru.u, (1, 0))
    xw = x @ ad.transpose(gru.w, (1, 0)) + gru.b  # (B, 3H)
    hu = h @ u_t
    z = ad.sigmoid(xw @ pick_z + hu @ pick_z)
    r = ad.sigmoid(xw @ pick_r + hu @ pick_r)
    cand = ad.tanh(xw @ pick_h + (r * h) @ u_t @ pick_h)
    return (1.0 - z) * h + z * cand


def test_gru_step_zero_params_hand_value():
    gru = _zero_gru(1, 1)
    h1 = gru_step(np.array([[1.0]]), np.array([[0.7]]), gru)
    # z = sigmoid(0) = 0.5, candidate = tanh(0) = 0, so h' = 0.5 * h
    assert np.allclose(h1.values, [[0.5]])


def test_gru_step_zero_state_fixed_point():
    gru = _zero_gru(3, 2)
    out = gru_step(np.zeros((1, 3)), np.array([[1.0, -2.0]]), gru)
    assert np.array_equal(out.values, np.zeros((1, 3)))


def test_gru_step_convex_combination_bound():
    rng = np.random.default_rng(4)
    tiny = init_forecaster(TINY)
    gru = tiny.full.gru
    for _ in range(50):
        for t in (gru.w, gru.u, gru.b):
            t.values[...] = rng.normal(size=t.shape)
        h = rng.normal(size=(1, 4)) * 3.0
        x = rng.normal(size=(1, 3))
        out = gru_step(h, x, gru).values
        assert np.all(np.abs(out) <= np.maximum(np.abs(h), 1.0) + 1e-12)


def test_gru_step_batch_rows_equal_single_calls():
    rng = np.random.default_rng(40)
    gru = init_forecaster(TINY).full.gru
    h, x = rng.normal(size=(5, 4)), rng.normal(size=(5, 3))
    rows = gru_step(h, x, gru).values  # (B, H)
    assert rows.shape == (5, 4)
    for i in range(5):
        assert np.max(np.abs(rows[i] - gru_step(h[i : i + 1], x[i : i + 1], gru).values[0])) <= 1e-15


def test_gru_encode_single_step_matches_gru_step():
    params = init_forecaster(TINY)
    gru = params.full.gru
    g = np.random.default_rng(5).normal(size=(1, 3, 1))
    enc = gru_encode(g, gru)
    step = gru_step(np.zeros((1, 4)), g[:, :, 0], gru)
    assert enc.shape == (1, 4)
    assert np.allclose(enc.values, step.values)


def test_gru_encode_zero_params_stay_zero():
    gru = _zero_gru(4, 3)
    out = gru_encode(np.random.default_rng(6).normal(size=(2, 3, 9)), gru)
    assert np.array_equal(out.values, np.zeros((2, 4)))


def test_gru_encode_prefix_property():
    params = init_forecaster(TINY)
    gru = params.full.gru
    g = np.random.default_rng(7).normal(size=(2, 3, 6))
    full = gru_encode(g, gru).values
    prefix = gru_encode(g[:, :, :4], gru).values
    h = constant(prefix)
    for t in (4, 5):
        h = gru_step(h, g[:, :, t], gru)
    assert np.allclose(h.values, full, atol=1e-14)


def test_gru_encode_rejects_unbatched_input():
    gru = init_forecaster(TINY).full.gru
    for shape in [(3, 7), (7,)]:
        with pytest.raises(ValueError, match=r"\(B, C, T\)"):
            gru_encode(np.zeros(shape), gru)


def _gru_step_oracle(x: Tensor, gru: GruParams) -> Tensor:
    """Final (B, H) GRU state of (B, C, T) input by composing gru_step over
    time on taped slices. Time step t is sliced out as a product with the
    one-hot column e_t, which is exact."""
    b, c, t_len = x.shape
    one_hot = np.eye(t_len)
    rows = ad.reshape(x, (b * c, t_len))
    h = constant(np.zeros((b, gru.u.shape[1])))
    for t in range(t_len):
        h = gru_step(h, ad.reshape(ad.matmul(rows, constant(one_hot[:, t : t + 1])), (b, c)), gru)
    return h


@pytest.mark.parametrize("shape", [(1, 3, 7), (5, 3, 7), (1, 3, 1)])
def test_gru_encode_equals_gru_step_composition(shape):
    rng = np.random.default_rng(41)
    gru = init_forecaster(TINY).full.gru
    for name in GruParams.__dataclass_fields__:
        getattr(gru, name).values[...] += 0.3 * rng.normal(size=getattr(gru, name).shape)
    x = Tensor(rng.normal(size=shape), requires_grad=True)
    params = [x] + [getattr(gru, name) for name in GruParams.__dataclass_fields__]
    proj = constant(rng.normal(size=(shape[0], 4)))

    runs = []
    for encode in (gru_encode, _gru_step_oracle):
        with Tape():
            h = encode(x, gru)
            backward(mean_all(h * proj))
        runs.append((h.values.copy(), [p.grad.copy() for p in params]))
    (h_seq, g_seq), (h_ref, g_ref) = runs
    assert h_seq.shape == h_ref.shape
    assert np.max(np.abs(h_seq - h_ref)) <= 1e-12
    for a, b in zip(g_seq, g_ref):
        assert np.max(np.abs(a - b)) <= 1e-12


def test_gru_encode_rejects_empty():
    with pytest.raises(ValueError):
        gru_encode(np.zeros((1, 3, 0)), _zero_gru(2, 3))


# ---------------------------------------------------------------------------
# heads


def test_head_predict_zero_weights_returns_bias():
    params = init_forecaster(TINY)
    params.heads.w.values[:, 0:2] = 0.0  # head 1 owns columns 0 and 1
    params.heads.b.values[0:2] = [1.5, -2.5]
    h = [constant(np.random.default_rng(8).normal(size=(1, 4))) for _ in range(3)]
    out = head_predict((h[0], h[1], h[2]), params.heads)
    assert np.array_equal(out.values[0, 0], [1.5, -2.5])


def test_head_isolation():
    params = init_forecaster(TINY)
    rng = np.random.default_rng(9)
    h = [constant(rng.normal(size=(2, 4))) for _ in range(3)]
    before = head_predict((h[0], h[1], h[2]), params.heads).values[1].copy()
    params.heads.w.values[:, 0:2] = rng.normal(size=(12, 2))  # head 1 only
    after = head_predict((h[0], h[1], h[2]), params.heads).values[1]
    assert np.array_equal(before, after)


def test_head_permutation_equivariance():
    rng = np.random.default_rng(10)
    params = init_forecaster(TINY)
    h = [constant(rng.normal(size=(2, 4))) for _ in range(3)]
    base = head_predict((h[0], h[1], h[2]), params.heads).values[0].copy()

    w = params.heads.w.values[:, 0:2]  # head 1
    permuted = np.concatenate([w[4:8], w[0:4], w[8:12]], axis=0)
    swapped = HeadParams(w=Tensor(permuted, requires_grad=True), b=Tensor(params.heads.b.values[0:2]), L=1)
    out = head_predict((h[1], h[0], h[2]), swapped).values
    assert np.allclose(out[0], base, atol=1e-14)


def test_stacked_head_rows_equal_per_head_products():
    config = ForecasterConfig(v=2, T=8, L=3, n_filters=2, kernel_size=3, gru_hidden=4, seed=24)
    params = init_forecaster(config)
    _generic_point(params, np.random.default_rng(24))
    h = np.random.default_rng(25).normal(size=(3, 5, 4))  # three (B, H) states
    out = head_predict((constant(h[0]), constant(h[1]), constant(h[2])), params.heads).values
    assert out.shape == (3, 5, 2)
    cat = np.concatenate(h, axis=1)
    w, b = params.heads.w.values, params.heads.b.values
    for t in range(1, 4):
        cols = slice((t - 1) * 2, t * 2)
        assert np.max(np.abs(out[t - 1] - (cat @ w[:, cols] + b[cols]))) <= 1e-15


def test_head_predict_rejects_unbatched_states():
    params = init_forecaster(TINY)
    h = [constant(np.zeros(4)) for _ in range(3)]
    with pytest.raises(ValueError, match=r"\(B, H\)"):
        head_predict((h[0], h[1], h[2]), params.heads)


# ---------------------------------------------------------------------------
# autoregressive shortcut


def test_ar_predict_persistence_weights():
    params = init_forecaster(ForecasterConfig(v=1, T=8, L=1, n_filters=2, kernel_size=3, gru_hidden=2))
    params.shortcut.w.values[...] = np.array([[0.0], [0.0], [0.0], [0.0], [1.0]])
    params.shortcut.b.values[...] = 0.0
    window = np.arange(1.0, 9.0)[None, :, None]
    out = ar_predict(window, params.shortcut)
    assert np.array_equal(out.values, [[[8.0]]])


def test_ar_predict_linear_extrapolation():
    params = init_forecaster(ForecasterConfig(v=1, T=8, L=1, n_filters=2, kernel_size=3, gru_hidden=2))
    params.shortcut.w.values[...] = np.array([[0.0], [0.0], [0.0], [-1.0], [2.0]])
    params.shortcut.b.values[...] = 0.0
    window = np.concatenate([np.zeros(3), np.array([1.0, 2.0, 3.0, 4.0, 5.0])])[None, :, None]
    out = ar_predict(window, params.shortcut)
    assert np.array_equal(out.values, [[[6.0]]])  # 2*5 - 4


def test_ar_predict_weight_sharing_across_variables():
    params = init_forecaster(ForecasterConfig(v=2, T=8, L=3, n_filters=2, kernel_size=3, gru_hidden=2))
    rng = np.random.default_rng(11)
    params.shortcut.w.values[...] = rng.normal(size=(5, 3))
    params.shortcut.b.values[...] = rng.normal(size=3)
    col = rng.normal(size=8)
    window = np.stack([col, col], axis=1)[None]
    out = ar_predict(window, params.shortcut).values
    assert np.array_equal(out[:, 0, 0], out[:, 0, 1])


def test_ar_predict_rejects_short_window():
    params = init_forecaster(ForecasterConfig(v=1, T=8, L=1, n_filters=2, kernel_size=3, gru_hidden=2))
    with pytest.raises(ValueError):
        ar_predict(np.arange(4.0)[None, :, None], params.shortcut)


@pytest.mark.parametrize("shape", [(8,), (8, 2)])
def test_ar_predict_rejects_unbatched_window(shape):
    params = init_forecaster(TINY)
    with pytest.raises(ValueError, match=r"\(B, T, v\)"):
        ar_predict(np.zeros(shape), params.shortcut)


# ---------------------------------------------------------------------------
# full forecast


def test_forecast_zero_heads_equals_ar_path():
    params = init_forecaster(TINY)
    params.heads.w.values[...] = 0.0
    params.heads.b.values[...] = 0.0
    window = np.random.default_rng(12).normal(size=(8, 2))
    pred = forecast(window, params, TINY).values
    ar = ar_predict(window[None], params.shortcut).values[:, 0]
    assert np.allclose(pred, ar, atol=1e-14)


def test_forecast_without_shortcut_is_nonlinear_only():
    config = ForecasterConfig(v=2, T=8, L=2, n_filters=3, kernel_size=3, gru_hidden=4,
                              use_ar_shortcut=False, seed=11)
    params = init_forecaster(config)
    window = np.random.default_rng(13).normal(size=(8, 2))
    pred = forecast(window, params, config).values

    with_ar = init_forecaster(TINY)  # same seed: identical shared draws
    for (name_a, ta) in with_ar.named_parameters():
        if not name_a.startswith("ar."):
            tb = dict(params.named_parameters())[name_a]
            ta.values[...] = tb.values
    with_ar.shortcut.w.values[...] = 0.0
    with_ar.shortcut.b.values[...] = 0.0
    pred_zero_ar = forecast(window, with_ar, TINY).values
    assert np.allclose(pred, pred_zero_ar, atol=1e-14)


def test_forecast_deterministic():
    params = init_forecaster(TINY)
    window = np.random.default_rng(14).normal(size=(8, 2))
    a = forecast(window, params, TINY).values
    b = forecast(window, params, TINY).values
    assert np.array_equal(a, b)


def test_forecast_batch_matches_single():
    params = init_forecaster(TINY)
    rng = np.random.default_rng(15)
    windows = rng.normal(size=(5, 8, 2))
    batched = forecast_batch(windows, params, TINY).values  # (L, B, v)
    for i in range(5):
        single = forecast(windows[i], params, TINY).values
        assert np.allclose(batched[:, i, :], single, atol=1e-10)


def test_forecast_rejects_a_1d_window():
    config = replace(TINY, v=1)
    params = init_forecaster(config)
    with pytest.raises(ValueError, match=r"window shape \(8,\) does not match \(T=8, v=1\)"):
        forecast(np.zeros(8), params, config)


def test_forecast_batch_rejects_an_empty_batch():
    params = init_forecaster(TINY)
    with pytest.raises(ValueError, match=r"empty batch of shape \(0, 8, 2\)"):
        forecast_batch(np.zeros((0, 8, 2)), params, TINY)


@pytest.mark.parametrize("use_ar_shortcut", [True, False])
def test_forecast_is_a_batch_of_one_bit_for_bit(use_ar_shortcut):
    config = replace(TINY, use_ar_shortcut=use_ar_shortcut)
    params = init_forecaster(config)
    _generic_point(params, np.random.default_rng(18))
    for window in np.random.default_rng(19).normal(size=(4, 8, 2)):
        single = forecast(window, params, config).values
        assert single.shape == (config.L, config.v)
        assert np.array_equal(single, forecast_batch(window[None], params, config).values[:, 0])


def test_predict_windows_rows_agree_with_forecast():
    config = ForecasterConfig(v=2, T=16, L=3, n_filters=4, kernel_size=3, gru_hidden=5, seed=20)
    params = init_forecaster(config)
    _generic_point(params, np.random.default_rng(20))
    rng = np.random.default_rng(21)
    windows = [ForecastWindow(input=rng.normal(size=(16, 2)), target=np.zeros((3, 2))) for _ in range(70)]
    rows = predict_windows(params, config, windows)
    for window, row in zip(windows, rows):
        assert np.max(np.abs(row - forecast(window.input, params, config).values)) <= 1e-12


def test_batched_head_and_ar_equal_per_window_calls():
    # rows of a larger batch may differ from a batch of one in the last
    # bits, as the BLAS splits products by size
    params = init_forecaster(TINY)
    _generic_point(params, np.random.default_rng(22))
    rng = np.random.default_rng(23)
    h = rng.normal(size=(3, 6, 4))  # three (B, H) states
    all_steps = head_predict((h[0], h[1], h[2]), params.heads).values  # (L, B, v)
    assert all_steps.shape == (TINY.L, 6, TINY.v)
    for i in range(6):
        one = head_predict((h[0, i : i + 1], h[1, i : i + 1], h[2, i : i + 1]), params.heads).values
        assert np.max(np.abs(all_steps[:, i] - one[:, 0])) <= 1e-12

    windows = rng.normal(size=(6, 8, 2))
    ar = ar_predict(windows, params.shortcut).values  # (L, B, v)
    assert ar.shape == (TINY.L, 6, TINY.v)
    for i in range(6):
        one = ar_predict(windows[i : i + 1], params.shortcut).values
        assert np.max(np.abs(ar[:, i] - one[:, 0])) <= 1e-12


def test_ar_exactness_on_affine_series():
    # heads zeroed, shortcut set to the exact linear-extrapolation weights
    config = ForecasterConfig(v=1, T=8, L=3, n_filters=2, kernel_size=3, gru_hidden=2)
    params = init_forecaster(config)
    params.heads.w.values[...] = 0.0
    params.heads.b.values[...] = 0.0
    w = np.zeros((5, 3))
    for t in range(1, 4):  # s_{T+t} = (1+t) s_T - t s_{T-1} for affine series
        w[4, t - 1] = 1.0 + t
        w[3, t - 1] = -t
    params.shortcut.w.values[...] = w
    params.shortcut.b.values[...] = 0.0

    t_axis = np.arange(30.0)
    series = 0.75 * t_axis - 4.0
    window = series[:8][:, None]
    pred = forecast(window, params, config).values[:, 0]
    truth = series[8:11]
    assert np.max(np.abs(pred - truth)) < 1e-10


# ---------------------------------------------------------------------------
# gradients through the whole model


def _generic_point(params, rng):
    # zero-initialized biases put relu pre-activations exactly on the kink,
    # where finite differences and the subgradient convention disagree;
    # check at a generic parameter point instead
    for _, t in params.named_parameters():
        t.values[...] += 0.05 * rng.normal(size=t.shape)


def test_forecaster_end_to_end_gradcheck():
    params = init_forecaster(TINY)
    rng = np.random.default_rng(16)
    _generic_point(params, rng)
    window = rng.normal(size=(8, 2))
    target = constant(rng.normal(size=(2, 2)))

    def build():
        diff = forecast(window, params, TINY) - target
        return mean_all(diff * diff)

    gradcheck(build, params.parameters())


def test_batched_loss_gradcheck():
    params = init_forecaster(TINY)
    rng = np.random.default_rng(17)
    _generic_point(params, rng)
    windows = rng.normal(size=(3, 8, 2))
    targets = constant(rng.normal(size=(2, 3, 2)))

    def build():
        diff = forecast_batch(windows, params, TINY) - targets
        return mean_all(diff * diff)

    gradcheck(build, params.parameters())


def test_conv_gru_mse_gradcheck_univariate():
    # squared-error loss of a two-conv-layer + GRU pass on a random 1 x 8 input,
    # as a batch of one
    config = ForecasterConfig(v=1, T=8, L=1, n_filters=2, kernel_size=3, gru_hidden=3, seed=21)
    params = init_forecaster(config)
    rng = np.random.default_rng(21)
    _generic_point(params, rng)
    x = rng.normal(size=(1, 1, 8))
    target = constant(rng.normal(size=(1, 3)))

    def build():
        h = gru_encode(conv_features(x, params.full), params.full.gru)
        diff = h - target
        return mean_all(diff * diff)

    stream_params = [t for name, t in params.named_parameters() if name.startswith("full.")]
    gradcheck(build, stream_params)


# ---------------------------------------------------------------------------
# ridge baseline


def test_ridge_exact_interpolation():
    X = np.array([[1.0, 0.0], [0.0, 1.0]])
    y = np.array([2.0, -1.0])
    w, b = ridge_fit(X, y, lam=0.0)
    assert np.allclose(X @ w + b, y, atol=1e-10)


def test_ridge_shrinkage_limit():
    rng = np.random.default_rng(18)
    X = rng.normal(size=(50, 4))
    y = rng.normal(size=50)
    w, _ = ridge_fit(X, y, lam=1e9)
    assert np.linalg.norm(w) < 1e-6


def test_ridge_normal_equation_residual():
    rng = np.random.default_rng(19)
    for _ in range(100):
        n, p, m = rng.integers(5, 30), rng.integers(1, 8), rng.integers(1, 4)
        X = rng.normal(size=(n, p))
        y = rng.normal(size=(n, m))
        lam = float(rng.uniform(0.01, 10.0))
        w, _ = ridge_fit(X, y, lam)
        xc = X - X.mean(axis=0)
        yc = y - y.mean(axis=0)
        residual = (xc.T @ xc + lam * np.eye(p)) @ w - xc.T @ yc
        assert np.max(np.abs(residual)) < 1e-8


def test_ridge_singular_without_regularization():
    X = np.ones((4, 2))  # rank deficient after centering
    y = np.arange(4.0)
    with pytest.raises(FloatingPointError):
        ridge_fit(X, y, lam=0.0)


@pytest.mark.parametrize("lam", [np.nan, np.inf, -1.0])
def test_ridge_rejects_a_lam_that_is_not_finite_and_non_negative(lam):
    X = np.arange(8.0).reshape(4, 2) ** 2
    with pytest.raises(ValueError, match=r"^ridge_fit: lam must be a finite number >= 0, got"):
        ridge_fit(X, np.arange(4.0), lam=lam)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_ridge_rejects_non_finite_input(bad):
    X = np.arange(8.0).reshape(4, 2) ** 2
    y = np.arange(4.0)
    X_bad, y_bad = X.copy(), y.copy()
    X_bad[1, 0] = bad
    y_bad[2] = bad
    with pytest.raises(ValueError, match="ridge_fit: X must not contain"):
        ridge_fit(X_bad, y)
    with pytest.raises(ValueError, match="ridge_fit: y must not contain"):
        ridge_fit(X, y_bad)


def test_ridge_rejects_an_x_with_no_rows():
    with pytest.raises(ValueError, match=r"ridge_fit: X has no rows, got shape \(0, 2\)"):
        ridge_fit(np.zeros((0, 2)), np.zeros(0))


# ---------------------------------------------------------------------------
# checkpointing


def test_checkpoint_round_trip(tmp_path):
    params = init_forecaster(TINY)
    rng = np.random.default_rng(20)
    for _, t in params.named_parameters():
        t.values[...] = rng.normal(size=t.shape)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, TINY)

    loaded, config = load_checkpoint(path)
    assert config == TINY
    for (name_a, ta), (name_b, tb) in zip(params.named_parameters(), loaded.named_parameters()):
        assert name_a == name_b
        assert np.array_equal(ta.values, tb.values)

    # byte-stable: saving the loaded model reproduces the file exactly
    path2 = tmp_path / "model2.ckpt"
    save_checkpoint(path2, loaded, config)
    assert path.read_bytes() == path2.read_bytes()


def test_configs_of_numpy_scalars_store_plain_python_values(tmp_path):
    # numpy scalars passed every check, then json could not write them
    config = ForecasterConfig(v=np.int64(2), T=np.int64(8), L=np.int32(2), n_filters=np.int64(3),
                              kernel_size=np.int64(3), gru_hidden=np.int64(4), seed=np.int64(11),
                              use_ar_shortcut=np.False_)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_forecaster(config), config)
    _, loaded = load_checkpoint(path)
    assert loaded == config == replace(TINY, use_ar_shortcut=False)

    train = TrainConfig(learning_rate=np.float32(0.5), epochs=np.int64(2), batch_size=np.int64(4),
                        patience=np.int64(3), seed=np.uint8(1))
    spec = SynthSpec(n_series=np.int64(3), length=np.int64(20), slope_range=(np.float32(-0.5), np.float32(0.5)),
                     noise_std=np.float32(0.25), seed=np.int64(4))
    for obj in (config, train, spec):
        values = asdict(obj)
        json.dumps(values)
        for value in values.values():
            for item in value if isinstance(value, tuple) else (value,):
                assert type(item) in (int, bool, float), (type(obj).__name__, item)


def test_checkpoint_version_1_loads_and_forecasts_bit_for_bit(tmp_path):
    # written in the version-1 layout: nine per-gate GRU arrays <stream>.gru.{w,u,b}_{z,r,h}
    v1 = json.loads((DATA / "checkpoint_v1.json").read_text())
    reference = json.loads((DATA / "checkpoint_v1_forecast.json").read_text())
    assert v1["version"] == 1
    params, config = load_checkpoint(DATA / "checkpoint_v1.json")
    pred = forecast(np.reshape(reference["window"], (config.T, config.v)), params, config).values
    assert pred.reshape(-1).tolist() == reference["forecast"]
    for stream in ("full", "half", "quarter"):
        gru = getattr(params, stream).gru
        for kind in ("w", "u", "b"):
            gates = [v1["params"][f"{stream}.gru.{kind}_{gate}"] for gate in "zrh"]
            stacked = np.concatenate([np.reshape(g["data"], g["shape"]) for g in gates])
            assert np.array_equal(getattr(gru, kind).values, stacked)

    # re-saving writes version 2, whose round trip is byte for byte
    path, path2 = tmp_path / "v2.json", tmp_path / "v2_again.json"
    save_checkpoint(path, params, config)
    assert json.loads(path.read_text())["version"] == 2
    save_checkpoint(path2, *load_checkpoint(path))
    assert path.read_bytes() == path2.read_bytes()


def test_checkpoint_version_2_with_three_heads_loads_forecasts_and_resaves(tmp_path):
    # written before the heads were stacked, one head_t.w/head_t.b pair per step
    path = DATA / "checkpoint_v2_L3.json"
    stored = json.loads(path.read_text())
    reference = json.loads((DATA / "checkpoint_v2_L3_forecast.json").read_text())
    assert stored["version"] == 2 and stored["config"]["L"] == 3
    params, config = load_checkpoint(path)
    pred = forecast(np.array(reference["window"]), params, config).values
    assert np.max(np.abs(pred.reshape(-1) - reference["forecast"])) <= 1e-12
    for t in range(1, 4):
        entry = stored["params"][f"head_{t}.w"]
        block = params.heads.w.values[:, (t - 1) * 2 : t * 2]
        assert np.array_equal(block, np.reshape(entry["data"], entry["shape"]))

    again = tmp_path / "again.json"
    save_checkpoint(again, params, config)
    assert again.read_bytes() == path.read_bytes()


@pytest.mark.parametrize("drop, named", [
    (("config",), "'config'"),
    (("params",), "'params'"),
    (("params", "full.gru.w", "shape"), "'full.gru.w' has no 'shape'"),
    (("params", "quarter.gru.b", "data"), "'quarter.gru.b' has no 'data'"),
])
def test_checkpoint_missing_key_names_file_and_key(tmp_path, drop, named):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_forecaster(TINY), TINY)
    payload = json.loads(path.read_text())
    entry = payload
    for key in drop[:-1]:
        entry = entry[key]
    del entry[drop[-1]]
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert str(path) in str(exc.value) and named in str(exc.value)


@pytest.mark.parametrize("field, value, named", [
    ("shape", [5], "'full.gru.b' has 12 values, which do not fit shape [5]"),
    ("data", ["x"] * 12, "'full.gru.b' (12 values, shape [12]) holds a value that is not a number"),
    ("data", [0.0] * 11 + [float("nan")], "'full.gru.b' (12 values, shape [12]) holds a value that is not finite"),
    ("data", [float("-inf")] + [0.0] * 11, "'full.gru.b' (12 values, shape [12]) holds a value that is not finite"),
])
def test_checkpoint_entry_that_does_not_load_names_file_entry_count_and_shape(tmp_path, field, value, named):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_forecaster(TINY), TINY)
    payload = json.loads(path.read_text())
    assert payload["params"]["full.gru.b"]["shape"] == [12]  # 3 gates of gru_hidden=4
    payload["params"]["full.gru.b"][field] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: entry {named}"


@pytest.mark.parametrize("tamper, says", [
    (lambda payload: payload.update(version=9), "unsupported checkpoint version 9"),
    (lambda payload: payload["params"].update({"full.gru.c": payload["params"].pop("full.gru.b")}),
     "checkpoint parameter names do not match the config"),
    (lambda payload: payload["params"]["full.gru.b"].update(shape=[3, 4]), "shape mismatch for full.gru.b"),
    (lambda payload: payload.update(params=list(payload["params"].values())), "checkpoint 'params' is not a JSON object"),
    (lambda payload: payload.update(version=True), "unsupported checkpoint version True"),
], ids=["version", "names", "shape", "params-list", "version-true"])
def test_checkpoint_that_does_not_fit_its_config_names_the_file(tmp_path, tamper, says):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_forecaster(TINY), TINY)
    payload = json.loads(path.read_text())
    tamper(payload)
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: {says}"


def test_checkpoint_with_a_shortcut_flag_that_is_not_a_bool_names_the_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_forecaster(TINY), TINY)
    payload = json.loads(path.read_text())
    payload["config"]["use_ar_shortcut"] = "false"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert str(exc.value) == f"{path}: invalid config: config field use_ar_shortcut must be a bool, got 'false'"


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text('{"format": "something-else"}')
    with pytest.raises(ValueError):
        load_checkpoint(path)


def test_checkpoint_that_is_not_json_names_the_file(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, init_forecaster(TINY), TINY)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])  # cut off mid-document
    with pytest.raises(ValueError) as exc:
        load_checkpoint(path)
    assert str(exc.value).startswith(f"{path}: not a tscast-checkpoint file: ")
