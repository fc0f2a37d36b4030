import numpy as np
import pytest

from tscast import autodiff as ad
from tscast.autodiff import (
    DimensionError,
    Tape,
    Tensor,
    backward,
    causal_conv1d,
    constant,
    finite_diff_grad,
    matmul,
    mean_all,
    relu,
    sigmoid,
    tanh,
)

from _checks import gradcheck


# ---------------------------------------------------------------------------
# forward values


def test_matmul_identity():
    eye = constant(np.eye(2))
    a = constant([[1.0, 2.0], [3.0, 4.0]])
    assert np.array_equal(matmul(eye, a).values, a.values)


def test_matmul_zero():
    a = constant([[1.0, 2.0], [3.0, 4.0]])
    z = constant([[0.0], [0.0]])
    assert np.array_equal(matmul(a, z).values, np.zeros((2, 1)))


def test_matmul_hand_value():
    a = constant([[1.0, 2.0], [3.0, 4.0]])
    b = constant([[5.0], [6.0]])
    # hand arithmetic: [1*5+2*6, 3*5+4*6]
    assert np.array_equal(matmul(a, b).values, [[17.0], [39.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        matmul(constant(np.zeros((2, 3))), constant(np.zeros((2, 3))))
    assert "(2, 3)" in str(exc.value)


def test_causal_conv_identity_kernel():
    x = constant([[1.0, 2.0, 3.0, 4.0]])
    w = constant(np.array([0.0, 0.0, 1.0]).reshape(1, 1, 3))
    out = causal_conv1d(x, w, constant([0.0]))
    assert np.array_equal(out.values, [[1.0, 2.0, 3.0, 4.0]])


def test_causal_conv_running_sum():
    # hand convolution with two zeros padded on the left
    x = constant([[1.0, 2.0, 3.0, 4.0]])
    w = constant(np.ones((1, 1, 3)))
    out = causal_conv1d(x, w, constant([0.0]))
    assert np.array_equal(out.values, [[1.0, 3.0, 6.0, 9.0]])


def test_causal_conv_zero_kernel():
    rng = np.random.default_rng(0)
    x = constant(rng.normal(size=(3, 5)))
    w = constant(np.zeros((2, 3, 4)))
    out = causal_conv1d(x, w, constant(np.zeros(2)))
    assert np.array_equal(out.values, np.zeros((2, 5)))


def test_causal_conv_rejects_empty():
    with pytest.raises(DimensionError):
        causal_conv1d(constant(np.zeros((1, 0))), constant(np.zeros((1, 1, 1))), constant([0.0]))
    with pytest.raises(DimensionError):
        causal_conv1d(constant(np.zeros((2, 4))), constant(np.zeros((1, 3, 2))), constant([0.0]))


def test_pointwise_values():
    assert np.array_equal(relu(constant([-1.0, 0.0, 2.0])).values, [0.0, 0.0, 2.0])
    assert np.array_equal(sigmoid(constant([0.0])).values, [0.5])
    assert np.array_equal(tanh(constant([0.0])).values, [0.0])


# ---------------------------------------------------------------------------
# backward basics


def test_backward_square():
    x = Tensor(np.array(3.0), requires_grad=True)
    with Tape():
        loss = x * x
        backward(loss)
    assert np.allclose(x.grad, 6.0)


def test_backward_sigmoid():
    x = Tensor(np.array(0.0), requires_grad=True)
    with Tape():
        backward(sigmoid(x))
    assert np.allclose(x.grad, 0.25)


def test_backward_requires_scalar():
    x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
    with Tape():
        y = x * x
        with pytest.raises(ValueError):
            backward(y)


def test_backward_requires_tape_connection():
    x = Tensor(np.array(3.0), requires_grad=True)
    y = x * x  # no active tape
    with pytest.raises(ValueError):
        backward(y)


def test_backward_after_tape_is_gone_names_the_cause():
    x = Tensor(np.array(3.0), requires_grad=True)
    with Tape():
        y = x * x
    with pytest.raises(ValueError, match="tape that recorded the loss is gone"):
        backward(y)


def test_finished_tape_is_freed_without_the_cycle_collector():
    import gc
    import weakref

    x = Tensor(np.ones((3, 4)), requires_grad=True)
    gc.disable()
    try:
        with Tape() as tape:
            loss = mean_all(tanh(matmul(x, constant(np.ones((4, 2))))))
            backward(loss)
        ref = weakref.ref(tape)
        del tape, loss
        assert ref() is None
    finally:
        gc.enable()


def test_off_path_leaf_gets_zero_grad():
    a = Tensor(np.array(2.0), requires_grad=True)
    b = Tensor(np.array(5.0), requires_grad=True)
    with Tape():
        _ = b * b  # recorded, but not connected to the loss
        loss = a * a
        backward(loss)
    assert np.allclose(a.grad, 4.0)
    assert np.array_equal(b.grad, np.zeros(()))


def test_grad_accumulates_over_reuse():
    x = Tensor(np.array(3.0), requires_grad=True)
    with Tape():
        loss = x * x + x * 4.0
        backward(loss)
    assert np.allclose(x.grad, 10.0)


# ---------------------------------------------------------------------------
# finite-difference oracle


def test_finite_diff_square():
    fd = finite_diff_grad(lambda v: float(v**2), Tensor(np.array(3.0)), 1e-5)
    assert abs(fd - 6.0) < 1e-8


def test_finite_diff_constant():
    fd = finite_diff_grad(lambda v: 7.0, Tensor(np.zeros(4)), 1e-5)
    assert np.array_equal(fd, np.zeros(4))


def test_finite_diff_dead_relu():
    fd = finite_diff_grad(lambda v: float(np.maximum(v, 0.0)), Tensor(np.array(-1.0)), 1e-5)
    assert fd == 0.0


def test_finite_diff_rejects_bad_eps():
    with pytest.raises(ValueError):
        finite_diff_grad(lambda v: 0.0, Tensor(np.zeros(2)), 0.0)


def test_finite_diff_rejects_nonfinite():
    with pytest.raises(FloatingPointError):
        finite_diff_grad(lambda v: float("nan"), Tensor(np.zeros(2)), 1e-5)


# ---------------------------------------------------------------------------
# randomized gradient correctness, one op at a time

RNG = np.random.default_rng(20240811)


def _param(*shape):
    return Tensor(RNG.normal(size=shape), requires_grad=True)


def _proj(out_shape):
    # fixed random projection so each output entry gets a distinct weight
    return constant(RNG.normal(size=out_shape))


def _check_op(build, params):
    gradcheck(build, params)


def test_grad_matmul_matrix_matrix():
    a, b = _param(4, 3), _param(3, 5)
    r = _proj((4, 5))
    _check_op(lambda: mean_all(matmul(a, b) * r), [a, b])


def test_grad_matmul_matrix_vector():
    a, x = _param(5, 4), _param(4)
    r = _proj((5,))
    _check_op(lambda: mean_all(matmul(a, x) * r), [a, x])


def test_grad_matmul_vector_matrix():
    x, a = _param(4), _param(4, 6)
    r = _proj((6,))
    _check_op(lambda: mean_all(matmul(x, a) * r), [x, a])


def test_grad_causal_conv():
    x, w, b = _param(3, 6), _param(2, 3, 3), _param(2)
    r = _proj((2, 6))
    _check_op(lambda: mean_all(causal_conv1d(x, w, b) * r), [x, w, b])


def test_grad_causal_conv_batched():
    x, w, b = _param(4, 2, 5), _param(3, 2, 2), _param(3)
    r = _proj((4, 3, 5))
    _check_op(lambda: mean_all(causal_conv1d(x, w, b) * r), [x, w, b])


def _gru_gates(hidden, c_in, scale=0.5):
    """Stacked (3H, C), (3H, H) and (3H,) GRU weights, gate rows in z, r, h order."""
    w, u, b = _param(3 * hidden, c_in), _param(3 * hidden, hidden), _param(3 * hidden)
    for t in (w, u):
        t.values *= scale  # keep the gates away from saturation
    return w, u, b


@pytest.mark.parametrize("x_shape", [(4, 2, 5), (1, 2, 6)])
def test_grad_gru_sequence(x_shape):
    w, u, b = _gru_gates(hidden=3, c_in=2)
    x = _param(*x_shape)
    r = _proj((x_shape[0], 3))
    _check_op(lambda: mean_all(ad.gru_sequence(x, w, u, b) * r), [x, w, u, b])


def test_gru_sequence_rejects_bad_shapes():
    w, u, b = _gru_gates(hidden=3, c_in=2)
    with pytest.raises(DimensionError):
        ad.gru_sequence(np.zeros((1, 3, 5)), w, u, b)  # 3 channels for 2-channel weights
    for unbatched in (np.zeros(5), np.zeros((2, 5))):
        with pytest.raises(DimensionError, match=r"\(B, C, T\)"):
            ad.gru_sequence(unbatched, w, u, b)
    for bad in ((w.values[:6], u, b), (w, u.values[:, :2], b), (w, u, b.values[:3]), (w, u.values[0], b)):
        with pytest.raises(DimensionError, match=r"\(3H, C\), \(3H, H\) and \(3H,\)"):
            ad.gru_sequence(np.zeros((1, 2, 5)), *bad)
    with pytest.raises(ValueError):
        ad.gru_sequence(np.zeros((1, 2, 0)), w, u, b)


def _conv_einsum(x, w, b):
    """Direct-sum causal convolution of (B, C_in, T): the reference the GEMM
    form must match."""
    k = w.shape[2]
    xp = np.pad(x, [(0, 0), (0, 0), (k - 1, 0)])
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=-1)
    return np.einsum("oik,bitk->bot", w, win) + b[None, :, None]


def _conv_einsum_grads(x, w, g):
    """Gradients of sum(g * conv(x, w, b)) with respect to x, w and b."""
    k, t_len = w.shape[2], x.shape[-1]
    xp = np.pad(x, [(0, 0), (0, 0), (k - 1, 0)])
    win = np.lib.stride_tricks.sliding_window_view(xp, k, axis=-1)
    gxp = np.zeros_like(xp)
    for tap in range(k):
        gxp[:, :, tap : tap + t_len] += np.einsum("oi,bot->bit", w[:, :, tap], g)
    return gxp[:, :, k - 1 :], np.einsum("bot,bitk->oik", g, win), g.sum(axis=(0, 2))


@pytest.mark.parametrize("x_shape, w_shape", [
    ((3, 2, 17), (4, 2, 5)),   # batched
    ((2, 9), (3, 2, 7)),       # unbatched, kernel nearly as long as the input
    ((5, 1, 4), (2, 1, 6)),    # kernel longer than the sequence
    ((2, 3, 1), (3, 3, 1)),    # a single step and a single tap
])
def test_causal_conv_matches_einsum_reference(x_shape, w_shape):
    rng = np.random.default_rng(31)
    xv, wv, bv = rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=w_shape[0])
    x, w, b = (Tensor(v.copy(), requires_grad=True) for v in (xv, wv, bv))
    g = rng.normal(size=x_shape[:-2] + (w_shape[0], x_shape[-1]))
    with Tape():
        out = causal_conv1d(x, w, b)
        backward(mean_all(out * constant(g)))

    batched = len(x_shape) == 3
    xb, gb = (xv, g) if batched else (xv[None], g[None])
    ref_out = _conv_einsum(xb, wv, bv)
    ref_gx, ref_gw, ref_gb = _conv_einsum_grads(xb, wv, gb / g.size)
    if not batched:
        ref_out, ref_gx = ref_out[0], ref_gx[0]
    for analytic, reference in ((out.values, ref_out), (x.grad, ref_gx), (w.grad, ref_gw), (b.grad, ref_gb)):
        assert analytic.shape == reference.shape
        assert np.max(np.abs(analytic - reference)) <= 1e-12


def _conv_tap_matmul(x, w, b):
    """Causal convolution of (B, C_in, T) as one np.matmul per tap, summed in
    tap order on the time-major padded input: the GEMM form, kept as the
    reference the one-channel kernel must equal exactly."""
    k, t_len = w.shape[2], x.shape[-1]
    xp = np.pad(x.transpose(0, 2, 1), [(0, 0), (k - 1, 0), (0, 0)])
    y = np.matmul(xp[:, :t_len], w[:, :, 0].T)
    for tap in range(1, k):
        y += np.matmul(xp[:, tap : tap + t_len], w[:, :, tap].T)
    return y.transpose(0, 2, 1) + b[:, None]


@pytest.mark.parametrize("x_shape, w_shape", [
    ((32, 1, 64), (32, 1, 7)),  # conv1 at the defaults
    ((5, 1, 4), (2, 1, 6)),     # kernel longer than the sequence
    ((1, 9), (3, 1, 3)),        # unbatched
    ((2, 1, 1), (4, 1, 1)),     # a single step and a single tap
])
def test_causal_conv_one_channel_equals_per_tap_matmul(x_shape, w_shape):
    rng = np.random.default_rng(47)
    xv, wv, bv = rng.normal(size=x_shape), rng.normal(size=w_shape), rng.normal(size=w_shape[0])
    out = causal_conv1d(xv, wv, bv).values
    ref = _conv_tap_matmul(xv if xv.ndim == 3 else xv[None], wv, bv)
    assert np.array_equal(out, ref if xv.ndim == 3 else ref[0])


def _ref_sigmoid(v):
    """The logistic function as two divides and a select on the sign: the
    oracle for the select-free kernel."""
    e = np.exp(-np.abs(v))
    d = 1.0 + e
    return np.where(v >= 0.0, 1.0 / d, e / d)


def _ref_gru_sequence(xv, wv, uv, bv, g):
    """Loop form of gru_sequence's forward pass and backpropagation through
    time with a fresh array per step, kept as the bit-for-bit oracle.

    Returns the final state and the gradients of sum(g * h) with respect to
    x, w, u and b.
    """
    n, c_in, t_len = xv.shape
    hidden = uv.shape[1]
    u_zr, u_h = uv[: 2 * hidden], uv[2 * hidden :]
    x_rows = xv.transpose(2, 0, 1).reshape(t_len * n, c_in)
    proj = x_rows @ wv.T
    proj += bv
    proj = proj.reshape(t_len, n, 3 * hidden)
    hs, zrs, rhs, cands = [np.zeros((n, hidden))], [], [], []
    for t in range(t_len):
        h = hs[-1]
        pre = h @ u_zr.T
        pre += proj[t, :, : 2 * hidden]
        zr = _ref_sigmoid(pre)
        z, r = zr[:, :hidden], zr[:, hidden:]
        rh = r * h
        cand = rh @ u_h.T
        cand += proj[t, :, 2 * hidden :]
        cand = np.tanh(cand)
        zrs.append(zr), rhs.append(rh), cands.append(cand)
        hs.append(h + z * (cand - h))

    da = np.empty((t_len, n, 3 * hidden))
    dh = g
    for t in range(t_len - 1, -1, -1):
        h, zr, cand = hs[t], zrs[t], cands[t]
        z, r = zr[:, :hidden], zr[:, hidden:]
        dcand = dh * z
        da[t, :, 2 * hidden :] = dcand * (1.0 - cand * cand)
        drh = da[t, :, 2 * hidden :] @ u_h
        da[t, :, :hidden] = dh * (cand - h)
        da[t, :, hidden : 2 * hidden] = drh * h
        da[t, :, : 2 * hidden] *= zr * (1.0 - zr)
        dh = dh - dcand + drh * r + da[t, :, : 2 * hidden] @ u_zr
    da_rows = da.reshape(t_len * n, 3 * hidden)
    gx = (da_rows @ wv).reshape(t_len, n, c_in).transpose(1, 2, 0)
    gu = np.concatenate([
        da_rows[:, : 2 * hidden].T @ np.stack(hs[:-1]).reshape(t_len * n, hidden),
        da_rows[:, 2 * hidden :].T @ np.stack(rhs).reshape(t_len * n, hidden),
    ])
    return hs[-1], gx, da_rows.T @ x_rows, gu, da_rows.sum(axis=0)


@pytest.mark.parametrize("batch, c_in, t_len, hidden, scale", [
    (1, 1, 1, 1, 0.5),       # one sequence, one step, one unit
    (1, 32, 16, 64, 0.3),    # one window, as forecast runs it: matrix-vector products
    (32, 32, 64, 64, 0.3),   # the full-resolution stream at the defaults
    (4, 3, 9, 5, 1000.0),    # gates saturated at about +-1000
    (64, 4, 16, 8, 0.3),     # the ablation-small streams: full,
    (64, 4, 8, 8, 0.3),      # half
    (64, 4, 4, 8, 0.3),      # and quarter resolution
    (1, 4, 16, 8, 0.3),      # one ablation-small window
    (3, 2, 2, 4, 0.3),       # even T: the untaped state ends in the row it started in
])
def test_gru_sequence_equals_loop_reference_bit_for_bit(batch, c_in, t_len, hidden, scale):
    rng = np.random.default_rng(batch + t_len + hidden)
    xv = rng.normal(size=(batch, c_in, t_len))
    wv, uv = rng.normal(size=(3 * hidden, c_in)) * scale, rng.normal(size=(3 * hidden, hidden)) * scale
    bv, g = rng.normal(size=3 * hidden), rng.normal(size=(batch, hidden))
    x, w, u, b = (Tensor(v.copy(), requires_grad=True) for v in (xv, wv, uv, bv))
    with Tape():
        h = ad.gru_sequence(x, w, u, b)
        backward(mean_all(h * constant(g)))
    upstream = np.full(g.shape, 1.0 / g.size) * g  # what mean_all and mul hand the op
    reference = _ref_gru_sequence(xv, wv, uv, bv, upstream)
    if scale > 1.0:
        assert np.mean(np.abs(reference[0]) == 1.0) > 0.5  # the gates really saturate
    for got, want in zip((h.values, x.grad, w.grad, u.grad, b.grad), reference):
        assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(ad.gru_sequence(xv, wv, uv, bv).values, reference[0])  # untaped


def test_sigmoid_equals_select_reference_bit_for_bit():
    special = np.array([0.0, 5e-324, 1e-300, 40.0, 745.0, 746.0, 1000.0, np.inf, np.nan])
    rng = np.random.default_rng(16)
    sweep = [rng.normal(size=25_000) * scale for scale in (0.01, 1.0, 10.0, 100.0)]
    v = np.concatenate([special, -special, *sweep])  # -special holds -0 and a NaN with its sign bit set
    want = _ref_sigmoid(v).view(np.uint64)
    assert np.array_equal(ad.sigmoid(v).values.view(np.uint64), want)
    inplace = v.copy()
    ad._sigmoid(inplace, inplace, np.empty_like(v))  # the in-place form gru_sequence uses
    assert np.array_equal(inplace.view(np.uint64), want)


def test_sigmoid_does_not_overflow():
    x = Tensor(np.array([-1000.0, -40.0, 0.0, 40.0, 1000.0]), requires_grad=True)
    with np.errstate(over="raise", under="ignore"), Tape():
        y = sigmoid(x)
        backward(mean_all(y))
    assert np.array_equal(y.values[[0, 2, 4]], [0.0, 0.5, 1.0])
    assert y.values[1] == pytest.approx(np.exp(-40.0), rel=1e-15)
    assert np.all(np.isfinite(x.grad)) and x.grad[0] == 0.0 and x.grad[4] == 0.0


def test_gru_sequence_saturated_gates_do_not_overflow():
    w, u, b = _gru_gates(hidden=2, c_in=1, scale=1.0)
    x = Tensor(np.array([[[1000.0, -1000.0, 1000.0]]]), requires_grad=True)
    with np.errstate(over="raise", under="ignore"), Tape():
        h = ad.gru_sequence(x, w, u, b)
        backward(mean_all(h))
    assert np.all(np.isfinite(h.values)) and np.all(np.isfinite(x.grad))


def test_grad_pointwise():
    for op in (relu, sigmoid, tanh):
        x = _param(4, 5)
        r = _proj((4, 5))
        _check_op(lambda op=op, x=x, r=r: mean_all(op(x) * r), [x])


def test_grad_arithmetic():
    a, b = _param(3, 4), _param(3, 4)
    r = _proj((3, 4))
    _check_op(lambda: mean_all((a + b) * r), [a, b])
    _check_op(lambda: mean_all((a - b) * r), [a, b])
    _check_op(lambda: mean_all((a * b) * r), [a, b])
    _check_op(lambda: mean_all((2.0 * a - 3.0) * r), [a])


def test_grad_bias_broadcasts():
    x, rb, cb = _param(4, 3), _param(3), _param(4)
    r = _proj((4, 3))
    _check_op(lambda: mean_all((x + rb) * r), [x, rb])
    _check_op(lambda: mean_all((x - ad.reshape(cb, (-1, 1))) * r), [x, cb])

    col, row = _param(3, 1), _param(1, 4)
    r2 = _proj((3, 4))
    _check_op(lambda: mean_all((col * row) * r2), [col, row])


def test_elementwise_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as exc:
        constant(np.zeros((2, 3))) + constant(np.zeros(4))
    assert "(2, 3)" in str(exc.value) and "(4,)" in str(exc.value)
    for op in (ad.add, ad.sub, ad.mul):  # same rank, same size, no broadcast
        with pytest.raises(DimensionError) as exc:
            op(Tensor(np.zeros((2, 3)), requires_grad=True), constant(np.zeros((3, 2))))
        assert str(exc.value) == f"{op.__name__}: shapes (2, 3) and (3, 2) do not broadcast"


@pytest.mark.parametrize("values", [
    np.arange(12.0).reshape(3, 4).T,  # Fortran-ordered view
    np.arange(12.0)[::2],  # strided view
    np.arange(6).reshape(2, 3),  # integers
    [[1, 2], [3, 4]],
    np.float32(2.5),
])
def test_tensor_stores_c_contiguous_float64(values):
    t = Tensor(values)
    assert t.values.dtype == np.float64 and t.values.flags["C_CONTIGUOUS"]
    assert np.array_equal(t.values, np.asarray(values, dtype=np.float64))


def test_tensor_keeps_a_c_contiguous_float64_array_as_is():
    a = np.arange(6.0).reshape(2, 3)
    assert Tensor(a).values is a


def test_grad_shape_ops():
    a, b = _param(3), _param(4)
    r = _proj((7,))
    _check_op(lambda: mean_all(ad.concat([a, b]) * r), [a, b])

    m1, m2 = _param(2, 5), _param(3, 5)
    r2 = _proj((5, 5))
    _check_op(lambda: mean_all(ad.concat([m1, m2], axis=0) * r2), [m1, m2])

    m = _param(4, 6)
    r6 = _proj((6, 4))
    _check_op(lambda: mean_all(ad.transpose(m) * r6), [m])

    r7 = _proj((24,))
    _check_op(lambda: mean_all(ad.reshape(m, (24,)) * r7), [m])

    c = _param(2, 3, 4)
    for axes in [(1, 0, 2), (2, 0, 1), (1, 2, 0)]:
        r8 = _proj(tuple(c.shape[i] for i in axes))
        _check_op(lambda axes=axes, r8=r8: mean_all(ad.transpose(c, axes) * r8), [c])

    _check_op(lambda: mean_all(m), [m])


def test_transpose_axes_follows_numpy():
    x = np.arange(24.0).reshape(2, 3, 4)
    out = ad.transpose(constant(x), (2, 0, 1)).values
    assert np.array_equal(out, np.transpose(x, (2, 0, 1))) and out.flags["C_CONTIGUOUS"]


def test_transpose_rejects_bad_axes():
    with pytest.raises(DimensionError, match="expected a matrix"):
        ad.transpose(constant(np.zeros((2, 3, 4))))
    for axes in [(0, 1), (0, 1, 1), (0, 1, 3)]:
        with pytest.raises(DimensionError, match="do not permute"):
            ad.transpose(constant(np.zeros((2, 3, 4))), axes)


# ---------------------------------------------------------------------------
# structural invariants


def test_causality_perturbation():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 8))
    w = constant(rng.normal(size=(3, 2, 4)))
    b = constant(rng.normal(size=3))
    base = causal_conv1d(constant(x), w, b).values
    for t in range(1, 8):
        bumped = x.copy()
        bumped[:, t:] += rng.normal(size=(2, 8 - t))
        out = causal_conv1d(constant(bumped), w, b).values
        assert np.array_equal(out[:, :t], base[:, :t])


def test_linearity_exact_for_power_of_two_scale():
    rng = np.random.default_rng(8)
    a = rng.normal(size=(3, 4))
    b = rng.normal(size=(4, 2))
    assert np.array_equal(matmul(constant(2.0 * a), constant(b)).values,
                          2.0 * matmul(constant(a), constant(b)).values)

    x = rng.normal(size=(2, 6))
    w = rng.normal(size=(3, 2, 3))
    zero_bias = constant(np.zeros(3))
    assert np.array_equal(causal_conv1d(constant(2.0 * x), constant(w), zero_bias).values,
                          2.0 * causal_conv1d(constant(x), constant(w), zero_bias).values)


def test_tape_determinism():
    def run():
        rng = np.random.default_rng(123)
        x = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
        w = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
        with Tape():
            loss = mean_all(tanh(matmul(x, w)))
            backward(loss)
        return loss.values.copy(), x.grad.copy(), w.grad.copy()

    first, second = run(), run()
    for lhs, rhs in zip(first, second):
        assert np.array_equal(lhs, rhs)


def test_no_tape_means_no_recording():
    x = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    y = relu(x)
    assert y.node is None


def test_relu_subgradient_at_zero_is_zero():
    x = Tensor(np.array([0.0]), requires_grad=True)
    with Tape():
        backward(mean_all(relu(x)))
    assert np.array_equal(x.grad, [0.0])


def test_relu_gradient_mask_from_the_output_equals_the_input_mask():
    # out > 0 exactly where x > 0: +-0, +-inf, NaN and denormals included
    special = np.array([0.0, -0.0, 5e-324, -5e-324, 1.5, -1.5, np.inf, -np.inf, np.nan])
    x = Tensor(special, requires_grad=True)
    g = np.arange(1.0, special.size + 1.0)
    with np.errstate(invalid="ignore"), Tape():
        backward(mean_all(relu(x) * constant(g)))
    want = (np.full(special.shape, 1.0 / special.size) * g) * (special > 0.0)
    assert np.array_equal(x.grad.view(np.uint64), want.view(np.uint64))


def test_backward_consumes_the_tape_and_frees_intermediates_inside_the_block():
    import weakref

    x = Tensor(np.ones((3, 4)), requires_grad=True)
    with Tape() as tape:
        hidden = tanh(matmul(x, constant(np.ones((4, 2)))))
        gone = weakref.ref(hidden)
        loss = mean_all(relu(hidden))
        del hidden
        assert len(tape) == 4 and gone() is not None
        backward(loss)
        assert len(tape) == 0
        assert gone() is None  # freed by the sweep, not by leaving the block
        assert x.grad is not None
        with pytest.raises(ValueError, match="already swept"):
            backward(loss)
        _ = tanh(x)  # a new record does not bring the swept loss back
        with pytest.raises(ValueError, match="already swept"):
            backward(loss)


def test_backward_keeps_the_gradient_of_a_recorded_tensor_marked_requires_grad():
    x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
    with Tape():
        y = x * x
        y.requires_grad = True
        backward(mean_all(y * 3.0))
    assert np.array_equal(y.grad, np.full(3, 1.0))
    assert np.array_equal(x.grad, 2.0 * x.values)


def test_independent_tapes_across_threads():
    import threading

    results = {}

    def worker(seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        for _ in range(50):
            with Tape():
                backward(mean_all(tanh(x * x)))
        results[seed] = x.grad.copy()

    threads = [threading.Thread(target=worker, args=(s,)) for s in (1, 2, 3, 4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    for seed in (1, 2, 3, 4):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(4, 4)), requires_grad=True)
        with Tape():
            backward(mean_all(tanh(x * x)))
        assert np.array_equal(results[seed], x.grad)
