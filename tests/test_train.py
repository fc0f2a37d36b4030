from dataclasses import replace

import numpy as np
import pytest

from tscast import train
from tscast.autodiff import Tape, Tensor, backward
from tscast.model import ForecasterConfig, forecast, forecast_batch, init_forecaster
from tscast.preprocess import ForecastWindow, SeriesFrame, build_windows
from tscast.synth import default_ablation_model_config
from tscast.train import (
    AdamState,
    EvalReport,
    TrainConfig,
    adam_step,
    cross_validate,
    mse_loss,
    predict_windows,
    sliding_forecast,
    train_model,
)

TINY_MODEL = dict(n_filters=2, kernel_size=3, gru_hidden=3)


def _affine_frame(length=60, slope=0.1, intercept=-1.0):
    t = np.arange(float(length))
    return SeriesFrame(["y"], (slope * t + intercept)[:, None])


# ---------------------------------------------------------------------------
# loss


def test_mse_zero_for_equal_inputs():
    assert mse_loss(np.ones((2, 3)), np.ones((2, 3))).item() == 0.0


def test_mse_hand_value():
    assert mse_loss(np.array([1.0, -1.0]), np.zeros(2)).item() == 1.0


def test_mse_homogeneity():
    rng = np.random.default_rng(0)
    p, t = rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    base = mse_loss(p, t).item()
    scaled = mse_loss(t + 3.0 * (p - t), t).item()
    assert scaled == pytest.approx(9.0 * base, rel=1e-12)


def test_mse_shape_mismatch():
    with pytest.raises(ValueError):
        mse_loss(np.zeros((2, 2)), np.zeros((2, 3)))


@pytest.mark.parametrize("field, value", [
    ("learning_rate", float("nan")),
    ("learning_rate", float("inf")),
    ("learning_rate", -float("inf")),
    ("learning_rate", 0.0),
    ("learning_rate", "0.01"),
    ("epochs", 2.5),
    ("epochs", 3.0),
    ("epochs", -1),
    ("batch_size", 2.5),
    ("batch_size", 0),
    ("batch_size", True),
    ("patience", 1.5),
    ("patience", 0),
    ("seed", 1.5),
    ("seed", -1),
])
def test_train_config_rejects_a_bad_field_by_name(field, value):
    with pytest.raises(ValueError, match=f"config field {field} must be"):
        TrainConfig(**{field: value})


def test_train_config_accepts_numpy_scalars():
    config = TrainConfig(
        learning_rate=np.float64(0.01), epochs=np.int64(0), batch_size=np.int32(4), patience=np.int64(2), seed=np.int64(3)
    )
    assert config.epochs == 0 and config.batch_size == 4


# ---------------------------------------------------------------------------
# Adam


def _toy_params(values):
    return [Tensor(np.asarray(v, dtype=np.float64), requires_grad=True) for v in values]


def test_adam_zero_gradient_from_rest_keeps_params():
    params = _toy_params([[1.0, 2.0]])
    state = AdamState.for_params(params)
    before = params[0].values.copy()
    adam_step(params, [np.zeros(2)], state, TrainConfig())
    assert np.array_equal(params[0].values, before)
    assert np.array_equal(state.m_flat, np.zeros(2))
    assert np.array_equal(state.v_flat, np.zeros(2))


def test_adam_moments_decay_on_zero_gradient():
    params = _toy_params([[1.0, 2.0]])
    state = AdamState.for_params(params)
    state.m_flat[...] = 1.0
    state.v_flat[...] = 4.0
    adam_step(params, [np.zeros(2)], state, TrainConfig())
    assert np.allclose(state.m_flat, train.BETA1 * 1.0)
    assert np.allclose(state.v_flat, train.BETA2 * 4.0)


def test_adam_first_step_is_signed_learning_rate():
    params = _toy_params([[0.0, 0.0]])
    state = AdamState.for_params(params)
    hyper = TrainConfig(learning_rate=1e-3)
    g = np.array([0.5, -2.0])
    adam_step(params, [g], state, hyper)
    # bias-corrected first step: lr * g / (|g| + eps) ~= lr * sign(g)
    assert np.allclose(params[0].values, [-1e-3, 1e-3], rtol=1e-6)


def test_adam_deterministic_trajectories():
    def run():
        params = _toy_params([np.arange(4.0)])
        state = AdamState.for_params(params)
        hyper = TrainConfig(learning_rate=0.05)
        rng = np.random.default_rng(1)
        for _ in range(20):
            adam_step(params, [rng.normal(size=4)], state, hyper)
        return params[0].values.copy()

    assert np.array_equal(run(), run())


def test_adam_rejects_nonfinite_gradient():
    params = _toy_params([[1.0]])
    state = AdamState.for_params(params)
    before = params[0].values.copy()
    with pytest.raises(FloatingPointError):
        adam_step(params, [np.array([np.nan])], state, TrainConfig())
    assert np.array_equal(params[0].values, before)
    assert state.step == 0


def test_adam_error_gives_the_parameter_position():
    params = _toy_params([[1.0], [2.0], [3.0]])
    state = AdamState.for_params(params)
    with pytest.raises(FloatingPointError, match="parameter 1 of 3"):
        adam_step(params, [np.zeros(1), np.array([np.inf]), np.zeros(1)], state, TrainConfig())


def test_adam_rejects_a_gradient_shaped_unlike_its_parameter():
    params = _toy_params([[1.0, 2.0], [1.0, 2.0, 3.0]])
    state = AdamState.for_params(params)
    before = [p.values.copy() for p in params]
    with pytest.raises(ValueError, match=r"gradient 1 has shape \(1,\), its parameter \(3,\)"):
        adam_step(params, [np.ones(2), np.ones(1)], state, TrainConfig())
    assert all(np.array_equal(p.values, b) for p, b in zip(params, before))
    assert state.step == 0


def _ref_adam_step(params, grads, state, hyper):
    """The per-tensor Adam loop that the fused step must match bit for bit.
    Each parameter's moments are its slice of the state's flat buffers."""
    state.step += 1
    t = state.step
    correct1 = 1.0 - train.BETA1**t
    correct2 = 1.0 - train.BETA2**t
    for p, g, (lo, hi) in zip(params, grads, state.spans):
        m = train.BETA1 * state.m_flat[lo:hi].reshape(p.shape) + (1.0 - train.BETA1) * g
        v = train.BETA2 * state.v_flat[lo:hi].reshape(p.shape) + (1.0 - train.BETA2) * g * g
        state.m_flat[lo:hi], state.v_flat[lo:hi] = m.reshape(-1), v.reshape(-1)
        m_hat = m / correct1
        v_hat = v / correct2
        p.values[...] = p.values - hyper.learning_rate * m_hat / (np.sqrt(v_hat) + train.EPS)
    return params, state


def _bits(arrays):
    return [a.tobytes() for a in arrays]


def test_adam_step_matches_the_per_tensor_loop_bit_for_bit():
    rng = np.random.default_rng(3)
    shapes = [(3,), (2, 4), (4, 1, 5), (1,)]
    start = [rng.normal(size=s) * 10.0 ** rng.uniform(-12, 0, size=s) * (rng.random(size=s) < 0.7) for s in shapes]
    fused, ref = _toy_params([a.copy() for a in start]), _toy_params([a.copy() for a in start])
    fused_state, ref_state = AdamState.for_params(fused), AdamState.for_params(ref)
    hyper = TrainConfig(learning_rate=3e-3)
    for _ in range(20):
        grads = []
        for s in shapes:
            g = rng.choice([-1.0, 1.0], size=s) * 10.0 ** rng.uniform(-300, 150, size=s)
            g[rng.random(size=s) < 0.15] = 0.0
            g[rng.random(size=s) < 0.15] = -0.0
            grads.append(g)
        adam_step(fused, grads, fused_state, hyper)
        _ref_adam_step(ref, [g.copy() for g in grads], ref_state, hyper)
        assert _bits(p.values for p in fused) == _bits(p.values for p in ref)
        assert _bits([fused_state.m_flat, fused_state.v_flat]) == _bits([ref_state.m_flat, ref_state.v_flat])
    assert fused_state.step == ref_state.step == 20


def test_train_model_with_fused_adam_matches_the_per_tensor_loop(monkeypatch):
    from tscast import synth

    t = np.arange(200.0)
    frame = SeriesFrame(["y"], (np.sin(0.3 * t) + 0.1 * np.cos(1.7 * t))[:, None])
    windows = build_windows(frame, T=16, L=4)
    model_config = synth.default_ablation_model_config()
    train_config = replace(synth.default_ablation_train_config(), epochs=2)
    fused = train_model(windows, model_config, train_config)
    monkeypatch.setattr(train, "adam_step", _ref_adam_step)
    ref = train_model(windows, model_config, train_config)
    assert _bits(p.values for p in fused[0].parameters()) == _bits(p.values for p in ref[0].parameters())
    assert fused[1] == ref[1]


# ---------------------------------------------------------------------------
# training loop


def test_train_model_names_the_non_finite_gradient(monkeypatch):
    import tscast.train as train_module

    created = []
    real_init, real_backward = train_module.init_forecaster, train_module.backward
    calls = []

    def init(config):
        created.append(real_init(config))
        return created[-1]

    def poisoned_backward(loss):
        real_backward(loss)
        calls.append(None)
        if len(calls) == 3:  # the first step of the second epoch
            created[0].half.gru.u.grad[0, 1] = np.nan

    monkeypatch.setattr(train_module, "init_forecaster", init)
    monkeypatch.setattr(train_module, "backward", poisoned_backward)
    windows = build_windows(_affine_frame(length=40), T=8, L=1)  # 29 train windows: 2 steps an epoch
    config = ForecasterConfig(v=1, T=8, L=1, seed=0, **TINY_MODEL)
    with pytest.raises(FloatingPointError, match=r"^training: non-finite gradient for half\.gru\.u at epoch 1$"):
        train_model(windows, config, TrainConfig(epochs=3, batch_size=16))


def test_train_zero_epochs_returns_initial_params():
    frame = _affine_frame()
    windows = build_windows(frame, T=8, L=1)
    config = ForecasterConfig(v=1, T=8, L=1, seed=3, **TINY_MODEL)
    params, history = train_model(windows, config, TrainConfig(epochs=0))
    assert history == []
    reference = init_forecaster(config)
    for (_, a), (_, b) in zip(params.named_parameters(), reference.named_parameters()):
        assert np.array_equal(a.values, b.values)


def test_train_history_contract():
    frame = _affine_frame(40)
    windows = build_windows(frame, T=8, L=1)
    config = ForecasterConfig(v=1, T=8, L=1, seed=3, **TINY_MODEL)
    _, history = train_model(windows, config, TrainConfig(epochs=5, patience=50))
    assert len(history) == 5
    assert [h["epoch"] for h in history] == list(range(5))
    for h in history:
        assert np.isfinite(h["train_mse"]) and np.isfinite(h["val_mse"])


def test_train_solves_noiseless_affine_series():
    frame = _affine_frame(60)
    windows = build_windows(frame, T=8, L=1)
    config = ForecasterConfig(v=1, T=8, L=1, seed=3, **TINY_MODEL)
    train_config = TrainConfig(learning_rate=2e-2, epochs=100, batch_size=8, patience=100, seed=3)
    params, history = train_model(windows, config, train_config)
    train_mse = min(h["train_mse"] for h in history)
    assert train_mse < 1e-3
    # and the returned parameters actually forecast well
    preds = predict_windows(params, config, windows)
    targets = np.stack([w.target for w in windows])
    assert float(np.mean((preds - targets) ** 2)) < 1e-3


def test_early_stopping_returns_best_validation_params():
    rng = np.random.default_rng(4)
    data = np.sin(np.arange(120.0) / 5.0) + 0.05 * rng.normal(size=120)
    windows = build_windows(SeriesFrame(["y"], data[:, None]), T=8, L=1)
    config = ForecasterConfig(v=1, T=8, L=1, seed=5, **TINY_MODEL)
    params, history = train_model(windows, config, TrainConfig(learning_rate=1e-2, epochs=30, patience=3, seed=5))
    assert len(history) < 30  # stopped early, so the best epoch's values were restored
    best_recorded = min(h["val_mse"] for h in history)

    n_val = max(1, int(round(0.1 * len(windows))))
    val_windows = windows[-n_val:]
    preds = predict_windows(params, config, val_windows)
    targets = np.stack([w.target for w in val_windows])
    returned_val = float(np.mean((preds - targets) ** 2))
    assert returned_val <= best_recorded + 1e-12
    assert returned_val < history[-1]["val_mse"]


def test_best_so_far_training_loss_is_monotone_in_epochs():
    frame = _affine_frame(50)
    windows = build_windows(frame, T=8, L=1)
    config = ForecasterConfig(v=1, T=8, L=1, seed=6, **TINY_MODEL)
    _, history = train_model(windows, config, TrainConfig(epochs=12, patience=100, seed=6))
    losses = [h["train_mse"] for h in history]
    running = np.minimum.accumulate(losses)
    assert all(running[: i + 1].min() == running[i] for i in range(len(running)))
    assert running[-1] <= running[len(running) // 2]


def test_train_deterministic():
    frame = _affine_frame(50)
    windows = build_windows(frame, T=8, L=1)
    config = ForecasterConfig(v=1, T=8, L=1, seed=7, **TINY_MODEL)
    out = []
    for _ in range(2):
        params, history = train_model(windows, config, TrainConfig(epochs=4, seed=7))
        out.append((params, history))
    for (_, a), (_, b) in zip(out[0][0].named_parameters(), out[1][0].named_parameters()):
        assert np.array_equal(a.values, b.values)
    assert out[0][1] == out[1][1]


# ---------------------------------------------------------------------------
# cross-validation


def test_cross_validate_fold_counts_and_aggregates():
    rng = np.random.default_rng(8)
    data = np.sin(np.arange(90.0) / 4.0) + 0.1 * rng.normal(size=90)
    frame = SeriesFrame(["y"], data[:, None])
    config = ForecasterConfig(v=1, T=8, L=1, seed=0, **TINY_MODEL)
    report = cross_validate(
        frame, config, TrainConfig(epochs=2, seed=0), k=3, horizons=(3,), stride=2
    )
    assert report.folds == 3
    assert report.variables == ["y"]
    assert set(report.metric_names()) == {"mse", "mae", "dtw_3step"}
    for name in report.metric_names():
        values = report.metrics[name]
        assert len(values) == 3
        assert report.mean(name) == pytest.approx(float(np.mean(values)), abs=1e-15)
        assert report.std(name) == pytest.approx(float(np.std(values, ddof=1)), abs=1e-15)


def test_cross_validate_deterministic():
    rng = np.random.default_rng(9)
    data = rng.normal(size=60).cumsum()
    frame = SeriesFrame(["y"], data[:, None])
    config = ForecasterConfig(v=1, T=8, L=1, seed=1, **TINY_MODEL)
    a = cross_validate(frame, config, TrainConfig(epochs=2, seed=1), k=3, stride=2)
    b = cross_validate(frame, config, TrainConfig(epochs=2, seed=1), k=3, stride=2)
    assert a.metrics == b.metrics


def test_cross_validate_rejects_a_bad_radius_before_training(monkeypatch):
    calls = []
    monkeypatch.setattr(train, "train_model", lambda *args: calls.append(args))
    frame = SeriesFrame(["y"], np.sin(np.arange(60.0) / 4.0)[:, None])
    config = ForecasterConfig(v=1, T=8, L=1, seed=0, **TINY_MODEL)
    for radius in (-1, 1.5, "1"):
        with pytest.raises(ValueError, match="^radius must be"):
            cross_validate(frame, config, TrainConfig(epochs=1), k=3, horizons=(3,), dtw_radius=radius)
    assert calls == []


@pytest.mark.parametrize("horizon, message", [
    (0, "horizon L must be >= 1"),
    (53, "cannot fit one window"),  # 8 + 53 > 60 rows
    (51, "2 windows cannot form 3 folds"),
])
def test_cross_validate_rejects_a_bad_horizon_before_training(monkeypatch, horizon, message):
    calls = []
    monkeypatch.setattr(train, "train_model", lambda *args: calls.append(args))
    frame = SeriesFrame(["y"], np.sin(np.arange(60.0) / 4.0)[:, None])
    config = ForecasterConfig(v=1, T=8, L=1, seed=0, **TINY_MODEL)
    with pytest.raises(ValueError, match=message):
        cross_validate(frame, config, TrainConfig(epochs=1), k=3, horizons=(3, horizon))
    assert calls == []


def test_eval_report_zero_error_aggregates():
    report = EvalReport(variables=["y"], folds=5, metrics={"mse": [0.0] * 5})
    assert report.mean("mse") == 0.0
    assert report.std("mse") == 0.0


@pytest.mark.parametrize("config", [ForecasterConfig(v=1), default_ablation_model_config()])
def test_train_step_record_budget(config):
    # conv, relu, conv, relu and GRU per stream; five for the heads; five for
    # the shortcut; the sum; the loss's sub, mul and mean
    params = init_forecaster(config)
    rng = np.random.default_rng(0)
    windows = rng.normal(size=(4, config.T, config.v))
    with Tape() as tape:
        loss = mse_loss(forecast_batch(windows, params, config), rng.normal(size=(config.L, 4, config.v)))
        records = len(tape)  # backward consumes the tape, so count before it
        backward(loss)
    assert 0 < records <= 29
    assert len(tape) == 0


def test_default_train_step_peak_memory():
    # one paper-default step at batch 32: forward, loss and backward. It
    # peaks near 12.6 MB of arrays when backward frees each record and
    # gradient as it passes them; keeping them all to the end of the sweep
    # (and a relu mask, a T-deep r * h and a padded input copy per op)
    # reads 21.8 MB.
    import gc
    import tracemalloc

    config = ForecasterConfig(v=1)
    params = init_forecaster(config)
    rng = np.random.default_rng(0)
    windows, targets = rng.normal(size=(32, config.T, 1)), rng.normal(size=(config.L, 32, 1))

    def step():
        with Tape():
            backward(mse_loss(forecast_batch(windows, params, config), targets))
        params.zero_grad()

    step()
    gc.collect()
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 17e6, f"one default train step peaked at {peak / 1e6:.1f} MB"


def _predict_rows_equal_one_batch(config, sizes):
    """predict_windows against one forecast_batch of all N windows, the
    call it made for every N up to 256 before it split at 64."""
    params = init_forecaster(config)
    rng = np.random.default_rng(4)
    windows = [
        ForecastWindow(rng.normal(size=(config.T, config.v)), rng.normal(size=(config.L, config.v)))
        for _ in range(max(sizes))
    ]
    for n in sizes:
        whole = np.swapaxes(forecast_batch(np.stack([w.input for w in windows[:n]]), params, config).values, 0, 1)
        assert predict_windows(params, config, windows[:n]).tobytes() == whole.tobytes(), f"N = {n}"


def test_predict_windows_rows_equal_one_batch_ablation_config():
    _predict_rows_equal_one_batch(default_ablation_model_config(), range(1, 201))


@pytest.mark.slow
def test_predict_windows_rows_equal_one_batch_default_config():
    _predict_rows_equal_one_batch(ForecasterConfig(v=1), range(1, 201))


def test_predict_windows_chunks_at_the_default_config():
    # a chunk of the 32 .. 64 windows predict_windows makes, at N that leave
    # a last chunk of 1, 2, 18 and 31 windows before it is merged
    _predict_rows_equal_one_batch(ForecasterConfig(v=1), (65, 66, 82, 95, 129))


# ---------------------------------------------------------------------------
# sliding forecast


def _persistence_params(config):
    params = init_forecaster(config)
    params.heads.w.values[...] = 0.0
    params.heads.b.values[...] = 0.0
    params.shortcut.w.values[...] = 0.0
    params.shortcut.w.values[-1, :] = 1.0  # repeat the last observation
    params.shortcut.b.values[...] = 0.0
    return params


def test_sliding_forecast_single_call_base_case():
    config = ForecasterConfig(v=1, T=8, L=2, seed=2, **TINY_MODEL)
    params = init_forecaster(config)
    series = np.random.default_rng(10).normal(size=(30, 1))
    direct = forecast(series[4:12], params, config).values
    slid = sliding_forecast(params, config, series, start=12, total_steps=2)
    assert np.array_equal(direct, slid)


def test_sliding_forecast_oracle_fixed_point():
    config = ForecasterConfig(v=1, T=8, L=1, seed=2, **TINY_MODEL)
    params = _persistence_params(config)
    series = np.full((40, 1), 2.5)
    out = sliding_forecast(params, config, series, start=20, total_steps=15)
    assert np.max(np.abs(out - 2.5)) < 1e-12


def test_sliding_forecast_never_reads_hidden_future():
    config = ForecasterConfig(v=1, T=8, L=2, seed=2, **TINY_MODEL)
    params = init_forecaster(config)
    rng = np.random.default_rng(11)
    series = rng.normal(size=(40, 1))
    base = sliding_forecast(params, config, series, start=16, total_steps=10)
    tampered = series.copy()
    tampered[16:] = rng.normal(size=(24, 1)) * 100.0
    out = sliding_forecast(params, config, tampered, start=16, total_steps=10)
    assert np.array_equal(base, out)


def test_sliding_forecast_rejects_short_context():
    config = ForecasterConfig(v=1, T=8, L=1, seed=2, **TINY_MODEL)
    params = init_forecaster(config)
    with pytest.raises(ValueError):
        sliding_forecast(params, config, np.zeros((30, 1)), start=7, total_steps=3)


def test_sliding_forecast_rejects_start_beyond_the_series():
    config = ForecasterConfig(v=1, T=8, L=1, seed=2, **TINY_MODEL)
    params = init_forecaster(config)
    with pytest.raises(ValueError, match="start=40.*series length 30"):
        sliding_forecast(params, config, np.zeros((30, 1)), start=40, total_steps=3)


def test_sliding_forecast_rejects_a_series_shorter_than_the_window():
    config = ForecasterConfig(v=1, T=8, L=1, seed=2, **TINY_MODEL)
    params = init_forecaster(config)
    with pytest.raises(ValueError, match="start=8.*series length 5"):
        sliding_forecast(params, config, np.zeros((5, 1)), start=8, total_steps=3)


def test_sliding_forecast_rejects_a_non_finite_context():
    config = ForecasterConfig(v=1, T=8, L=1, seed=2, **TINY_MODEL)
    params = init_forecaster(config)
    series = np.zeros((30, 1))
    series[13] = np.nan
    with pytest.raises(ValueError, match="index 13"):
        sliding_forecast(params, config, series, start=16, total_steps=3)


def test_predict_windows_rejects_empty_input():
    config = ForecasterConfig(v=1, T=8, L=1, seed=2, **TINY_MODEL)
    params = init_forecaster(config)
    with pytest.raises(ValueError, match="empty"):
        predict_windows(params, config, [])


def test_train_config_is_exported():
    import tscast

    assert "TrainConfig" in tscast.__all__
    assert tscast.TrainConfig is TrainConfig
