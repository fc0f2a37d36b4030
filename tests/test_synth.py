from dataclasses import replace

import numpy as np
import pytest

from tscast import synth
from tscast.model import ForecasterConfig
from tscast.preprocess import SeriesFrame, build_windows, preprocess_frame
from tscast.synth import (
    SynthSpec,
    ablation_run,
    corpus_to_frame,
    evaluate_arm,
    generate,
)
from tscast.train import TrainConfig, train_model

FAST_MODEL = ForecasterConfig(v=1, T=16, L=4, n_filters=2, kernel_size=3, gru_hidden=3, seed=0)
FAST_TRAIN = TrainConfig(epochs=2, batch_size=64, seed=0)
SMALL_SPEC = SynthSpec(n_series=8, length=64, seed=0)


def test_generate_deterministic():
    a = generate(SynthSpec(seed=42))
    b = generate(SynthSpec(seed=42))
    for sa, sb in zip(a, b):
        assert np.array_equal(sa.values, sb.values)
        assert sa.period == sb.period


def test_generate_default_corpus_shape():
    corpus = generate(SynthSpec())
    assert len(corpus) == 80
    assert all(s.values.shape == (120,) for s in corpus)


def test_components_sum_exactly():
    for s in generate(SynthSpec(n_series=10, seed=1)):
        assert np.array_equal(s.values, s.trend + s.periodic + s.noise)


def test_generated_parameters_respect_ranges():
    spec = SynthSpec(n_series=40, seed=2)
    for s in generate(spec):
        assert spec.slope_range[0] <= s.slope <= spec.slope_range[1]
        assert spec.period_range[0] <= s.period <= spec.period_range[1]
        assert spec.amplitude_range[0] <= s.amplitude <= spec.amplitude_range[1]


def test_generator_bound():
    spec = SynthSpec(n_series=30, seed=3)
    bound = (
        max(abs(spec.slope_range[0]), abs(spec.slope_range[1])) * spec.length
        + spec.amplitude_range[1]
        + 6.0 * spec.noise_std
    )
    for s in generate(spec):
        assert np.max(np.abs(s.values)) <= bound


def test_noise_free_generation():
    spec = SynthSpec(n_series=4, noise_std=0.0, seed=4)
    for s in generate(spec):
        assert np.array_equal(s.noise, np.zeros(spec.length))


def test_spec_validation():
    with pytest.raises(ValueError):
        SynthSpec(length=4)
    with pytest.raises(ValueError):
        SynthSpec(period_range=(30.0, 8.0))
    with pytest.raises(ValueError):
        SynthSpec(noise_std=-1.0)
    with pytest.raises(ValueError):
        SynthSpec(period_range=(0.0, 8.0))
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^noise_std must be a finite number >= 0"):
            SynthSpec(noise_std=bad)
    for name in ("slope_range", "period_range", "amplitude_range"):
        for ends in ((np.inf, np.inf), (-np.inf, 1.0), (1.0, np.nan)):
            with pytest.raises(ValueError, match=f"^{name} must have finite ends"):
                SynthSpec(**{name: ends})


def test_corpus_to_frame():
    corpus = generate(SynthSpec(n_series=5, length=40, seed=5))
    frame = corpus_to_frame(corpus)
    assert frame.data.shape == (40, 5)
    assert frame.names == ["s000", "s001", "s002", "s003", "s004"]
    assert np.array_equal(frame.data[:, 2], corpus[2].values)


# ---------------------------------------------------------------------------
# ablation harness


def _prepared(corpus, n_train):
    frames = [preprocess_frame(SeriesFrame(["y"], s.values[:, None]))[0] for s in corpus]
    windows = [
        w for f in frames[:n_train] for w in build_windows(f, FAST_MODEL.T, FAST_MODEL.L, synth.WINDOW_STRIDE)
    ]
    return windows, [f.data for f in frames[n_train:]]


def test_evaluate_arm_control_identical_runs():
    windows, held_out = _prepared(generate(SMALL_SPEC), n_train=6)
    a, preds_a = evaluate_arm(windows, held_out, FAST_MODEL, FAST_TRAIN, eval_steps=8)
    b, preds_b = evaluate_arm(windows, held_out, FAST_MODEL, FAST_TRAIN, eval_steps=8)
    assert a.mse_per_series == b.mse_per_series
    assert a.dtw_per_series == b.dtw_per_series
    assert len(preds_a) == len(held_out)
    for pa, pb in zip(preds_a, preds_b):
        assert pa.shape == (8, 1)
        assert np.array_equal(pa, pb)


def test_ablation_prepares_the_corpus_once(monkeypatch):
    calls = {"preprocess": 0, "build_windows": 0}
    windows_seen = []

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def recording_train_model(windows, model_config, train_config):
        windows_seen.append(windows)
        return train_model(windows, model_config, train_config)

    monkeypatch.setattr(synth, "preprocess_frame", counting("preprocess", synth.preprocess_frame))
    monkeypatch.setattr(synth, "build_windows", counting("build_windows", synth.build_windows))
    monkeypatch.setattr(synth, "train_model", recording_train_model)
    ablation_run(SMALL_SPEC, FAST_MODEL, replace(FAST_TRAIN, epochs=1), eval_steps=8)

    n_holdout = max(1, round(0.2 * SMALL_SPEC.n_series))
    assert calls == {"preprocess": SMALL_SPEC.n_series, "build_windows": SMALL_SPEC.n_series - n_holdout}
    assert len(windows_seen) == 2
    assert windows_seen[0] is windows_seen[1]


def test_ablation_traces_pair_the_arms():
    spec = SynthSpec(n_series=6, length=40, seed=2)
    result = ablation_run(spec, FAST_MODEL, replace(FAST_TRAIN, epochs=1), eval_steps=8)
    windows, held_out = _prepared(generate(spec), n_train=5)
    arm_on, preds_on = evaluate_arm(windows, held_out, FAST_MODEL, replace(FAST_TRAIN, epochs=1), eval_steps=8)
    assert arm_on.mse_per_series == result.with_shortcut.mse_per_series
    assert [t["series_index"] for t in result.traces] == [5]
    assert np.array_equal(result.traces[0]["truth"], held_out[0][:, 0])
    assert np.array_equal(result.traces[0]["with_shortcut"], preds_on[0][:, 0])


def test_ablation_trains_one_model_per_arm_in_table_order(monkeypatch):
    base = replace(FAST_MODEL, use_ar_shortcut=False, seed=3)
    trained_on = []

    def spy(windows, held_out, model_config, train_config, eval_steps):
        trained_on.append(model_config)
        return evaluate_arm(windows, held_out, model_config, train_config, eval_steps)

    monkeypatch.setattr(synth, "evaluate_arm", spy)
    result = ablation_run(SMALL_SPEC, base, replace(FAST_TRAIN, epochs=1), eval_steps=8)
    names = [name for name, _ in synth.ARMS]
    assert list(result.arms) == names
    assert trained_on == [replace(base, **fields) for _, fields in synth.ARMS]
    assert all(list(trace) == ["series_index", "start", "truth", *names] for trace in result.traces)
    assert result.with_shortcut is result.arms["with_shortcut"]
    assert result.without_shortcut is result.arms["without_shortcut"]


def test_ablation_rejects_a_corpus_with_no_training_series():
    with pytest.raises(ValueError, match="no training series"):
        ablation_run(SynthSpec(n_series=1, length=40), FAST_MODEL, FAST_TRAIN, eval_steps=8)


@pytest.mark.parametrize("eval_steps", [0, -1, 25, 30])
def test_ablation_rejects_a_bad_eval_steps_before_training(monkeypatch, eval_steps):
    calls = []
    monkeypatch.setattr(synth, "train_model", lambda *args: calls.append(args))
    spec = SynthSpec(n_series=6, length=40, seed=2)  # at T=16, 1 ... 24 steps fit
    if eval_steps < 1:
        message = f"^eval_steps must be an integer >= 1, got {eval_steps}$"
    else:
        message = f"^eval_steps={eval_steps} must lie between 1 and"
    with pytest.raises(ValueError, match=message):
        ablation_run(spec, FAST_MODEL, FAST_TRAIN, eval_steps=eval_steps)
    assert calls == []


def test_ablation_run_structure():
    result = ablation_run(SMALL_SPEC, FAST_MODEL, FAST_TRAIN, eval_steps=8)
    n_holdout = max(1, round(0.2 * SMALL_SPEC.n_series))
    assert len(result.with_shortcut.mse_per_series) == n_holdout
    assert len(result.traces) == n_holdout
    for trace in result.traces:
        assert trace["truth"].shape == (SMALL_SPEC.length,)
        assert trace["with_shortcut"].shape == (8,)
        assert trace["without_shortcut"].shape == (8,)
        assert trace["start"] == SMALL_SPEC.length - 8


def test_ablation_pure_trend_shortcut_solves_it():
    # zero-noise, zero-amplitude corpus: every series is a straight line,
    # which the shortcut extrapolates almost exactly after training
    spec = SynthSpec(
        n_series=8,
        length=64,
        amplitude_range=(0.0, 0.0),
        noise_std=0.0,
        slope_range=(0.02, 0.05),
        seed=6,
    )
    # least-squares oracle: a plain linear fit of next value on the
    # last 5 (what the shortcut can express) solves this corpus exactly
    corpus = generate(spec)
    rows, targets = [], []
    for s in corpus:
        z = (s.values - s.values.mean()) / s.values.std()
        for i in range(5, len(z)):
            rows.append(z[i - 5 : i])
            targets.append(z[i])
    coeffs, residual, *_ = np.linalg.lstsq(
        np.column_stack([np.asarray(rows), np.ones(len(rows))]), np.asarray(targets), rcond=None
    )
    fitted = np.column_stack([np.asarray(rows), np.ones(len(rows))]) @ coeffs
    assert float(np.mean((fitted - np.asarray(targets)) ** 2)) < 1e-20

    train = TrainConfig(learning_rate=2e-2, epochs=40, batch_size=32, patience=40, seed=6)
    result = ablation_run(spec, FAST_MODEL, train, eval_steps=8)
    assert result.with_shortcut.mean_mse < 1e-2
