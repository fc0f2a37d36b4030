"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``. The two real-dataset
criteria need CSV files under data/ (see README) and skip with an
explicit message when the files are absent.
"""

import itertools
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

from tscast import autodiff as ad
from tscast.autodiff import Tape, backward, causal_conv1d, constant, finite_diff_grad, mean_all
from tscast.cli import ingest_csv, run
from tscast.metrics import dtw_bruteforce, dtw_exact, fastdtw
from tscast.model import (
    ForecasterConfig,
    conv_features,
    forecast,
    init_forecaster,
    ridge_fit,
)
from tscast.preprocess import (
    SeriesFrame,
    apply_normalizer,
    blocked_kfold,
    build_windows,
    downsample_avg,
    fit_normalizer,
    gaussian_kernel,
    invert_normalizer,
    preprocess_frame,
)
from tscast.synth import SynthSpec, ablation_run
from tscast.train import TrainConfig, cross_validate, predict_windows, train_model

from _checks import gradcheck

DATA_DIR = Path(__file__).resolve().parent.parent / "data"


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


# ---------------------------------------------------------------------------


def test_criterion_1_gradient_suite():
    with criterion(1, "gradients match finite differences within rel 1e-4, under 1 minute"):
        t0 = time.time()
        rng = np.random.default_rng(101)

        def param(*shape):
            return ad.Tensor(rng.normal(size=shape), requires_grad=True)

        # every differentiable operation, randomized small shapes
        a, b = param(4, 3), param(3, 5)
        r = constant(rng.normal(size=(4, 5)))
        gradcheck(lambda: mean_all(ad.matmul(a, b) * r), [a, b])

        m, x = param(5, 4), param(4, 1)
        rm = constant(rng.normal(size=(5, 1)))
        gradcheck(lambda: mean_all(ad.matmul(m, x) * rm), [m, x])

        cx, cw, cb = param(1, 3, 6), param(2, 3, 3), param(2)
        rc = constant(rng.normal(size=(1, 2, 6)))
        gradcheck(lambda: mean_all(causal_conv1d(cx, cw, cb) * rc), [cx, cw, cb])

        for op in (ad.relu, ad.sigmoid, ad.tanh):
            px = param(4, 5)
            pr = constant(rng.normal(size=(4, 5)))
            gradcheck(lambda op=op, px=px, pr=pr: mean_all(op(px) * pr), [px])

        gx = param(2, 3, 4)
        gw, gu, gb = param(6, 3), param(6, 2), param(6)  # gate rows stacked in z, r, h order
        rg = constant(rng.normal(size=(2, 2)))
        gradcheck(lambda: mean_all(ad.gru_sequence(gx, gw, gu, gb) * rg), [gx, gw, gu, gb])

        e1, e2 = param(3, 4), param(3, 4)
        re = constant(rng.normal(size=(3, 4)))
        gradcheck(lambda: mean_all((e1 * e2 + e1 - 2.0 * e2) * re), [e1, e2])

        # the full forecaster at the stated size
        config = ForecasterConfig(v=2, T=8, L=2, n_filters=3, kernel_size=3, gru_hidden=4, seed=7)
        params = init_forecaster(config)
        for _, t in params.named_parameters():
            t.values[...] += 0.05 * rng.normal(size=t.shape)  # move off the relu kinks
        window = rng.normal(size=(8, 2))
        target = constant(rng.normal(size=(2, 2)))

        def full_model():
            diff = forecast(window, params, config) - target
            return mean_all(diff * diff)

        gradcheck(full_model, params.parameters())
        elapsed = time.time() - t0
        assert elapsed < 60.0, f"gradient suite took {elapsed:.1f}s"


def test_criterion_2_causality_suite():
    with criterion(2, "conv outputs before t are bit-identical under future perturbations"):
        rng = np.random.default_rng(102)
        config = ForecasterConfig(v=2, T=16, L=1, n_filters=3, kernel_size=5, gru_hidden=4, seed=9)
        params = init_forecaster(config)
        w = constant(rng.normal(size=(3, 2, 5)))
        b = constant(rng.normal(size=3))
        for _ in range(100):
            x = rng.normal(size=(3, 2, 16))  # a batch of three (v, T) windows
            t = int(rng.integers(1, 16))
            bumped = x.copy()
            bumped[..., t:] += rng.normal(size=(3, 2, 16 - t)) * 10.0 ** rng.integers(-3, 4)

            conv_base = causal_conv1d(constant(x), w, b).values
            conv_bump = causal_conv1d(constant(bumped), w, b).values
            assert np.array_equal(conv_base[..., :t], conv_bump[..., :t])

            feat_base = conv_features(x, params.full).values
            feat_bump = conv_features(bumped, params.full).values
            assert np.array_equal(feat_base[..., :t], feat_bump[..., :t])


def test_criterion_3_dtw_oracles():
    with criterion(3, "exact DTW == brute force; fastdtw bounds and accuracy"):
        # exhaustive pairs of lengths <= 6 over a fixed random value set
        rng = np.random.default_rng(103)
        values = rng.normal(size=20)
        for n, m in itertools.product(range(1, 7), repeat=2):
            a, b = values[:n], values[20 - m :]
            assert dtw_exact(a, b) == pytest.approx(dtw_bruteforce(a, b), abs=1e-12)

        # full radius reproduces the exact cost
        for _ in range(50):
            n, m = rng.integers(2, 50, size=2)
            a, b = rng.normal(size=n), rng.normal(size=m)
            assert fastdtw(a, b, int(max(n, m))) == pytest.approx(dtw_exact(a, b), abs=1e-12)

        # radius-1 approximation: never below exact, within 10% on >= 95%
        # of 1000 random pairs. The pairs are Gaussian-smoothed random
        # walks: every series in this artifact is smoothed before DTW sees
        # it, and iid-noise pairs defeat any multilevel scheme
        kernel = gaussian_kernel()

        def smoothed_walk(length):
            walk = np.cumsum(rng.normal(size=length))
            if length < 5:
                return walk
            return np.convolve(np.pad(walk, 2, mode="reflect"), kernel, mode="valid")

        hits = 0
        trials = 1000
        for _ in range(trials):
            n, m = rng.integers(2, 65, size=2)
            a, b = smoothed_walk(n), smoothed_walk(m)
            exact = dtw_exact(a, b)
            approx = fastdtw(a, b, 1)
            assert approx >= exact - 1e-12
            hits += approx <= 1.10 * exact + 1e-12
        assert hits / trials >= 0.95, f"only {hits}/{trials} within 10%"


def test_criterion_4_ar_exactness():
    with criterion(4, "analytic shortcut is exact on affine data; training reaches MSE < 1e-3"):
        # (a) heads zeroed, shortcut set to exact extrapolation weights
        config = ForecasterConfig(v=2, T=8, L=3, n_filters=2, kernel_size=3, gru_hidden=3, seed=1)
        params = init_forecaster(config)
        params.heads.w.values[...] = 0.0
        params.heads.b.values[...] = 0.0
        w = np.zeros((config.ar_window, config.L))
        for t in range(1, config.L + 1):
            w[-1, t - 1] = 1.0 + t  # s_{T+t} = (1+t) s_T - t s_{T-1}
            w[-2, t - 1] = -t
        params.shortcut.w.values[...] = w
        params.shortcut.b.values[...] = 0.0

        steps = np.arange(40.0)
        series = np.stack([0.3 * steps + 1.0, -0.7 * steps + 5.0], axis=1)
        pred = forecast(series[:8], params, config).values
        truth = series[8:11]
        assert np.max(np.abs(pred - truth)) < 1e-10

        # (b) end-to-end training on a noiseless affine series
        t_axis = np.arange(60.0)
        frame = SeriesFrame(["y"], (0.1 * t_axis - 1.0)[:, None])
        windows = build_windows(frame, T=8, L=1)
        train_cfg = TrainConfig(learning_rate=2e-2, epochs=100, batch_size=8, patience=100, seed=3)
        model_cfg = ForecasterConfig(v=1, T=8, L=1, n_filters=2, kernel_size=3, gru_hidden=3, seed=3)
        trained, history = train_model(windows, model_cfg, train_cfg)
        assert len(history) <= 100
        preds = predict_windows(trained, model_cfg, windows)
        targets = np.stack([wd.target for wd in windows])
        mse = float(np.mean((preds - targets) ** 2))
        assert mse < 1e-3, f"one-step MSE {mse:.2e}"


@pytest.mark.slow
def test_criterion_5_ablation_reproduction():
    with criterion(5, "shortcut wins 20-step MSE on >= 4/5 seeds and mean DTW, under 15 min"):
        t0 = time.time()
        mse_wins = 0
        dtw_with, dtw_without = [], []
        for seed in range(5):
            result = ablation_run(SynthSpec(seed=seed), eval_steps=20)
            mse_wins += result.with_shortcut.mean_mse < result.without_shortcut.mean_mse
            dtw_with.append(result.with_shortcut.mean_dtw)
            dtw_without.append(result.without_shortcut.mean_dtw)
        elapsed = time.time() - t0
        assert mse_wins >= 4, f"shortcut won only {mse_wins}/5 seeds"
        assert np.mean(dtw_with) < np.mean(dtw_without)
        assert elapsed < 900.0, f"ablation took {elapsed:.0f}s"


def _load_dataset(name: str) -> SeriesFrame | None:
    path = DATA_DIR / name
    if not path.exists():
        return None
    try:
        return ingest_csv(path)
    except Exception:
        return ingest_csv(path, timestamp_col=True)


def test_criterion_6_dataset_reproduction():
    melbourne = _load_dataset("melbourne.csv")
    sml = _load_dataset("sml2010.csv")
    if melbourne is None or sml is None:
        pytest.skip(
            "criterion 6 needs data/melbourne.csv and data/sml2010.csv; "
            "the build environment has no network access to fetch them (see README)"
        )
    with criterion(6, "real-dataset one-step MSE inside the loose envelopes"):
        train_cfg = TrainConfig(epochs=40, patience=6, seed=0)
        mel_processed, _ = preprocess_frame(melbourne)
        report = cross_validate(
            mel_processed,
            ForecasterConfig(v=melbourne.n_variables, T=64, seed=0),
            train_cfg,
            k=5,
            stride=2,
        )
        assert report.mean("mse") <= 2.7e-2, f"melbourne MSE {report.mean('mse'):.4g}"

        sml_processed, _ = preprocess_frame(sml)
        report = cross_validate(
            sml_processed,
            ForecasterConfig(v=sml.n_variables, T=64, seed=0),
            train_cfg,
            k=5,
            stride=2,
        )
        assert report.mean("mse") <= 2e-3, f"sml2010 MSE {report.mean('mse'):.4g}"


def test_criterion_7_protocol_invariants():
    with criterion(7, "fold partition, normalization round trip, downsample examples"):
        for n, k in ((10, 5), (11, 5), (37, 5), (12, 3)):
            folds = blocked_kfold(n, k)
            tests = [test for _, test in folds]
            assert np.array_equal(np.sort(np.concatenate(tests)), np.arange(n))
            sizes = [len(t) for t in tests]
            assert max(sizes) - min(sizes) <= 1
            for train_idx, test_idx in folds:
                assert len(np.intersect1d(train_idx, test_idx)) == 0

        rng = np.random.default_rng(107)
        frame = SeriesFrame(["a", "b"], rng.normal(size=(100, 2)) * 9.0 - 4.0)
        stats = fit_normalizer(frame)
        back = invert_normalizer(apply_normalizer(frame, stats), stats)
        assert np.max(np.abs(back.data - frame.data)) < 1e-12

        assert np.array_equal(downsample_avg(np.array([1.0, 2.0, 3.0, 4.0]), 2), [1.5, 3.5])
        assert np.array_equal(downsample_avg(np.array([1.0, 2.0, 3.0, 4.0]), 4), [2.5])


def test_criterion_8_crossval_determinism(tmp_path):
    with criterion(8, "two crossval runs produce byte-identical metrics tables"):
        rng = np.random.default_rng(108)
        t = np.arange(60.0)
        data = np.sin(t / 3.0) + 0.02 * t + 0.05 * rng.normal(size=60)
        csv_path = tmp_path / "series.csv"
        csv_path.write_text("y\n" + "\n".join(repr(float(x)) for x in data) + "\n")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(
            '{"model": {"n_filters": 2, "kernel_size": 3, "gru_hidden": 3},'
            ' "train": {"epochs": 2, "batch_size": 16}}'
        )

        tables = []
        for name in ("a", "b"):
            out = tmp_path / name
            code = run([
                "crossval", "--input", str(csv_path), "--out-dir", str(out),
                "--window", "8", "--folds", "3", "--seed", "5", "--stride", "2",
                "--horizons", "3", "--config", str(cfg_path),
            ])
            assert code == 0
            tables.append((out / "metrics.csv").read_bytes())
        assert tables[0] == tables[1]


def test_criterion_9_ridge_baseline():
    with criterion(9, "ridge normal-equation residual < 1e-8 on 100 random instances"):
        rng = np.random.default_rng(109)
        for _ in range(100):
            n, p, m = int(rng.integers(5, 40)), int(rng.integers(1, 10)), int(rng.integers(1, 5))
            X = rng.normal(size=(n, p)) * rng.uniform(0.5, 3.0)
            y = rng.normal(size=(n, m))
            lam = float(rng.uniform(1e-3, 10.0))
            w, intercept = ridge_fit(X, y, lam)
            xc = X - X.mean(axis=0)
            yc = y - y.mean(axis=0)
            residual = (xc.T @ xc + lam * np.eye(p)) @ w - xc.T @ yc
            assert np.max(np.abs(residual)) < 1e-8


def test_criterion_9b_ridge_on_sml2010():
    sml = _load_dataset("sml2010.csv")
    if sml is None:
        pytest.skip(
            "criterion 9 dataset part needs data/sml2010.csv; "
            "not fetchable in this environment (see README)"
        )
    with criterion(9, "ridge one-step MSE on SML2010 within 3x of 0.517e-2"):
        processed, _ = preprocess_frame(sml)
        windows = build_windows(processed, T=64, L=1)
        folds = blocked_kfold(len(windows), 5)
        fold_mse = []
        for train_idx, test_idx in folds:
            X_train = np.stack([windows[i].input.reshape(-1) for i in train_idx])
            y_train = np.stack([windows[i].target.reshape(-1) for i in train_idx])
            X_test = np.stack([windows[i].input.reshape(-1) for i in test_idx])
            y_test = np.stack([windows[i].target.reshape(-1) for i in test_idx])
            w, intercept = ridge_fit(X_train, y_train, lam=1.0)
            pred = X_test @ w + intercept
            fold_mse.append(float(np.mean((pred - y_test) ** 2)))
        assert float(np.mean(fold_mse)) <= 3.0 * 0.517e-2