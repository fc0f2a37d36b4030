"""Per-layer timings for the traced run, taken by calling tscast's public
functions one layer at a time at a workload's shapes.

A train step is timed as ``forecast_batch`` + ``mse_loss`` under a Tape,
then ``backward``, then ``adam_step``. An untaped ``forecast_batch`` on the
same batch gives the tape overhead, and spans around its ``conv_features``
and ``gru_encode`` calls give each stream's forward; the rest of that call
is the heads and the AR shortcut. Each stream's backward is timed on a tape
holding just that layer; the GRU gets a live input that requires grad, as
in training, so its backward pays for the input gradient too. Repetitions
interleave all pieces and every figure is a median.
"""

from __future__ import annotations

from statistics import median
from time import perf_counter

import numpy as np

from tscast import autodiff, metrics, model, train

STREAMS = (("full", 1), ("half", 2), ("quarter", 4))


def _ms(fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    return out, (perf_counter() - t0) * 1e3


def _backward_ms(build, rng) -> float:
    """Backward time of a tape holding one layer, reduced to a scalar by a
    fixed random projection so every output element gets a gradient."""
    with autodiff.Tape():
        out = build()
        proj = autodiff.constant(rng.standard_normal(out.shape))
        loss = autodiff.mean_all(out * proj)
        _, ms = _ms(autodiff.backward, loss)
    return ms


def _stream_input(x: np.ndarray, factor: int) -> np.ndarray:
    """(B, T, v) windows at 1/factor resolution, channel-major as (B, v, T_r)."""
    b, t, v = x.shape
    block = x if factor == 1 else x.reshape(b, t // factor, factor, v).mean(axis=2)
    return np.swapaxes(block, 1, 2)


def _step_row(rec, params, cfg, train_cfg, state, x, y, rng) -> dict:
    row = {}
    opt = params.parameters()
    with autodiff.Tape() as tape:
        pred, row["fwd_taped"] = _ms(model.forecast_batch, x, params, cfg)
        loss, row["loss"] = _ms(train.mse_loss, pred, y)
        row["records"] = len(tape)
        _, row["bwd"] = _ms(autodiff.backward, loss)
    _, row["adam"] = _ms(train.adam_step, opt, [p.grad for p in opt], state, train_cfg)
    params.zero_grad()

    # untaped forward; its streams are timed by spans inside the same call,
    # told apart by their sequence length
    stream_of = {cfg.T // factor: name for name, factor in STREAMS}
    first = len(rec.spans)
    with rec.patch({"model.conv_features": _seq_len, "model.gru_encode": _seq_len}):
        _, row["fwd"] = _ms(model.forecast_batch, x, params, cfg)
    inner = rec.spans[first:]
    for name, _ in STREAMS:
        row[f"{name}.conv_fwd"] = row[f"{name}.gru_fwd"] = 0.0
    for s in inner:
        row[f"{stream_of[s.count]}.{'conv' if s.name == 'model.conv_features' else 'gru'}_fwd"] += s.ms
    row["head_ar"] = row["fwd"] - sum(s.ms for s in inner)

    for name, factor in STREAMS:
        stream = getattr(params, name)
        xs = _stream_input(x, factor)
        row[f"{name}.conv_bwd"] = _backward_ms(lambda: model.conv_features(xs, stream), rng)
        live = autodiff.Tensor(model.conv_features(xs, stream).values, requires_grad=True)
        row[f"{name}.gru_bwd"] = _backward_ms(lambda: model.gru_encode(live, stream.gru), rng)
    params.zero_grad()
    return row


def _seq_len(args, result) -> int:
    return args[0].shape[-1]


def _median_ms(fn, *args, reps: int = 3) -> float:
    return median(_ms(fn, *args)[1] for _ in range(reps))


def profile(rec, wl, reps: int, variant: int, out_dir) -> tuple[dict, dict]:
    """Per-layer metric values and the reconciliation of the traced step."""
    cfg, train_cfg, windows = wl.cfg, wl.train_cfg, wl.windows
    rng = np.random.default_rng(variant)
    params = model.init_forecaster(cfg)
    state = train.AdamState.for_params(params.parameters())
    bsz = train_cfg.batch_size
    inputs = np.stack([w.input for w in windows])
    targets = np.swapaxes(np.stack([w.target for w in windows]), 0, 1)  # (L, N, v)
    n_batches = max(1, len(windows) // bsz)

    rows = []
    for i in range(reps):
        sl = slice((i % n_batches) * bsz, (i % n_batches + 1) * bsz)
        rows.append(_step_row(rec, params, cfg, train_cfg, state, inputs[sl], targets[:, sl], rng))
    med = {k: median(r[k] for r in rows) for k in rows[0]}
    step = median(r["fwd_taped"] + r["loss"] + r["bwd"] + r["adam"] for r in rows)

    out = {"autodiff.records_per_step": rows[0]["records"], "autodiff.backward_ms_per_step": med["bwd"]}
    out["autodiff.tape_overhead_ms_per_step"] = med["fwd_taped"] - med["fwd"]
    streams = 0.0
    for name, _ in STREAMS:
        for part in ("conv_fwd", "conv_bwd", "gru_fwd", "gru_bwd"):
            out[f"model.{name}.{part}_ms"] = med[f"{name}.{part}"]
            streams += med[f"{name}.{part}"]
    out["model.head_ar_ms"] = med["head_ar"]
    out["train.adam_ms_per_step"] = med["adam"]
    out["train.mse_loss_ms_per_step"] = med["loss"]

    explained = streams + out["model.head_ar_ms"] + out["autodiff.tape_overhead_ms_per_step"] + med["adam"] + med["loss"]
    out["trace.step_ms"] = step
    out["trace.unexplained_ms"] = step - explained
    out["trace.unexplained_pct"] = 100.0 * (step - explained) / step

    chunk = inputs[:256]
    out["model.forecast_batch_ms"] = _median_ms(model.forecast_batch, chunk, params, cfg)
    out["model.forecast_ms"] = median(_ms(model.forecast, windows[i].input, params, cfg)[1] for i in range(0, len(windows), max(1, len(windows) // 30)))
    path = out_dir / f"probe-{wl.name}-{variant}.ckpt.json"
    model.save_checkpoint(path, params, cfg)
    out["model.load_checkpoint_ms"] = _median_ms(model.load_checkpoint, path, reps=5)
    out["train.validation_ms_per_epoch"] = _median_ms(train.predict_windows, params, cfg, train.validation_split(windows)[1])

    exact_len, fast_len = wl.dtw_lengths
    walk = rng.standard_normal((2, max(exact_len, fast_len))).cumsum(axis=1)
    out["metrics.dtw_exact_ms"] = _median_ms(metrics.dtw_exact, walk[0, :exact_len], walk[1, :exact_len])
    out["metrics.fastdtw_ms"] = _median_ms(metrics.fastdtw, walk[0, :fast_len], walk[1, :fast_len], 1)

    detail = {
        "reps": reps,
        "batch": [int(inputs[:bsz].shape[0]), cfg.T, cfg.v],
        "step_parts_ms": {k: round(med[k], 4) for k in ("fwd_taped", "fwd", "loss", "bwd", "adam")},
        "explained_ms": round(explained, 4),
        "forecast_batch_chunk": int(chunk.shape[0]),
        "dtw_probe_lengths": {"exact": exact_len, "fastdtw": fast_len},
    }
    return out, detail
