"""Command-line surface: dataset ingestion, training, evaluation,
cross-validation, forecasting, and the synthetic-data experiments.

Every run writes a ``manifest.json`` into the output directory recording
the command, the effective configuration, the seeds, sha256 digests of
the input files, the artifact paths, and wall-clock timings. Re-running
with the same configuration and seeds reproduces every numeric artifact
byte for byte (the manifest's timings are the one exception).

Result tables are delimiter-separated text. Schemas:

- history.csv:   epoch,train_mse,val_mse        (one row per epoch)
- metrics.csv:   fold,<metric>,...              (one row per fold, then
                                                 ``mean`` and ``std`` rows)
- forecast.csv:  step,variable,value            (long format)
- traces.csv:    trace,series,step,value        (long format; series is
                                                 truth / with_shortcut /
                                                 without_shortcut)
- ablation.csv:  seed,arm,mean_mse,mean_dtw
- corpus.csv:    one synthetic series per column

Floats are printed with shortest round-trip repr, so files parse back to
the exact binary values.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
import time
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .model import ForecasterConfig, load_checkpoint, save_checkpoint
from .preprocess import SeriesFrame, build_windows, preprocess_frame
from .synth import (
    SynthSpec,
    ablation_run,
    corpus_to_frame,
    default_ablation_model_config,
    default_ablation_train_config,
    generate,
)
from .train import (
    TrainConfig,
    cross_validate,
    predict_windows,
    sliding_forecast,
    train_model,
    validation_split,
)

__all__ = ["ingest_csv", "main", "run"]


class CliError(Exception):
    """User-facing failure with a diagnostic message."""


# ---------------------------------------------------------------------------
# ingestion


def ingest_csv(path, delimiter: str = ",", header: bool = True, timestamp_col: bool = False) -> SeriesFrame:
    """Parse a rectangular numeric text file into a SeriesFrame.

    ``header`` reads variable names from the first row; ``timestamp_col``
    drops the first column (timestamps are not modeled). Any non-numeric
    or missing cell is an error naming its row and column.
    """
    path = Path(path)
    if len(delimiter) != 1:
        raise CliError(f"--delimiter must be a single character, got {delimiter!r}")
    if not path.exists():
        raise CliError(f"{path}: no such file")
    names: list[str] | None = None
    rows: list[list[float]] = []
    width: int | None = None
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for line_no, row in enumerate(reader, start=1):
            if not row:
                continue
            if timestamp_col:
                row = row[1:]
            if names is None and header:
                names = [cell.strip() for cell in row]
                width = len(names)
                continue
            if width is None:
                width = len(row)
            if len(row) != width:
                raise CliError(f"{path}:{line_no}: expected {width} columns, found {len(row)}")
            parsed = []
            for col_no, cell in enumerate(row, start=1):
                cell = cell.strip()
                if cell == "":
                    raise CliError(f"{path}:{line_no}: column {col_no} is missing a value")
                try:
                    value = float(cell)
                except ValueError:
                    raise CliError(
                        f"{path}:{line_no}: column {col_no} is not numeric: {cell!r}"
                    ) from None
                if not np.isfinite(value):
                    raise CliError(f"{path}:{line_no}: column {col_no} is not finite: {cell!r}")
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise CliError(f"{path}: no data rows")
    if names is None:
        names = [f"v{i}" for i in range(width)]
    try:
        return SeriesFrame(names, np.asarray(rows, dtype=np.float64))
    except ValueError as err:
        raise CliError(f"{path}: {err}") from None


# ---------------------------------------------------------------------------
# manifest and table helpers


def _sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


class RunManifest:
    def __init__(self, command: str, config: dict, seeds: dict):
        self.payload = {
            "command": command,
            "config": config,
            "seeds": seeds,
            "inputs": {},
            "artifacts": [],
            "timings": {},
        }
        self._t0 = time.time()

    def add_input(self, path) -> None:
        self.payload["inputs"][str(path)] = _sha256(path)

    def add_artifact(self, path) -> None:
        self.payload["artifacts"].append(str(path))

    def finish(self, out_dir: Path) -> Path:
        self.payload["timings"]["wall_seconds"] = round(time.time() - self._t0, 3)
        path = out_dir / "manifest.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path


def _fmt(x) -> str:
    return repr(float(x))


def write_table(path, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([cell if isinstance(cell, str) else _fmt(cell) for cell in row])


# ---------------------------------------------------------------------------
# configuration plumbing


def _load_config_file(path) -> dict:
    if path is None:
        return {}
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise CliError(f"cannot read config {path}: {err}") from None
    if not isinstance(payload, dict):
        raise CliError(f"{path}: config must be a JSON object")
    for section in ("model", "train"):
        if not isinstance(payload.get(section, {}), dict):
            raise CliError(f"{path}: config section {section!r} must be a JSON object")
    return payload


def _build_configs(args, n_variables: int) -> tuple[ForecasterConfig, TrainConfig]:
    file_cfg = _load_config_file(getattr(args, "config", None))
    model_kwargs = dict(file_cfg.get("model", {}))
    train_kwargs = dict(file_cfg.get("train", {}))

    model_kwargs["v"] = n_variables
    if getattr(args, "window", None) is not None:
        model_kwargs["T"] = args.window
    if getattr(args, "horizon", None) is not None:
        model_kwargs["L"] = args.horizon
    if getattr(args, "no_ar_shortcut", False):
        model_kwargs["use_ar_shortcut"] = False
    if getattr(args, "seed", None) is not None:
        model_kwargs["seed"] = args.seed
        train_kwargs["seed"] = args.seed
    if getattr(args, "epochs", None) is not None:
        train_kwargs["epochs"] = args.epochs
    try:
        return ForecasterConfig(**model_kwargs), TrainConfig(**train_kwargs)
    except (TypeError, ValueError) as err:
        raise CliError(f"invalid configuration: {err}") from None


def _int_list(flag: str, text: str) -> list[int]:
    try:
        return [int(s) for s in text.split(",") if s]
    except ValueError:
        raise CliError(f"{flag} takes comma-separated integers, got {text!r}") from None


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _ingest(args) -> SeriesFrame:
    return ingest_csv(
        args.input,
        delimiter=args.delimiter,
        header=not args.no_header,
        timestamp_col=args.timestamp_col,
    )


# ---------------------------------------------------------------------------
# subcommands


def _cmd_ingest_check(args) -> int:
    frame = _ingest(args)
    print(f"{args.input}: {frame.length} rows, {frame.n_variables} variables")
    print("variables:", ", ".join(frame.names))
    if args.out_dir is not None:
        out = _out_dir(args)
        manifest = RunManifest(
            "ingest-check", {"rows": frame.length, "variables": frame.names}, {}
        )
        manifest.add_input(args.input)
        manifest.finish(out)
    return 0


def _cmd_train(args) -> int:
    frame = _ingest(args)
    model_config, train_config = _build_configs(args, frame.n_variables)
    out = _out_dir(args)
    manifest = RunManifest(
        "train",
        {"model": asdict(model_config), "train": asdict(train_config), "stride": args.stride},
        {"model": model_config.seed, "train": train_config.seed},
    )
    manifest.add_input(args.input)

    processed, _ = preprocess_frame(frame)
    windows = build_windows(processed, model_config.T, model_config.L, args.stride)
    params, history = train_model(windows, model_config, train_config)

    ckpt = out / "checkpoint.json"
    save_checkpoint(ckpt, params, model_config)
    manifest.add_artifact(ckpt)

    hist_path = out / "history.csv"
    write_table(
        hist_path,
        ["epoch", "train_mse", "val_mse"],
        [[str(h["epoch"]), h["train_mse"], h["val_mse"]] for h in history],
    )
    manifest.add_artifact(hist_path)
    manifest.payload["final_val_mse"] = min((h["val_mse"] for h in history), default=None)
    manifest.finish(out)
    best = manifest.payload["final_val_mse"]
    print(f"trained {len(windows)} windows, best validation MSE {best}")
    print(f"artifacts in {out}")
    return 0


def _load_model(args, frame) -> tuple:
    """The checkpoint's parameters and config, checked against the input."""
    try:
        params, model_config = load_checkpoint(args.checkpoint)
    except OSError as err:
        raise CliError(f"cannot read checkpoint {args.checkpoint}: {err}") from None
    if model_config.v != frame.n_variables:
        raise CliError(
            f"checkpoint expects {model_config.v} variables, input has {frame.n_variables}"
        )
    return params, model_config


def _cmd_evaluate(args) -> int:
    frame = _ingest(args)
    params, model_config = _load_model(args, frame)
    out = _out_dir(args)
    manifest = RunManifest("evaluate", {"model": asdict(model_config)}, {"model": model_config.seed})
    manifest.add_input(args.input)
    manifest.add_input(args.checkpoint)

    processed, _ = preprocess_frame(frame)
    windows = build_windows(processed, model_config.T, model_config.L, args.stride)
    _, val_windows = validation_split(windows)

    preds = predict_windows(params, model_config, windows)
    targets = np.stack([w.target for w in windows])
    val_preds = preds[-len(val_windows) :]  # validation_split holds out the tail
    val_targets = np.stack([w.target for w in val_windows])

    metrics_path = out / "metrics.csv"
    write_table(
        metrics_path,
        ["metric", "value"],
        [
            ["mse", float(np.mean((preds - targets) ** 2))],
            ["mae", float(np.mean(np.abs(preds - targets)))],
            ["val_mse", float(np.mean((val_preds - val_targets) ** 2))],
        ],
    )
    manifest.add_artifact(metrics_path)
    manifest.finish(out)
    with open(metrics_path, encoding="utf-8") as fh:
        print(fh.read().rstrip())
    return 0


def _cmd_crossval(args) -> int:
    if "L" in _load_config_file(args.config).get("model", {}):
        # cross_validate sets L itself: 1, then each of --horizons
        raise CliError(f"{args.config}: crossval does not take model.L; use --horizons")
    if args.radius < 0:
        raise CliError(f"--radius must be >= 0, got {args.radius}")
    horizons = tuple(_int_list("--horizons", args.horizons))
    frame = _ingest(args)
    model_config, train_config = _build_configs(args, frame.n_variables)
    out = _out_dir(args)
    manifest = RunManifest(
        "crossval",
        {
            "model": asdict(model_config),
            "train": asdict(train_config),
            "folds": args.folds,
            "horizons": list(horizons),
            "radius": args.radius,
            "stride": args.stride,
        },
        {"model": model_config.seed, "train": train_config.seed},
    )
    manifest.add_input(args.input)

    processed, _ = preprocess_frame(frame)
    report = cross_validate(
        processed,
        model_config,
        train_config,
        k=args.folds,
        horizons=horizons,
        stride=args.stride,
        dtw_radius=args.radius,
    )

    names = report.metric_names()
    rows = [[str(fold)] + [report.metrics[m][fold] for m in names] for fold in range(report.folds)]
    rows.append(["mean"] + [report.mean(m) for m in names])
    rows.append(["std"] + [report.std(m) for m in names])
    metrics_path = out / "metrics.csv"
    write_table(metrics_path, ["fold"] + names, rows)
    manifest.add_artifact(metrics_path)
    manifest.finish(out)

    for m in names:
        print(f"{m}: {report.mean(m):.6g} +/- {report.std(m):.6g}")
    print(f"table: {metrics_path}")
    return 0


def _cmd_forecast(args) -> int:
    frame = _ingest(args)
    params, model_config = _load_model(args, frame)
    out = _out_dir(args)
    manifest = RunManifest("forecast", {"model": asdict(model_config), "steps": args.steps}, {})
    manifest.add_input(args.input)
    manifest.add_input(args.checkpoint)

    processed, _ = preprocess_frame(frame)
    pred = sliding_forecast(params, model_config, processed.data, processed.length, args.steps)

    rows = []
    for step in range(pred.shape[0]):
        for j, name in enumerate(frame.names):
            rows.append([str(step), name, pred[step, j]])
    path = out / "forecast.csv"
    write_table(path, ["step", "variable", "value"], rows)
    manifest.add_artifact(path)
    manifest.finish(out)
    print(f"wrote {args.steps}-step forecast to {path}")
    return 0


def _cmd_synth_gen(args) -> int:
    spec = SynthSpec(n_series=args.n_series, length=args.length, seed=args.seed or 0)
    out = _out_dir(args)
    manifest = RunManifest("synth-gen", asdict(spec), {"spec": spec.seed})
    corpus = generate(spec)
    path = out / "corpus.csv"
    frame = corpus_to_frame(corpus)
    write_table(path, frame.names, frame.data)
    manifest.add_artifact(path)
    manifest.finish(out)
    print(f"wrote {spec.n_series} series of length {spec.length} to {path}")
    return 0


def _cmd_synth_ablate(args) -> int:
    seeds = _int_list("--seeds", args.seeds)
    if args.trace_series < 0:
        raise CliError(f"--trace-series must be >= 0, got {args.trace_series}")
    out = _out_dir(args)
    base_spec = SynthSpec(n_series=args.n_series, length=args.length)
    manifest = RunManifest(
        "synth-ablate",
        {"spec": asdict(base_spec), "eval_steps": args.eval_steps, "seeds": seeds},
        {"seeds": seeds},
    )

    ablation_rows = []
    trace_rows = []
    wins = 0
    for seed in seeds:
        spec = replace(base_spec, seed=seed)
        model_config = default_ablation_model_config(seed=seed)
        train_config = default_ablation_train_config(seed=seed)
        if args.epochs is not None:
            train_config = replace(train_config, epochs=args.epochs)
        result = ablation_run(
            spec,
            model_config,
            train_config,
            eval_steps=args.eval_steps,
        )
        for arm_name, arm in (("with_shortcut", result.with_shortcut), ("without_shortcut", result.without_shortcut)):
            ablation_rows.append([str(seed), arm_name, arm.mean_mse, arm.mean_dtw])
        wins += result.with_shortcut.mean_mse < result.without_shortcut.mean_mse
        for trace_no, trace in enumerate(result.traces[: args.trace_series]):
            label = f"seed{seed}-{trace_no}"
            for step, value in enumerate(trace["truth"]):
                trace_rows.append([label, "truth", str(step), value])
            for step, value in enumerate(trace["with_shortcut"]):
                trace_rows.append([label, "with_shortcut", str(trace["start"] + step), value])
            for step, value in enumerate(trace["without_shortcut"]):
                trace_rows.append([label, "without_shortcut", str(trace["start"] + step), value])

    ablation_path = out / "ablation.csv"
    write_table(ablation_path, ["seed", "arm", "mean_mse", "mean_dtw"], ablation_rows)
    manifest.add_artifact(ablation_path)
    traces_path = out / "traces.csv"
    write_table(traces_path, ["trace", "series", "step", "value"], trace_rows)
    manifest.add_artifact(traces_path)
    manifest.payload["shortcut_wins"] = int(wins)
    manifest.finish(out)
    print(f"shortcut arm won {wins}/{len(seeds)} seeds on mean MSE")
    print(f"tables: {ablation_path}, {traces_path}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _add_io_args(p, checkpoint=False):
    p.add_argument("--input", required=True, help="delimiter-separated numeric text file")
    p.add_argument("--delimiter", default=",")
    p.add_argument("--no-header", action="store_true", help="file has no header row")
    p.add_argument("--timestamp-col", action="store_true", help="skip a leading timestamp column")
    if checkpoint:
        p.add_argument("--checkpoint", required=True, help="model checkpoint path")


def _add_model_args(p):
    p.add_argument("--config", help="JSON config file with model/train sections")
    p.add_argument("--seed", type=int, help="seed for init and batch order")
    p.add_argument("--window", type=int, help="input window length T (multiple of 4)")
    p.add_argument("--epochs", type=int, help="training epochs")
    p.add_argument("--no-ar-shortcut", action="store_true", help="disable the linear shortcut")
    p.add_argument("--stride", type=int, default=1, help="window construction stride")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tscast", description="multi-scale conv-recurrent forecaster with a linear shortcut"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ingest-check", help="validate a dataset file")
    _add_io_args(p)
    p.add_argument("--out-dir", help="also write a run manifest here")
    p.set_defaults(fn=_cmd_ingest_check)

    p = sub.add_parser("train", help="train a model and save a checkpoint")
    _add_io_args(p)
    _add_model_args(p)
    p.add_argument("--horizon", type=int, help="forecast horizon L")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("evaluate", help="score a checkpoint on a dataset")
    _add_io_args(p, checkpoint=True)
    p.add_argument("--stride", type=int, default=1)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_evaluate)

    # no abbreviations, or --horizon would be read as --horizons
    p = sub.add_parser("crossval", help="k-fold cross-validated metrics", allow_abbrev=False)
    _add_io_args(p)
    _add_model_args(p)
    p.add_argument("--folds", type=int, default=5)
    p.add_argument("--horizons", default="", help="comma-separated multi-step horizons, e.g. 3,5,7")
    p.add_argument("--radius", type=int, default=1, help="FastDTW refinement radius")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_crossval)

    p = sub.add_parser("forecast", help="sliding-window forecast beyond the series end")
    _add_io_args(p, checkpoint=True)
    p.add_argument("--steps", type=int, required=True)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_forecast)

    p = sub.add_parser("synth-gen", help="generate the synthetic corpus")
    p.add_argument("--n-series", type=int, default=80)
    p.add_argument("--length", type=int, default=120)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_synth_gen)

    p = sub.add_parser("synth-ablate", help="paired with/without-shortcut experiment")
    p.add_argument("--n-series", type=int, default=80)
    p.add_argument("--length", type=int, default=120)
    p.add_argument("--seeds", default="0,1,2,3,4", help="comma-separated seeds")
    p.add_argument("--eval-steps", type=int, default=20)
    p.add_argument("--trace-series", type=int, default=2, help="held-out series to trace per seed")
    p.add_argument("--epochs", type=int, help="override training epochs per arm")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(fn=_cmd_synth_ablate)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (CliError, ValueError, FloatingPointError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
