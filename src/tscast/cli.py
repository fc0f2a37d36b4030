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
- forecast.csv:  step,variable,value            (long format, input's units;
                                                 the smoothing is not undone)
- traces.csv:    trace,series,step,value        (long format; series is
                                                 truth or an arm name, in
                                                 ablation.csv's arm order)
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

from .metrics import mae_metric
from .model import STREAMS, ForecasterConfig, load_checkpoint, save_checkpoint
from .preprocess import SeriesFrame, build_windows, check_integer, invert_normalizer, preprocess_frame
from .synth import SynthSpec, ablation_run, corpus_to_frame, default_ablation_train_config, generate
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
    skip = int(timestamp_col)  # error messages count the file's columns, the timestamp included
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        for line_no, row in enumerate(reader, start=1):
            if not row:
                continue
            row = row[skip:]
            if names is None and header:
                names = [cell.strip() for cell in row]
                for i, name in enumerate(names):
                    if not name:
                        raise CliError(f"{path}:{line_no}: column {skip + i + 1} has no name")
                    if name in names[:i]:
                        raise CliError(f"{path}:{line_no}: column {skip + i + 1} repeats the name {name!r}")
                width = len(names)
                continue
            if width is None:
                width = len(row)
            if len(row) != width:
                raise CliError(f"{path}:{line_no}: expected {skip + width} columns, found {skip + len(row)}")
            parsed = []
            for col_no, cell in enumerate(row, start=1 + skip):
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
    """A run's record; the output directory is made at its first write."""

    def __init__(self, out_dir, command: str, config: dict, seeds: dict):
        self.out_dir = Path(out_dir)
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

    def add_artifact(self, name: str) -> Path:
        """Register the file ``name`` in the output directory; return its path."""
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / name
        self.payload["artifacts"].append(str(path))
        return path

    def write_table(self, name: str, header: list[str], rows) -> Path:
        path = self.add_artifact(name)
        write_table(path, header, rows)
        return path

    def finish(self) -> Path:
        self.payload["timings"]["wall_seconds"] = round(time.time() - self._t0, 3)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        path = self.out_dir / "manifest.json"
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
    for section, value in payload.items():
        if section not in ("model", "train"):
            raise CliError(f"{path}: unknown config section {section!r}; the sections are 'model' and 'train'")
        if not isinstance(value, dict):
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


def _check_counts(args, **least) -> None:
    """Check each integer flag, given as ``dest=least``, by its flag name."""
    for dest, at_least in least.items():
        check_integer("--" + dest.replace("_", "-"), getattr(args, dest), at_least)


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
        manifest = RunManifest(args.out_dir, "ingest-check", {"rows": frame.length, "variables": frame.names}, {})
        manifest.add_input(args.input)
        manifest.finish()
    return 0


def _cmd_train(args) -> int:
    _check_counts(args, stride=1)
    frame = _ingest(args)
    model_config, train_config = _build_configs(args, frame.n_variables)
    manifest = RunManifest(
        args.out_dir,
        "train",
        {"model": asdict(model_config), "train": asdict(train_config), "stride": args.stride},
        {"model": model_config.seed, "train": train_config.seed},
    )
    manifest.add_input(args.input)

    processed, _ = preprocess_frame(frame)
    windows = build_windows(processed, model_config.T, model_config.L, args.stride)
    params, history = train_model(windows, model_config, train_config)

    save_checkpoint(manifest.add_artifact("checkpoint.json"), params, model_config)
    manifest.write_table(
        "history.csv",
        ["epoch", "train_mse", "val_mse"],
        [[str(h["epoch"]), h["train_mse"], h["val_mse"]] for h in history],
    )
    manifest.payload["final_val_mse"] = min((h["val_mse"] for h in history), default=None)
    manifest.finish()
    best = manifest.payload["final_val_mse"]
    print(f"trained {len(windows)} windows, best validation MSE {best}")
    print(f"artifacts in {manifest.out_dir}")
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
    _check_counts(args, stride=1)
    frame = _ingest(args)
    params, model_config = _load_model(args, frame)
    manifest = RunManifest(args.out_dir, "evaluate", {"model": asdict(model_config)}, {"model": model_config.seed})
    manifest.add_input(args.input)
    manifest.add_input(args.checkpoint)

    processed, _ = preprocess_frame(frame)
    windows = build_windows(processed, model_config.T, model_config.L, args.stride)
    _, val_windows = validation_split(windows)

    preds = predict_windows(params, model_config, windows)
    targets = np.stack([w.target for w in windows])
    val_preds = preds[-len(val_windows) :]  # validation_split holds out the tail
    val_targets = np.stack([w.target for w in val_windows])

    metrics_path = manifest.write_table(
        "metrics.csv",
        ["metric", "value"],
        [
            ["mse", float(np.mean((preds - targets) ** 2))],
            ["mae", mae_metric(preds, targets)],
            ["val_mse", float(np.mean((val_preds - val_targets) ** 2))],
        ],
    )
    manifest.finish()
    with open(metrics_path, encoding="utf-8") as fh:
        print(fh.read().rstrip())
    return 0


def _cmd_crossval(args) -> int:
    _check_counts(args, folds=2, stride=1, radius=0)
    if "L" in _load_config_file(args.config).get("model", {}):
        # cross_validate sets L itself: 1, then each of --horizons
        raise CliError(f"{args.config}: crossval does not take model.L; use --horizons")
    horizons = tuple(_int_list("--horizons", args.horizons))
    for horizon in horizons:
        check_integer("--horizons", horizon, 1)
    frame = _ingest(args)
    model_config, train_config = _build_configs(args, frame.n_variables)
    manifest = RunManifest(
        args.out_dir,
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
    metrics_path = manifest.write_table("metrics.csv", ["fold"] + names, rows)
    manifest.finish()

    for m in names:
        print(f"{m}: {report.mean(m):.6g} +/- {report.std(m):.6g}")
    print(f"table: {metrics_path}")
    return 0


def _cmd_forecast(args) -> int:
    _check_counts(args, steps=1)
    frame = _ingest(args)
    params, model_config = _load_model(args, frame)
    manifest = RunManifest(args.out_dir, "forecast", {"model": asdict(model_config), "steps": args.steps}, {})
    manifest.add_input(args.input)
    manifest.add_input(args.checkpoint)

    processed, stats = preprocess_frame(frame)
    pred = sliding_forecast(params, model_config, processed.data, processed.length, args.steps)
    pred = invert_normalizer(SeriesFrame(frame.names, pred), stats).data  # the input's units, still smoothed

    rows = []
    for step in range(pred.shape[0]):
        for j, name in enumerate(frame.names):
            rows.append([str(step), name, pred[step, j]])
    path = manifest.write_table("forecast.csv", ["step", "variable", "value"], rows)
    manifest.finish()
    print(f"wrote {args.steps}-step forecast to {path}")
    return 0


def _cmd_synth_gen(args) -> int:
    _check_counts(args, n_series=1, length=8, seed=0)
    spec = SynthSpec(n_series=args.n_series, length=args.length, seed=args.seed)
    manifest = RunManifest(args.out_dir, "synth-gen", asdict(spec), {"spec": spec.seed})
    frame = corpus_to_frame(generate(spec))
    path = manifest.write_table("corpus.csv", frame.names, frame.data)
    manifest.finish()
    print(f"wrote {spec.n_series} series of length {spec.length} to {path}")
    return 0


def _cmd_synth_ablate(args) -> int:
    seeds = _int_list("--seeds", args.seeds)
    if not seeds or len(set(seeds)) < len(seeds) or min(seeds) < 0:
        raise CliError(f"--seeds takes one or more distinct seeds >= 0, got {args.seeds!r}")
    _check_counts(args, n_series=1, length=8, eval_steps=1, trace_series=0)
    base_spec = SynthSpec(n_series=args.n_series, length=args.length)
    manifest = RunManifest(
        args.out_dir,
        "synth-ablate",
        {"spec": asdict(base_spec), "eval_steps": args.eval_steps, "seeds": seeds},
        {"seeds": seeds},
    )

    ablation_rows = []
    trace_rows = []
    wins = 0  # seeds on which the first arm, the full model, beat every other arm
    for seed in seeds:
        train_config = None
        if args.epochs is not None:
            train_config = replace(default_ablation_train_config(seed=seed), epochs=args.epochs)
        result = ablation_run(replace(base_spec, seed=seed), train_config=train_config, eval_steps=args.eval_steps)
        for name, arm in result.arms.items():
            ablation_rows.append([str(seed), name, arm.mean_mse, arm.mean_dtw])
        full, *ablated = result.arms.values()
        wins += all(full.mean_mse < arm.mean_mse for arm in ablated)
        for trace_no, trace in enumerate(result.traces[: args.trace_series]):
            label, start = f"seed{seed}-{trace_no}", trace["start"]
            for series, first in (("truth", 0), *((name, start) for name in result.arms)):
                for step, value in enumerate(trace[series], start=first):
                    trace_rows.append([label, series, str(step), value])

    ablation_path = manifest.write_table("ablation.csv", ["seed", "arm", "mean_mse", "mean_dtw"], ablation_rows)
    traces_path = manifest.write_table("traces.csv", ["trace", "series", "step", "value"], trace_rows)
    manifest.payload["shortcut_wins"] = int(wins)
    manifest.finish()
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
    p.add_argument("--window", type=int, help=f"input window length T (multiple of {STREAMS[-1][1]})")
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
