import argparse
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tscast.cli import CliError, build_parser, ingest_csv, run, write_table
from tscast.model import ForecasterConfig, init_forecaster, save_checkpoint
from tscast.preprocess import SeriesFrame


README = Path(__file__).resolve().parent.parent / "README.md"
SHARED_INPUT_FLAGS = {"--delimiter", "--no-header", "--timestamp-col"}  # described once in the README


def _write_series_csv(path, rng_seed=0, length=48, v=1):
    rng = np.random.default_rng(rng_seed)
    t = np.arange(float(length))
    data = np.stack(
        [np.sin(t / 4.0 + j) + 0.05 * j * t / length + 0.05 * rng.normal(size=length) for j in range(v)],
        axis=1,
    )
    frame = SeriesFrame([f"y{j}" for j in range(v)], data)
    write_table(path, frame.names, frame.data)
    return frame


# ---------------------------------------------------------------------------
# ingestion


def test_ingest_round_trip_full_precision(tmp_path):
    path = tmp_path / "data.csv"
    frame = _write_series_csv(path, v=3)
    loaded = ingest_csv(path)
    assert loaded.names == frame.names
    assert np.array_equal(loaded.data, frame.data)


def test_ingest_non_numeric_cell_names_row_and_column(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n1.0,2.0\n3.0,oops\n")
    with pytest.raises(CliError) as exc:
        ingest_csv(path)
    message = str(exc.value)
    assert ":3:" in message and "column 2" in message and "oops" in message


def test_ingest_ragged_rows_rejected(tmp_path):
    path = tmp_path / "ragged.csv"
    path.write_text("a,b\n1.0,2.0\n3.0\n")
    with pytest.raises(CliError) as exc:
        ingest_csv(path)
    assert "expected 2 columns" in str(exc.value)


def test_ingest_missing_value_rejected(tmp_path):
    path = tmp_path / "missing.csv"
    path.write_text("a,b\n1.0,\n")
    with pytest.raises(CliError) as exc:
        ingest_csv(path)
    assert "missing" in str(exc.value)


def test_ingest_no_header_and_timestamp_column(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("2020-01-01,1.0,10.0\n2020-01-02,2.0,20.0\n")
    frame = ingest_csv(path, header=False, timestamp_col=True)
    assert frame.names == ["v0", "v1"]
    assert np.array_equal(frame.data, [[1.0, 10.0], [2.0, 20.0]])


def test_ingest_rejects_a_delimiter_that_is_not_one_character(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_series_csv(data)
    for delimiter in (";;", ""):
        with pytest.raises(CliError, match="--delimiter"):
            ingest_csv(data, delimiter=delimiter)
        assert run(["ingest-check", "--input", str(data), "--delimiter", delimiter]) == 1
        assert "--delimiter" in capsys.readouterr().err


@pytest.mark.parametrize("header, says", [
    ("a,a,", "column 2 repeats the name 'a'"),
    ("a, b ,b", "column 3 repeats the name 'b'"),
    ("a,,b", "column 2 has no name"),
])
def test_ingest_rejects_a_repeated_or_empty_header_name(tmp_path, capsys, header, says):
    # the variable column of forecast.csv could not tell such columns apart
    path = tmp_path / "data.csv"
    path.write_text(header + "\n1.0,2.0,3.0\n4.0,5.0,6.0\n")
    with pytest.raises(CliError, match=f"^{re.escape(str(path))}:1: {says}$"):
        ingest_csv(path)
    assert run(["ingest-check", "--input", str(path)]) == 1
    assert says in capsys.readouterr().err


@pytest.mark.parametrize("body, says", [
    ("t,a,b\n2021,1.0,2.0\n2022,3.0,oops\n", "3: column 3 is not numeric: 'oops'"),
    ("t,a,b\n2021,1.0,2.0\n2022,3.0\n", "3: expected 3 columns, found 2"),
    ("t,a,b\n2021,1.0,\n", "2: column 3 is missing a value"),
    ("t,a,b\n2021,inf,2.0\n", "2: column 2 is not finite: 'inf'"),
    ("t,a,a\n2021,1.0,2.0\n", "1: column 3 repeats the name 'a'"),
    ("t,,b\n2021,1.0,2.0\n", "1: column 2 has no name"),
], ids=["not-numeric", "short-row", "missing", "not-finite", "repeated-name", "no-name"])
def test_ingest_counts_the_timestamp_column_in_its_errors(tmp_path, capsys, body, says):
    path = tmp_path / "ts.csv"
    path.write_text(body)
    assert run(["ingest-check", "--input", str(path), "--timestamp-col"]) == 1
    assert capsys.readouterr().err == f"error: {path}:{says}\n"


def test_ingest_missing_file():
    with pytest.raises(CliError):
        ingest_csv("/nonexistent/nowhere.csv")


def test_ingest_drops_a_byte_order_mark(tmp_path):
    # the mark once joined the first name, as "\ufeffa"
    path = tmp_path / "bom.csv"
    path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n3,4\n")
    frame = ingest_csv(path)
    assert frame.names == ["a", "b"]
    assert np.array_equal(frame.data, [[1.0, 2.0], [3.0, 4.0]])


# ---------------------------------------------------------------------------
# subcommands


def test_ingest_check_command(tmp_path, capsys):
    path = tmp_path / "data.csv"
    _write_series_csv(path, v=2)
    assert run(["ingest-check", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert "48 rows, 2 variables" in out
    assert "y0, y1" in out


def test_train_then_evaluate_reproduces_validation_loss(tmp_path):
    data = tmp_path / "data.csv"
    _write_series_csv(data)
    train_dir = tmp_path / "train"
    assert run([
        "train", "--input", str(data), "--out-dir", str(train_dir),
        "--window", "8", "--seed", "0", "--epochs", "3",
        "--config", str(_fast_config(tmp_path)),
    ]) == 0

    manifest = json.loads((train_dir / "manifest.json").read_text())
    assert manifest["final_val_mse"] is not None
    ckpt = train_dir / "checkpoint.json"
    assert str(ckpt) in manifest["artifacts"]

    eval_dir = tmp_path / "eval"
    assert run([
        "evaluate", "--input", str(data), "--checkpoint", str(ckpt),
        "--out-dir", str(eval_dir),
    ]) == 0
    rows = (eval_dir / "metrics.csv").read_text().strip().splitlines()
    metrics = dict(line.split(",") for line in rows[1:])
    assert float(metrics["val_mse"]) == pytest.approx(manifest["final_val_mse"], rel=1e-12)


def test_train_on_one_window_validates_it_with_itself(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_series_csv(data, length=9)  # T + L rows: one window
    train_dir, eval_dir = tmp_path / "train", tmp_path / "eval"
    assert run(["train", "--input", str(data), "--window", "8", "--epochs", "1", "--out-dir", str(train_dir)]) == 0
    assert "trained 1 windows" in capsys.readouterr().out
    manifest = json.loads((train_dir / "manifest.json").read_text())
    ckpt = str(train_dir / "checkpoint.json")
    assert run(["evaluate", "--input", str(data), "--checkpoint", ckpt, "--out-dir", str(eval_dir)]) == 0
    rows = (eval_dir / "metrics.csv").read_text().strip().splitlines()
    metrics = dict(line.split(",") for line in rows[1:])
    assert float(metrics["val_mse"]) == float(metrics["mse"]) == pytest.approx(manifest["final_val_mse"], rel=1e-12)


def _fast_config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "model": {"n_filters": 2, "kernel_size": 3, "gru_hidden": 3},
        "train": {"epochs": 3, "batch_size": 16},
    }))
    return path


def test_crossval_table_layout_and_determinism(tmp_path):
    data = tmp_path / "data.csv"
    _write_series_csv(data, length=60)

    outputs = []
    for name in ("run1", "run2"):
        out_dir = tmp_path / name
        assert run([
            "crossval", "--input", str(data), "--out-dir", str(out_dir),
            "--window", "8", "--folds", "3", "--seed", "1", "--epochs", "2",
            "--stride", "2", "--horizons", "3",
            "--config", str(_fast_config(tmp_path)),
        ]) == 0
        outputs.append((out_dir / "metrics.csv").read_bytes())
    assert outputs[0] == outputs[1]

    lines = outputs[0].decode().strip().splitlines()
    assert lines[0] == "fold,mse,mae,dtw_3step"
    assert len(lines) == 1 + 3 + 2  # header, folds, mean, std
    rows = [line.split(",") for line in lines[1:]]
    assert [row[0] for row in rows] == ["0", "1", "2", "mean", "std"]
    # each cell is written as repr(float), so it parses back to the same bits
    columns = [[float(row[j]) for row in rows[:3]] for j in range(1, 4)]
    assert [float(x) for x in rows[3][1:]] == [np.mean(c) for c in columns]
    assert [float(x) for x in rows[4][1:]] == [np.std(c, ddof=1) for c in columns]


def test_forecast_command_long_format(tmp_path):
    data = tmp_path / "data.csv"
    _write_series_csv(data, v=2)
    train_dir = tmp_path / "train"
    assert run([
        "train", "--input", str(data), "--out-dir", str(train_dir),
        "--window", "8", "--seed", "0",
        "--config", str(_fast_config(tmp_path)),
    ]) == 0

    fc_dir = tmp_path / "fc"
    assert run([
        "forecast", "--input", str(data), "--checkpoint", str(train_dir / "checkpoint.json"),
        "--steps", "6", "--out-dir", str(fc_dir),
    ]) == 0
    lines = (fc_dir / "forecast.csv").read_text().strip().splitlines()
    assert lines[0] == "step,variable,value"
    assert len(lines) == 1 + 6 * 2
    step, variable, value = lines[1].split(",")
    assert step == "0" and variable == "y0"
    float(value)


def test_forecast_writes_the_input_units(tmp_path):
    # the rollout runs in normalised units; forecast.csv maps it back
    # (smoothed): before that, step 0 read -0.27 on this series near 100
    data = tmp_path / "data.csv"
    write_table(data, ["y"], 100.0 + np.sin(np.arange(300.0) / 6.0)[:, None])
    train_dir = tmp_path / "train"
    assert run(["train", "--input", str(data), "--out-dir", str(train_dir), "--window", "16", "--epochs", "3"]) == 0
    assert run([
        "forecast", "--input", str(data), "--checkpoint", str(train_dir / "checkpoint.json"),
        "--steps", "10", "--out-dir", str(tmp_path / "fc"),
    ]) == 0
    lines = (tmp_path / "fc" / "forecast.csv").read_text().strip().splitlines()[1:]
    values = [float(line.split(",")[2]) for line in lines]
    assert len(values) == 10
    assert all(abs(value - 100.0) <= 2.0 for value in values), values


def test_forecast_stops_a_diverging_rollout(tmp_path, capsys):
    # a one-step model slid 100 steps on a series bounded by 2 in model
    # units: unchecked, the rollout reached 1.46e11 at step 98
    data = tmp_path / "data.csv"
    write_table(data, ["y"], 100.0 + np.sin(np.arange(300.0) / 6.0)[:, None])
    train_dir = tmp_path / "train"
    assert run(["train", "--input", str(data), "--out-dir", str(train_dir), "--window", "16", "--epochs", "3"]) == 0
    capsys.readouterr()
    assert run([
        "forecast", "--input", str(data), "--checkpoint", str(train_dir / "checkpoint.json"),
        "--steps", "100", "--out-dir", str(tmp_path / "fc"),
    ]) == 1
    err = capsys.readouterr().err
    found = re.match(r"error: sliding_forecast: the rollout diverged at step (\d+): variable 0 is (\S+), outside \[", err)
    assert found, err
    assert int(found[1]) < 98 and abs(float(found[2])) > 1e4


def test_forecast_reports_a_missing_checkpoint_file(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_series_csv(data)
    missing = tmp_path / "nonexistent.json"
    assert run([
        "forecast", "--input", str(data), "--checkpoint", str(missing),
        "--steps", "2", "--out-dir", str(tmp_path / "fc"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read checkpoint") and str(missing) in err


def test_evaluate_reports_a_checkpoint_without_params(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_series_csv(data)
    ckpt = tmp_path / "checkpoint.json"
    config = ForecasterConfig(v=1, T=8, n_filters=2, kernel_size=3, gru_hidden=3)
    save_checkpoint(ckpt, init_forecaster(config), config)
    payload = json.loads(ckpt.read_text())
    del payload["params"]
    ckpt.write_text(json.dumps(payload))
    assert run([
        "evaluate", "--input", str(data), "--checkpoint", str(ckpt), "--out-dir", str(tmp_path / "ev"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(ckpt) in err and "'params'" in err


@pytest.mark.parametrize("field, value, says", [
    ("shape", [5], "which do not fit shape [5]"),
    ("data", ["x"] * 9, "holds a value that is not a number"),
])
def test_forecast_reports_a_checkpoint_entry_that_does_not_load(tmp_path, capsys, field, value, says):
    data = tmp_path / "data.csv"
    _write_series_csv(data)
    ckpt = tmp_path / "checkpoint.json"
    config = ForecasterConfig(v=1, T=8, n_filters=2, kernel_size=3, gru_hidden=3)
    save_checkpoint(ckpt, init_forecaster(config), config)
    payload = json.loads(ckpt.read_text())
    payload["params"]["full.gru.b"][field] = value
    ckpt.write_text(json.dumps(payload))
    assert run([
        "forecast", "--input", str(data), "--checkpoint", str(ckpt),
        "--steps", "2", "--out-dir", str(tmp_path / "fc"),
    ]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {ckpt}: entry 'full.gru.b' ") and says in err and err.count("\n") == 1


@pytest.mark.parametrize("module", ["tscast", "tscast.cli"])
def test_python_dash_m_runs_the_cli(tmp_path, module):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out_dir = tmp_path / "g"
    done = subprocess.run(
        [sys.executable, "-m", module, "synth-gen", "--n-series", "2", "--length", "50", "--out-dir", str(out_dir)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert (out_dir / "corpus.csv").is_file()


def test_synth_gen_output_is_ingestable(tmp_path):
    out_dir = tmp_path / "synth"
    assert run([
        "synth-gen", "--n-series", "4", "--length", "40",
        "--seed", "7", "--out-dir", str(out_dir),
    ]) == 0
    frame = ingest_csv(out_dir / "corpus.csv")
    assert frame.data.shape == (40, 4)
    assert frame.names == ["s000", "s001", "s002", "s003"]

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert str(out_dir / "corpus.csv") in manifest["artifacts"]


def test_synth_ablate_emits_paired_results_and_traces(tmp_path):
    out_dir = tmp_path / "ablate"
    assert run([
        "synth-ablate", "--n-series", "6", "--length", "64", "--seeds", "0",
        "--eval-steps", "8", "--epochs", "2", "--trace-series", "1",
        "--out-dir", str(out_dir),
    ]) == 0

    lines = (out_dir / "ablation.csv").read_text().strip().splitlines()
    assert lines[0] == "seed,arm,mean_mse,mean_dtw"
    arms = [line.split(",")[1] for line in lines[1:]]
    assert arms == ["with_shortcut", "without_shortcut"]

    trace_lines = (out_dir / "traces.csv").read_text().strip().splitlines()
    assert trace_lines[0] == "trace,series,step,value"
    series_seen = {line.split(",")[1] for line in trace_lines[1:]}
    assert series_seen == {"truth", "with_shortcut", "without_shortcut"}

    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert "shortcut_wins" in manifest
    for artifact in (out_dir / "ablation.csv", out_dir / "traces.csv"):
        assert str(artifact) in manifest["artifacts"]


def test_synth_ablate_rejects_a_negative_trace_count_and_bad_seeds(tmp_path, capsys):
    out = tmp_path / "ablate"
    for flag, value in (
        ("--trace-series", "-1"), ("--seeds", "0,x"), ("--seeds", ""), ("--seeds", "0,0"), ("--seeds", "1,-1"),
    ):
        assert run(["synth-ablate", "--seeds", "0", flag, value, "--out-dir", str(out)]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()


def test_synth_ablate_rejects_no_ar_shortcut_flag(tmp_path, capsys):
    # both arms set the shortcut themselves, so the command takes no such flag
    with pytest.raises(SystemExit) as exc:
        run(["synth-ablate", "--no-ar-shortcut", "--out-dir", str(tmp_path / "x")])
    assert exc.value.code == 2
    assert "--no-ar-shortcut" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_crossval_rejects_horizon_flag(tmp_path, capsys):
    # cross_validate sets the horizon per pass (1, then each --horizons value)
    data = tmp_path / "data.csv"
    _write_series_csv(data)
    with pytest.raises(SystemExit) as exc:
        run(["crossval", "--input", str(data), "--horizon", "3", "--out-dir", str(tmp_path / "cv")])
    assert exc.value.code == 2
    assert "--horizon" in capsys.readouterr().err
    assert not (tmp_path / "cv").exists()


def test_crossval_rejects_a_horizon_that_is_not_an_integer(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_series_csv(data)
    code = run(["crossval", "--input", str(data), "--horizons", "3,x", "--out-dir", str(tmp_path / "cv")])
    assert code == 1
    assert "--horizons" in capsys.readouterr().err
    assert not (tmp_path / "cv").exists()


def test_crossval_rejects_a_negative_radius(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_series_csv(data)
    code = run(["crossval", "--input", str(data), "--radius", "-1", "--out-dir", str(tmp_path / "cv")])
    assert code == 1
    assert "--radius must be an integer >= 0, got -1" in capsys.readouterr().err
    assert not (tmp_path / "cv").exists()


def test_crossval_rejects_a_config_horizon(tmp_path, capsys):
    # a model.L would land in the manifest and change no metric
    data = tmp_path / "data.csv"
    _write_series_csv(data)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"model": {"L": 3, "n_filters": 2, "kernel_size": 3, "gru_hidden": 3}, "train": {"epochs": 1}}))
    code = run(["crossval", "--input", str(data), "--window", "8", "--config", str(config), "--out-dir", str(tmp_path / "cv")])
    assert code == 1
    assert "model.L" in capsys.readouterr().err
    assert not (tmp_path / "cv").exists()

    train_dir = tmp_path / "train"
    assert run(["train", "--input", str(data), "--window", "8", "--config", str(config), "--out-dir", str(train_dir)]) == 0
    assert json.loads((train_dir / "manifest.json").read_text())["config"]["model"]["L"] == 3


_BAD_SECTIONS = [{"model": 3}, {"model": "ab"}, {"train": [1]}]


def _run_with_config(tmp_path, command, payload):
    data = tmp_path / "data.csv"
    _write_series_csv(data)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(payload))
    out = tmp_path / command
    return run([command, "--input", str(data), "--window", "8", "--config", str(config), "--out-dir", str(out)]), out


def test_train_rejects_a_config_section_that_is_not_an_object(tmp_path, capsys):
    for payload in _BAD_SECTIONS:
        code, out = _run_with_config(tmp_path, "train", payload)
        assert code == 1
        assert f"config section {next(iter(payload))!r}" in capsys.readouterr().err
        assert not out.exists()


def test_crossval_rejects_a_config_section_that_is_not_an_object(tmp_path, capsys):
    for payload in _BAD_SECTIONS:
        code, out = _run_with_config(tmp_path, "crossval", payload)
        assert code == 1
        assert f"config section {next(iter(payload))!r}" in capsys.readouterr().err
        assert not out.exists()


def test_train_config_rejects_the_adam_constants(tmp_path, capsys):
    # beta1, beta2 and eps are module constants of tscast.train, not options
    for key in ("beta1", "beta2", "eps"):
        code, out = _run_with_config(tmp_path, "train", {"train": {key: 0.5}})
        assert code == 1
        assert "invalid configuration" in capsys.readouterr().err
        assert not out.exists()


def test_train_config_names_a_bad_field(tmp_path, capsys):
    # a fractional batch_size crashed in range(); a NaN rate read as divergence
    bad = (("batch_size", 2.5), ("epochs", 1.5), ("patience", 0.5), ("seed", 1.5), ("learning_rate", float("nan")))
    for key, value in bad:
        code, out = _run_with_config(tmp_path, "train", {"train": {key: value}})
        assert code == 1
        assert f"error: invalid configuration: config field {key} must be" in capsys.readouterr().err
        assert not out.exists()


def test_train_model_config_names_a_bad_field(tmp_path, capsys):
    # whole floats passed the integer check and crashed inside the model; the
    # string "false" is truthy, so it trained with the shortcut on
    bad = (
        ("n_filters", 2.0), ("kernel_size", 3.0), ("gru_hidden", True), ("seed", 1.5), ("seed", -1),
        ("use_ar_shortcut", "false"),
    )
    for key, value in bad:
        code, out = _run_with_config(tmp_path, "train", {"model": {key: value}, "train": {"epochs": 1}})
        assert code == 1
        assert f"error: invalid configuration: config field {key} must be" in capsys.readouterr().err
        assert not out.exists()


def test_train_and_crossval_reject_an_unknown_config_section(tmp_path, capsys):
    # a misspelled section trained at the defaults and exited 0
    for command in ("train", "crossval"):
        code, out = _run_with_config(tmp_path, command, {"modle": {"T": 16}})
        assert code == 1
        assert f"{tmp_path / 'config.json'}: unknown config section 'modle'" in capsys.readouterr().err
        assert not out.exists()


def test_a_command_that_fails_leaves_no_output_directory(tmp_path, capsys):
    inputs = tmp_path / "in"
    inputs.mkdir()
    data, ckpt = inputs / "data.csv", inputs / "checkpoint.json"
    _write_series_csv(data)
    config = ForecasterConfig(v=1, T=8, n_filters=2, kernel_size=3, gru_hidden=3)
    save_checkpoint(ckpt, init_forecaster(config), config)
    wide, wide_ckpt = ForecasterConfig(v=2, T=8, n_filters=2, kernel_size=3, gru_hidden=3), inputs / "wide.json"
    save_checkpoint(wide_ckpt, init_forecaster(wide), wide)
    files = {
        "stamps.csv": b"t\n1\n2\n3\n",  # a timestamp column and no variables
        "header.csv": b"a,b\n",
        "latin1.csv": b"a,b\n1,\xff\n",
        "array.json": b"[1, 2]",
        "latin1.json": b'{"model": {"\xff": 1}}',
        "latin1.ckpt": b"\xff",
        "listed.ckpt": json.dumps({**json.loads(ckpt.read_text()), "params": []}).encode(),
        "three.json": b'{"model": {"v": 3}}',
    }
    for name, body in files.items():
        (inputs / name).write_bytes(body)
    stamps, header, latin1, array, latin1_config, latin1_ckpt, listed_ckpt, three = (inputs / name for name in files)
    for argv, says in (
        (["ingest-check", "--input", str(stamps), "--timestamp-col"],
         f"error: {stamps}: SeriesFrame data has no variables"),
        (["ingest-check", "--input", str(inputs)], f"Is a directory: '{inputs}'"),
        (["ingest-check", "--input", str(header)], f"error: {header}: no data rows"),
        (["ingest-check", "--input", str(latin1)], f"error: {latin1}: not UTF-8 text (byte 6)"),
        (["train", "--input", str(data), "--config", str(array)], f"error: {array}: config must be a JSON object"),
        (["train", "--input", str(data), "--config", str(latin1_config)],
         f"error: cannot read config {latin1_config}: 'utf-8' codec can't decode byte 0xff"),
        (["train", "--input", str(data), "--window", "8", "--epochs", "0", "--config", str(three)],
         f"error: {three}: model.v is 3, but the input has 1 variable(s)"),
        # 10**17 steps need 711 PiB, more than any address space holds, so the allocation fails at once
        (["forecast", "--input", str(data), "--checkpoint", str(ckpt), "--steps", str(10**17)],
         "error: Unable to allocate"),
        (["forecast", "--input", str(data), "--checkpoint", str(latin1_ckpt), "--steps", "2"],
         f"error: {latin1_ckpt}: not a tscast-checkpoint file: 'utf-8' codec can't decode byte 0xff"),
        (["evaluate", "--input", str(data), "--checkpoint", str(wide_ckpt)],
         "error: checkpoint expects 2 variables, input has 1"),
        (["evaluate", "--input", str(data), "--checkpoint", str(listed_ckpt)],
         f"error: {listed_ckpt}: checkpoint 'params' is not a JSON object"),
        (["synth-ablate", "--eval-steps", "0"], "error: --eval-steps must be an integer >= 1, got 0"),
        (["synth-ablate", "--n-series", "0"], "error: --n-series must be an integer >= 1, got 0"),
        (["synth-ablate", "--length", "3"], "error: --length must be an integer >= 8, got 3"),
        (["synth-gen", "--n-series", "0"], "error: --n-series must be an integer >= 1, got 0"),
        (["synth-gen", "--length", "3"], "error: --length must be an integer >= 8, got 3"),
        (["synth-gen", "--seed", "-1"], "error: --seed must be an integer >= 0, got -1"),
        (["forecast", "--input", str(data), "--checkpoint", str(ckpt), "--steps", "0"],
         "error: --steps must be an integer >= 1, got 0"),
        (["crossval", "--input", str(data), "--window", "8", "--folds", "1"],
         "error: --folds must be an integer >= 2, got 1"),
        (["crossval", "--input", str(data), "--window", "8", "--horizons", "3,0"],
         "error: --horizons must be an integer >= 1, got 0"),
        (["crossval", "--input", str(data), "--window", "8", "--stride", "0"],
         "error: --stride must be an integer >= 1, got 0"),
        (["train", "--input", str(data), "--window", "8", "--stride", "0"],
         "error: --stride must be an integer >= 1, got 0"),
        (["evaluate", "--input", str(data), "--checkpoint", str(ckpt), "--stride", "0"],
         "error: --stride must be an integer >= 1, got 0"),
        (["train", "--input", str(data), "--window", "0"], "error: --window must be an integer >= 1, got 0"),
        (["train", "--input", str(data), "--horizon", "0"], "error: --horizon must be an integer >= 1, got 0"),
        (["train", "--input", str(data), "--epochs", "-1"], "error: --epochs must be an integer >= 0, got -1"),
        (["train", "--input", str(data), "--seed", "-2"], "error: --seed must be an integer >= 0, got -2"),
        (["crossval", "--input", str(data), "--window", "0"], "error: --window must be an integer >= 1, got 0"),
        (["crossval", "--input", str(data), "--epochs", "-1"], "error: --epochs must be an integer >= 0, got -1"),
        (["synth-ablate", "--epochs", "-1"], "error: --epochs must be an integer >= 0, got -1"),
        (["synth-ablate", "--length", "20"], "error: --eval-steps must be at most --length - 16 = 4, got 20"),
    ):
        assert run([*argv, "--out-dir", str(tmp_path / "out")]) == 1
        assert says in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [inputs]


def _readme_synopsis() -> dict[str, str]:
    """The README's CLI code block split into {subcommand: its lines}."""
    block = README.read_text().split("## CLI", 1)[1].split("```")[1]
    sections: dict[str, str] = {}
    for line in block.splitlines():
        if line.startswith("tscast "):
            name = line.split()[1]
            sections[name] = ""
        if sections:
            sections[name] += line + "\n"
    return sections


def test_readme_mentions_every_cli_option():
    readme = README.read_text()
    synopsis = _readme_synopsis()
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    missing = []
    for name, parser in subparsers.choices.items():
        for action in parser._actions:
            for option in action.option_strings:
                if option in ("-h", "--help"):
                    continue
                text = readme if option in SHARED_INPUT_FLAGS else synopsis.get(name, "")
                if not re.search(re.escape(option) + r"(?![\w-])", text):
                    missing.append(f"{name} {option}")
    assert missing == []


def test_manifest_references_inputs_with_digests(tmp_path):
    data = tmp_path / "data.csv"
    _write_series_csv(data)
    out_dir = tmp_path / "train"
    assert run([
        "train", "--input", str(data), "--out-dir", str(out_dir),
        "--window", "8", "--config", str(_fast_config(tmp_path)),
    ]) == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert str(data) in manifest["inputs"]
    assert len(manifest["inputs"][str(data)]) == 64  # sha256 hex
    assert manifest["command"] == "train"
    assert "wall_seconds" in manifest["timings"]


def test_manifest_records_every_flag_and_input_file(tmp_path):
    # evaluate --stride and synth-ablate --epochs change the numbers, and
    # were once left out of the manifest
    data, ckpt, config = tmp_path / "data.csv", tmp_path / "checkpoint.json", _fast_config(tmp_path)
    _write_series_csv(data, length=60)
    stamped = tmp_path / "stamped.csv"  # its first column is dropped as timestamps
    _write_series_csv(stamped, length=60, v=2)
    model = ForecasterConfig(v=1, T=8, n_filters=2, kernel_size=3, gru_hidden=3)
    save_checkpoint(ckpt, init_forecaster(model), model)
    for argv in (
        ["ingest-check", "--input", str(stamped), "--timestamp-col"],
        ["train", "--input", str(data), "--config", str(config), "--window", "8", "--horizon", "2", "--seed", "3",
         "--epochs", "1", "--no-ar-shortcut", "--stride", "2"],
        ["evaluate", "--input", str(data), "--checkpoint", str(ckpt), "--stride", "7"],
        ["crossval", "--input", str(data), "--config", str(config), "--window", "8", "--epochs", "1", "--folds", "3",
         "--horizons", "3", "--radius", "2"],
        ["forecast", "--input", str(data), "--checkpoint", str(ckpt), "--steps", "2"],
        ["synth-gen", "--n-series", "2", "--length", "40", "--seed", "5"],
        ["synth-ablate", "--n-series", "4", "--length", "36", "--seeds", "0", "--eval-steps", "4",
         "--trace-series", "1", "--epochs", "1"],
    ):
        out_dir = tmp_path / argv[0]
        argv = [*argv, "--out-dir", str(out_dir)]
        assert run(argv) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        args = vars(build_parser().parse_args(argv))
        assert manifest["command"] == args.pop("command")
        del args["fn"]
        assert manifest["config"]["flags"] == args
        files = [argv[argv.index(flag) + 1] for flag in ("--input", "--checkpoint", "--config") if flag in argv]
        assert sorted(manifest["inputs"]) == sorted(files)
        assert "seeds" not in manifest


def test_an_os_error_prints_one_error_line_naming_the_path(tmp_path, capsys):
    # the OSError from making an output directory under a file was a traceback
    afile = tmp_path / "afile"
    afile.touch()
    assert run(["synth-gen", "--out-dir", str(afile / "sub")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"Not a directory: '{afile / 'sub'}'" in err and err.count("\n") == 1


def test_cli_reports_errors_with_nonzero_exit(tmp_path, capsys):
    missing = tmp_path / "no.csv"
    assert run(["ingest-check", "--input", str(missing)]) == 1
    assert "no such file" in capsys.readouterr().err


def test_cli_rejects_bad_window(tmp_path, capsys):
    data = tmp_path / "data.csv"
    _write_series_csv(data)
    code = run([
        "train", "--input", str(data), "--out-dir", str(tmp_path / "x"),
        "--window", "6",
    ])
    assert code == 1
    assert "multiple of 4" in capsys.readouterr().err