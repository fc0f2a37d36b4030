"""Every integer count goes through ``preprocess.check_integer``: a float, a
bool or a value below the least raises a ValueError that starts with the
argument's name, before any model trains or any file is written."""

import re

import numpy as np
import pytest

from tscast import synth, train
from tscast.cli import build_parser
from tscast.metrics import dtw_multivariate, fastdtw
from tscast.model import ForecasterConfig, init_forecaster
from tscast.preprocess import SeriesFrame, blocked_kfold, build_windows, downsample_avg
from tscast.synth import SynthSpec, ablation_run, evaluate_arm
from tscast.train import TrainConfig, cross_validate, sliding_forecast

FRAME = SeriesFrame(["y"], np.sin(np.arange(60.0) / 4.0)[:, None])
MODEL = ForecasterConfig(v=1, T=8, L=1, n_filters=2, kernel_size=3, gru_hidden=3)
TRAIN = TrainConfig(epochs=1)
PARAMS = init_forecaster(MODEL)


def _cli(*argv):
    """A command's function, called on ``argv[:-1]`` parsed, with the
    attribute ``argv[-1]`` set to the value."""

    def call(value):
        args = build_parser().parse_args(list(argv[:-1]))
        setattr(args, argv[-1], value)
        return args.fn(args)

    return call


# the name each message starts with, the least value, and a call that passes the value
ENTRY_POINTS = {
    "ForecasterConfig": ("config field T", 1, lambda x: ForecasterConfig(v=1, T=x)),
    "TrainConfig": ("config field epochs", 0, lambda x: TrainConfig(epochs=x)),
    "fastdtw": ("radius", 0, lambda x: fastdtw([1.0, 2.0], [1.0], x)),
    "dtw_multivariate": ("radius", 0, lambda x: dtw_multivariate(np.zeros((3, 1)), np.zeros((3, 1)), x)),
    "cross_validate-radius": ("radius", 0, lambda x: cross_validate(FRAME, MODEL, TRAIN, k=3, horizons=(3,), dtw_radius=x)),
    "cross_validate-horizon": ("horizon", 1, lambda x: cross_validate(FRAME, MODEL, TRAIN, k=3, horizons=(x,))),
    "cross_validate-k": ("k", 2, lambda x: cross_validate(FRAME, MODEL, TRAIN, k=x)),
    "cross_validate-stride": ("stride", 1, lambda x: cross_validate(FRAME, MODEL, TRAIN, k=3, stride=x)),
    "downsample_avg": ("factor", 1, lambda x: downsample_avg(np.arange(8.0), x)),
    "build_windows-T": ("T", 1, lambda x: build_windows(FRAME, x, 1)),
    "build_windows-L": ("L", 1, lambda x: build_windows(FRAME, 8, x)),
    "build_windows-stride": ("stride", 1, lambda x: build_windows(FRAME, 8, 1, x)),
    "blocked_kfold-n_windows": ("n_windows", 0, lambda x: blocked_kfold(x, 3)),
    "blocked_kfold-k": ("k", 2, lambda x: blocked_kfold(10, x)),
    "SynthSpec-n_series": ("n_series", 1, lambda x: SynthSpec(n_series=x)),
    "SynthSpec-length": ("length", 8, lambda x: SynthSpec(length=x)),
    "SynthSpec-seed": ("seed", 0, lambda x: SynthSpec(seed=x)),
    "sliding_forecast-start": ("start", 0, lambda x: sliding_forecast(PARAMS, MODEL, FRAME.data, x, 2)),
    "sliding_forecast-total_steps": ("total_steps", 1, lambda x: sliding_forecast(PARAMS, MODEL, FRAME.data, 20, x)),
    "evaluate_arm": ("eval_steps", 1, lambda x: evaluate_arm(build_windows(FRAME, 8, 1), [FRAME.data], MODEL, TRAIN, x)),
    "ablation_run": ("eval_steps", 1, lambda x: ablation_run(SynthSpec(n_series=6, length=40), MODEL, TRAIN, x)),
    "tscast train": ("--window", 1, _cli("train", "--input", "series.csv", "--out-dir", "t", "window")),
    "tscast crossval": ("--radius", 0, _cli("crossval", "--input", "series.csv", "--out-dir", "cv", "radius")),
    "tscast synth-ablate": ("--trace-series", 0, _cli("synth-ablate", "--seeds", "0", "--out-dir", "ab", "trace_series")),
}


@pytest.mark.parametrize(
    "entry, value",
    [(entry, value) for entry in ENTRY_POINTS for value in (8.0, True, "below")],
)
def test_a_bad_count_fails_by_name_before_any_work(monkeypatch, tmp_path, entry, value):
    name, least, call = ENTRY_POINTS[entry]
    value = least - 1 if value == "below" else value
    calls = []
    for module in (train, synth):
        monkeypatch.setattr(module, "train_model", lambda *args: calls.append(args))
    monkeypatch.chdir(tmp_path)
    with pytest.raises(ValueError, match=f"^{re.escape(name)} must be an integer >= {least}, got {value!r}$"):
        call(value)
    assert calls == []
    assert list(tmp_path.iterdir()) == []

