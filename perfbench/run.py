"""tscast benchmark: one workload, one seed, one closed-loop process.

    python3 perfbench/run.py --workload train-default --seed 0 --seconds 55 --trace 0

Run from the root of a tscast checkout; the package is imported from its
``src/`` directory, never from an installed copy. With ``--trace 0`` the
last stdout line reports every end-to-end metric named in BENCHMARK.json;
with ``--trace 1`` every per-layer metric. The line before it records the
environment and the details behind the numbers. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

from spans import SIDE

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 8
SLOW = 0.9  # the quantile of per-unit times the rates and run_s report: the slow decile
DTW_CALLS = ("metrics.dtw_exact", "metrics.fastdtw", "metrics.dtw_multivariate")
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t0 = time.perf_counter(); "
    "import numpy, tscast; print(time.perf_counter() - t0)"
)


def _windows_trained(args, result) -> int:
    from tscast import train

    return len(train.validation_split(args[0])[0]) * len(result[1])


# public calls timed in every run; the traced run adds the rest of TRACE_TARGETS
E2E_TARGETS = {
    "train.train_model": _windows_trained,
    "train.predict_windows": lambda args, result: len(result),
    "model.forecast": None,
    "train.sliding_forecast": lambda args, result: len(result),
    "train.adam_step": None,
    **{name: lambda args, result: len(args[0]) * len(args[1]) for name in DTW_CALLS},
}
TRACE_TARGETS = {
    **E2E_TARGETS,
    **{
        name: None
        for name in (
            "autodiff.backward",
            "model.forecast_batch",
            "model.conv_features",
            "model.gru_encode",
            "model.init_forecaster",
            "model.save_checkpoint",
            "model.load_checkpoint",
            "train.mse_loss",
            "preprocess.preprocess_frame",
            "preprocess.build_windows",
            "synth.generate",
            "synth.ablation_run",
            "synth.evaluate_arm",
        )
    },
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measure whole passes until this much time has passed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the smoke tests")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json")
    ap.add_argument("--out", type=Path, default=HERE / "out", help="checkpoints and span files")
    return ap.parse_args(argv)


def environment() -> dict:
    import ctypes
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    reported = {}
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, sym):
                reported[Path(lib).name] = getattr(handle, sym)()
                break
    cpu = platform.processor()
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_fixed": BLAS_THREADS,
        "blas_threads_reported": reported,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def quantile(xs: list[float], q: float) -> float:
    """The q-quantile of the samples (inclusive method); one sample is its own."""
    return xs[0] if len(xs) == 1 else statistics.quantiles(xs, n=100, method="inclusive")[round(100 * q) - 1]


def work_pieces(spans) -> list[tuple[str, float, float]]:
    """(kind, seconds, work) of every timed piece of work in ``spans``.

    - ``step``: one optimizer step inside ``train_model``, the interval from
      one ``adam_step`` start to the next less whatever else ``train_model``
      ran in between (validation, side pieces); work is windows per step.
    - ``predict``: a side ``predict_windows`` call; work is windows.
    - ``forecast``: a side single-window ``forecast`` call.
    - ``rollout``: one slide of a ``sliding_forecast`` call, from the start
      of one of its ``forecast`` calls to the next (the last to the end of
      the rollout); work is the rollout's steps over its slides.
    - ``<dtw function>:<n*m>``: one outermost DTW call on an n by m pair.
    """
    by_id = {s.sid: s for s in spans}
    kids: dict[int, list] = {}
    for s in spans:
        kids.setdefault(s.parent, []).append(s)

    def parent_name(s):
        parent = by_id.get(s.parent)
        return parent.name if parent is not None else None

    out = []
    for s in spans:
        if s.name == "train.train_model":
            inner = kids.get(s.sid, [])
            steps = [k for k in inner if k.name == "train.adam_step"]
            others = [k for k in inner if k.name != "train.adam_step"]
            for a, b in zip(steps, steps[1:]):
                between = sum(k.end - k.start for k in others if a.start <= k.start < b.start)
                out.append(("step", b.start - a.start - between, s.count / len(steps)))
        elif s.name == "train.sliding_forecast":
            starts = [k.start for k in kids.get(s.sid, []) if k.name == "model.forecast"]
            ends = starts[1:] + [s.end]
            out.extend(("rollout", b - a, s.count / len(starts)) for a, b in zip(starts, ends))
        elif s.name in DTW_CALLS and parent_name(s) not in DTW_CALLS:
            out.append((f"{s.name}:{s.count}", s.end - s.start, 1))
        elif parent_name(s) == SIDE and s.name == "train.predict_windows":
            out.append(("predict", s.end - s.start, s.count))
        elif parent_name(s) == SIDE and s.name == "model.forecast":
            out.append(("forecast", s.end - s.start, 1))
    return out


def measure_pass(rec, wl, tally, reference):
    """One pass with its checks; returns (pass span, its spans) or None on failure."""
    gc.collect()  # no pass inherits the previous one's garbage (tape graphs are cyclic)
    first = len(rec.spans)
    try:
        with rec.span("pass") as root:
            outputs = wl.run_pass(tally, side=rec.span)
    except Exception:  # a failing program call ends the run and is counted
        traceback.print_exc()
        tally.check(f"pass raised {sys.exc_info()[0].__name__}", False)
        return None
    spans = rec.spans[first:]
    callers = {root.sid} | {s.sid for s in spans if s.name == SIDE}
    tally.attempted += sum(1 for s in spans if s.parent in callers and s.name != SIDE)
    for key, value in outputs.items():
        ref = reference.get(key)
        tally.check(f"{key} finite", math.isfinite(value))
        tally.check(f"{key} within {reference['rel_tol']:g} of reference", ref is not None and abs(value - ref) <= reference["rel_tol"] * abs(ref))
    return root, spans


def timed_setup(rec, wl):
    """One set-up in a span; returns (set-up span, its spans)."""
    gc.collect()
    first = len(rec.spans)
    with rec.span("setup") as root:
        wl.setup()
    return root, rec.spans[first:]


def fresh_import() -> float:
    """Import time of a fresh interpreter, as this run's own import."""
    cmd = [sys.executable, "-B", "-c", IMPORT_PROBE, str(ROOT / "src")]
    return float(subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120).stdout)


def summarise(setups, passes) -> tuple[dict, dict]:
    """End-to-end figures from the pieces of every set-up and pass.

    Each kind of piece gives per-unit times (seconds per window, per step,
    per call) from all through the run; a rate is one over the slow decile
    (SLOW) of its kind's unit times, the rate nine in ten pieces reach.
    ``run_s`` is one pass at that pace: the pass's work of every kind at
    its slow-decile unit time, plus the median of what the pieces leave
    over (the pass's own code, validation, the first step of every fit,
    the pieces' checks).
    """
    pass_pieces = [work_pieces(spans) for _, spans in passes]
    every = [pc for _, spans in setups for pc in work_pieces(spans)] + [pc for pcs in pass_pieces for pc in pcs]
    units: dict[str, list[float]] = {}
    for kind, secs, work in every:
        units.setdefault(kind, []).append(secs / work)
    pace = {kind: quantile(xs, SLOW) for kind, xs in units.items()}

    values = {}
    rates = (("train_windows_per_s", "step"), ("infer_windows_per_s", "predict"), ("rollout_steps_per_s", "rollout"))
    for name, kind in rates:
        if kind in pace:
            values[name] = 1.0 / pace[kind]
    if "forecast" in units:
        values["forecast_ms_p50"] = 1e3 * statistics.median(units["forecast"])
        values["forecast_ms_p90"] = 1e3 * quantile(units["forecast"], 0.9)
    dtw = {kind: n for kind, n in Counter(k for k, _, _ in every).items() if ":" in kind}
    if dtw:
        values["dtw_pairs_per_s"] = sum(dtw.values()) / sum(n * pace[kind] for kind, n in dtw.items())
    if passes:
        work: dict[str, float] = {}
        for kind, _, w in (pc for pcs in pass_pieces for pc in pcs):
            work[kind] = work.get(kind, 0.0) + w / len(passes)
        left = [root.ms / 1e3 - sum(secs for _, secs, _ in pcs) for (root, _), pcs in zip(passes, pass_pieces)]
        values["run_s"] = sum(w * pace[kind] for kind, w in work.items()) + statistics.median(left)
    detail = {
        "pieces": {k: {"n": len(xs), "median": statistics.median(xs), "slow": pace[k]} for k, xs in sorted(units.items())},
        "unit_s": {k: [float(f"{x:.4g}") for x in xs] for k, xs in sorted(units.items())},
        "pass_s": [root.ms / 1e3 for root, _ in passes],
        "left_over_s": left if passes else [],
    }
    return values, detail


def end_to_end(rec, wl, tally, reference, seconds, import_s) -> tuple[dict, dict]:
    """Set up, then run whole passes for ``seconds``, importing in a fresh
    interpreter and setting up again SETUP_REPEATS times evenly through
    it, so set-up and every kind of work are sampled all through the run.
    A pass starts only if it would end nearer the deadline than stopping
    now (and there is always at least one).

    ``setup_s`` is the slow decile of the import times (this process's and
    the fresh interpreters') plus that of the in-process set-ups.
    """
    import_s = [import_s]
    setups, passes = [], []
    with rec.patch(E2E_TARGETS):
        begin = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - begin
            if len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
                if setups:
                    import_s.append(fresh_import())
                setups.append(timed_setup(rec, wl))
                continue
            if passes and elapsed + statistics.median(r.ms for r, _ in passes) / 2e3 > seconds:
                break
            done = measure_pass(rec, wl, tally, reference)
            if done is None:
                break
            passes.append(done)
        while len(setups) < SETUP_REPEATS:
            import_s.append(fresh_import())
            setups.append(timed_setup(rec, wl))
    values, detail = summarise(setups, passes)
    values["setup_s"] = quantile(import_s, SLOW) + quantile([r.ms / 1e3 for r, _ in setups], SLOW)
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    detail.update(passes=len(passes), import_s=import_s, setup_s=[r.ms / 1e3 for r, _ in setups])
    return values, detail


def traced(rec, wl, tally, reference, args, variant) -> tuple[dict, dict]:
    """Per-layer metrics: SETUP_REPEATS traced set-ups, an untraced and a
    traced pass (their difference is the tracing overhead), then the layer
    probes."""
    import layers
    from spans import wrapper_cost_s

    with rec.patch(TRACE_TARGETS):
        setup_spans = [timed_setup(rec, wl)[1] for _ in range(SETUP_REPEATS)][-1]
    with rec.patch(E2E_TARGETS):
        plain = measure_pass(rec, wl, tally, reference)
    first = len(rec.spans)
    with rec.patch(TRACE_TARGETS):
        deep = measure_pass(rec, wl, tally, reference)
    pass_spans = rec.spans[first:]
    if plain is None or deep is None:
        return {}, {}
    values, detail = layers.profile(rec, wl, wl.p["reps"], variant, args.out)

    for name in ("synth.generate", "preprocess.preprocess_frame", "preprocess.build_windows"):
        values[f"{name}_ms"] = statistics.median(s.ms for s in rec.spans[:first] if s.name == name)
    by_id = {s.sid: s for s in rec.spans}
    values["train.steps"] = sum(
        1
        for s in setup_spans + pass_spans
        if s.name == "train.adam_step" and s.parent is not None and by_id[s.parent].name == "train.train_model"
    )
    untraced_s, traced_s = plain[0].ms / 1e3, deep[0].ms / 1e3
    values["trace.overhead_pct"] = 100.0 * (traced_s / untraced_s - 1.0)
    span_file = args.out / f"trace-{wl.name}-seed{args.seed}.json"
    rec.dump(span_file)
    wrapper_s = wrapper_cost_s()
    detail.update(
        {
            "untraced_pass_s": untraced_s,
            "traced_pass_s": traced_s,
            "traced_pass_spans": len(pass_spans),
            "wrapper_cost_us": wrapper_s * 1e6,
            "overhead_from_span_count_pct": 100.0 * len(pass_spans) * wrapper_s / untraced_s,
            "traced_pass_self_ms": rec.self_times(pass_spans),
            "span_file": str(span_file),
        }
    )
    return values, detail


def bootstrap() -> float:
    """Fix the BLAS thread count, import tscast from this checkout's src/
    and return the import time in seconds; exits with code 2 without it."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)
    sys.dont_write_bytecode = True  # every run compiles the same sources: steady import time
    src = ROOT / "src"
    if not (src / "tscast" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no tscast sources under {src}; run from a tscast checkout", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import numpy  # noqa: F401
    import tscast

    import_s = time.perf_counter() - t0
    if Path(tscast.__file__).resolve().parent != (src / "tscast").resolve():
        print(f"perfbench: imported tscast from {tscast.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)
    return import_s


def main(argv=None) -> int:
    args = parse_args(argv)
    import_s = bootstrap()
    import workloads
    from spans import Recorder

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    variant = args.seed % workloads.VARIANTS
    refs = json.loads(args.reference.read_text(encoding="utf-8"))
    reference = {"rel_tol": refs["rel_tol"], **refs[args.workload][args.size].get(str(variant), {})}
    args.out.mkdir(parents=True, exist_ok=True)

    wl = workloads.WORKLOADS[args.workload](args.size, variant, args.out)
    rec, tally = Recorder(), workloads.Tally()
    if args.trace:
        values, detail = traced(rec, wl, tally, reference, args, variant)
    else:
        values, detail = end_to_end(rec, wl, tally, reference, args.seconds, import_s)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    header = {
        "workload": args.workload,
        "seed": args.seed,
        "variant": variant,
        "size": args.size,
        "trace": args.trace,
        "env": environment(),
        "detail": detail,
        "failures": tally.failures[:20],
        "missing": missing,
        "not_in_spec": {k: v for k, v in values.items() if k not in {m["name"] for m in wanted}},
    }
    print(json.dumps(header, default=float))
    if missing:
        print(f"perfbench: no value for {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
