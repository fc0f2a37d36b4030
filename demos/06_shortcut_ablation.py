#!/usr/bin/env python3
# Does the linear shortcut matter? Train one model per arm of
# tscast.synth.ARMS (today: with and without the shortcut) on a synthetic
# corpus of trending, periodic series - identical except for the arm's
# fields - and compare sliding multi-step forecasts on held-out series.
#
# One seed of the full experiment: 80 series, one model per arm, roughly
# a minute of CPU. The 5-seed version lives in
# tests/test_acceptance.py::test_criterion_5 and in `tscast synth-ablate`.

from tscast.synth import SynthSpec, ablation_run

result = ablation_run(SynthSpec(seed=0), eval_steps=20)

print(f"held-out series: {len(result.traces)}  (20-step sliding forecasts)")
for name, arm in result.arms.items():
    print(f"  {name:<17} MSE {arm.mean_mse:.4f}   DTW {arm.mean_dtw:.3f}")

print("\nper-series MSE (" + " vs ".join(result.arms) + ", * marks the lowest):")
for i, row in enumerate(zip(*(arm.mse_per_series for arm in result.arms.values()))):
    print(f"  series {i}: " + "  ".join(f"{m:.4f}{'*' if m == min(row) else ' '}" for m in row))

# Inspect one trace: truth vs every arm's prediction over the forecast span.
trace = result.traces[0]
start = trace["start"]
print(f"\ntrace for held-out series {trace['series_index']} (forecast starts at t={start}):")
print("   t   truth " + " ".join(f"{name:>17}" for name in result.arms))
for step in range(0, result.eval_steps, 4):
    print(
        f"  {start + step:3d}  {trace['truth'][start + step]:6.3f} "
        + " ".join(f"{trace[name][step]:17.3f}" for name in result.arms)
    )
