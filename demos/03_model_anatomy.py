#!/usr/bin/env python3
# Inside one forecast: three input resolutions, conv feature stacks, GRU
# encoders, per-step output heads, and the linear shortcut that is summed
# with the network output.

import numpy as np

from tscast.model import (
    ForecasterConfig,
    ar_predict,
    conv_features,
    count_parameters,
    forecast,
    gru_encode,
    init_forecaster,
    multiscale_inputs,
)

config = ForecasterConfig(v=2, T=16, L=3, n_filters=4, kernel_size=5, gru_hidden=6, seed=3)
params = init_forecaster(config)
print(f"parameters: {params.n_parameters()} (closed form: {count_parameters(config)})")

rng = np.random.default_rng(3)
window = np.cumsum(rng.normal(size=(16, 2)), axis=0)

# Every piece below forecast takes a leading batch axis; here the batch
# holds one window. It becomes three series: full, half and quarter
# resolution, each (B, T_r, v).
batch = window[None]
s, s_half, s_quarter = multiscale_inputs(batch)
print("resolutions:", s.shape, s_half.shape, s_quarter.shape)

# Each resolution runs its own conv stack (two causal layers + relu) on
# channel-major (B, v, T_r) input and its own GRU, which returns one
# (B, H) row of state per window; the heads read the concatenated states.
features = conv_features(s.transpose(0, 2, 1), params.full)
print("full-resolution features:", features.shape)
h = gru_encode(features, params.full.gru)
print("encoded state:", h.shape)

# The L per-step heads are one affine map stored side by side: head t owns
# columns (t-1)*v .. t*v-1 of the stacked (3H, L*v) weight and (L*v,) bias.
print("stacked heads:", params.heads.w.shape, params.heads.b.shape, "for L =", params.heads.L)

prediction = forecast(window, params, config)
print("forecast shape:", prediction.values.shape, "(L steps x v variables)")

# The shortcut regresses each variable's last 5 values through shared
# weights. With the heads zeroed the model IS the shortcut:
params.heads.w.values[...] = 0.0
params.heads.b.values[...] = 0.0
only_shortcut = forecast(window, params, config).values
shortcut_alone = ar_predict(batch, params.shortcut).values[:, 0]
print("heads zeroed -> forecast equals the shortcut:",
      bool(np.array_equal(only_shortcut, shortcut_alone)))

# Classic shortcut trick: weights [0,0,0,-1,2] extrapolate a line exactly.
params.shortcut.w.values[...] = 0.0
params.shortcut.b.values[...] = 0.0
for step in range(1, config.L + 1):
    params.shortcut.w.values[-1, step - 1] = 1.0 + step
    params.shortcut.w.values[-2, step - 1] = -step
line = (0.5 * np.arange(30.0) - 2.0)[:, None] @ np.ones((1, 2))
pred = forecast(line[:16], params, config).values
print("affine series, max extrapolation error:", np.max(np.abs(pred - line[16:19])))
