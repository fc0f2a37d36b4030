#!/usr/bin/env python3
# A tour of the tensor engine: record a computation on a tape, run the
# reverse sweep, and check the result against central finite differences.

import numpy as np

from tscast.autodiff import (
    Tape,
    Tensor,
    backward,
    causal_conv1d,
    constant,
    finite_diff_grad,
    matmul,
    mean_all,
    relu,
    sigmoid,
)

rng = np.random.default_rng(0)

# Leaves are plain tensors; requires_grad marks the ones we differentiate.
w = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
x = constant(rng.normal(size=(4, 1)))  # matmul takes matrices: x is a column

# Operations only record when a tape is active.
# backward consumes the tape, freeing each record once it has been swept.
with Tape() as tape:
    y = sigmoid(matmul(w, x))
    loss = mean_all(y * y)
    recorded = len(tape)
    backward(loss)
print(f"recorded {recorded} operations, {len(tape)} left after backward, loss = {loss.item():.6f}")
print("dL/dW row 0:", np.round(w.grad[0], 6))

# The engine ships its own oracle: central finite differences.
def loss_at(values):
    saved = w.values.copy()
    w.values[...] = values
    try:
        return mean_all(sigmoid(matmul(w, x)) * sigmoid(matmul(w, x))).item()
    finally:
        w.values[...] = saved

fd = finite_diff_grad(loss_at, w, 1e-5)
rel = np.max(np.abs(fd - w.grad) / np.maximum(1.0, np.abs(w.grad)))
print(f"max relative error vs finite differences: {rel:.2e}")

# Causal convolution: the kernel's last tap reads the current step, so
# nothing at time t can see times > t. Content before a perturbation
# point is reproduced bit for bit.
# Its input is a batch of (channels, time) sequences, here one of one channel.
signal = constant(rng.normal(size=(1, 1, 10)))
kernel = constant(rng.normal(size=(2, 1, 3)))
bias = constant(np.zeros(2))
base = causal_conv1d(signal, kernel, bias).values

bumped = signal.values.copy()
bumped[..., 6:] += 100.0
after = causal_conv1d(constant(bumped), kernel, bias).values
print("outputs before t=6 identical after future perturbation:",
      bool(np.array_equal(base[..., :6], after[..., :6])))

# relu's derivative at exactly zero is defined as 0.
z = Tensor(np.array([0.0]), requires_grad=True)
with Tape():
    backward(mean_all(relu(z)))
print("relu'(0) =", z.grad[0])
