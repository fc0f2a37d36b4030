"""Dense float64 tensors with tape-based reverse-mode differentiation.

Operations executed inside a ``with Tape():`` block are recorded in
execution order, each as a triple ``(output, inputs, grad_fn)``, and the
output's ``node`` is a weak reference to the tape. :func:`backward` sweeps
the records once, in reverse, and accumulates gradients into every
recorded tensor that requires them. The sweep consumes the tape: each
record, with the arrays its ``grad_fn`` saved, and each intermediate
gradient is freed as soon as the sweep has used it, so memory falls as
backward runs (activations are freed in the order the backward pass of
Chen et al., 2016, "Training Deep Nets with Sublinear Memory Cost",
frees them; nothing is recomputed). Each op keeps in its record only
what its backward needs and cannot get back for free; the op docstrings
say what that is. Outside a tape block the same functions run as plain
numpy computations and ``node`` stays None, which makes inference on
frozen parameters free of bookkeeping.

The operation set is deliberately small:

- elementwise add / sub / mul, which broadcast like numpy;
- matmul of two matrices, and causal_conv1d over a (B, C_in, T) batch,
  computed as one product per kernel tap (a GEMM, or a broadcast
  multiply when there is one input channel);
- gru_sequence, a whole GRU recurrence over a (B, C, T) batch as one
  record with a hand-written backpropagation through time, returning the
  batch-major (B, H) final state; its weights come stacked, one (3H, ...)
  tensor per kind with the gate rows in z, r, h order, and its steps
  write into buffers allocated once per call, laid out so that every
  per-step operand is a contiguous block (gates stored gate-major);
- the pointwise nonlinearities relu / sigmoid / tanh (sigmoid takes exp
  of -|x| only, so it never overflows, and needs no select on the sign);
- the shape and reduction helpers concat, transpose (any axis
  permutation), reshape and mean_all.

Everything is computed in double precision with a fixed summation order,
so that identical inputs give bit-identical values and gradients at a
fixed BLAS thread count. The relu derivative at exactly zero is defined as
zero.

The kernels are written for a low fixed cost per numpy call, because a
one-window forecast makes several hundred of them on tiny arrays: they
call ufuncs directly with ``out`` instead of augmented operators, pass
scalars as the 0-d arrays ``_ZERO``, ``_ONE`` and ``_MINUS_ONE`` (a Python
float is converted again on every call), and take no bool-to-float cast.
The recurrence's hot loops bind their ufuncs to locals and pass ``out``
positionally, except to ``np.maximum``, where numpy 2.4 deprecates that.
At B >= 32 a ufunc call on a strided (B, H) view costs about 2.5 times a
contiguous one, so a GRU step makes one strided call forward and two in
backward, each a write of a gate block.
"""

from __future__ import annotations

import itertools
import threading
import weakref

import numpy as np

__all__ = [
    "DimensionError",
    "Tape",
    "Tensor",
    "backward",
    "causal_conv1d",
    "concat",
    "constant",
    "finite_diff_grad",
    "gru_sequence",
    "matmul",
    "mean_all",
    "relu",
    "reshape",
    "sigmoid",
    "tanh",
    "transpose",
]


class DimensionError(ValueError):
    """Raised when operand shapes do not fit an operation's contract."""


# scalar operands of the kernels' ufunc calls, converted once
_ZERO, _ONE, _MINUS_ONE = np.array(0.0), np.array(1.0), np.array(-1.0)


class _TapeStacks(threading.local):
    """The open tapes of each thread, innermost last; every thread that
    touches ``tapes`` gets its own list."""

    def __init__(self):
        self.tapes: list[Tape] = []


_state = _TapeStacks()


class Tape:
    """Ordered record of one forward pass, swept once by backward().

    Each record is a triple ``(output, inputs, grad_fn)``: the produced
    tensor, the operand tensors, and the rule mapping the output's gradient
    to one gradient (or None) per input. backward() pops the records as it
    sweeps them, so afterwards the tape is empty and ``len(tape)`` is 0;
    count the records before calling it. A tape is single-writer: one
    forward/backward pass at a time. Each thread has its own stack of open
    tapes, so a tape opened in one thread never records another thread's
    ops. Recorded tensors refer to their tape only weakly, so call
    backward while the tape is alive, inside its ``with`` block; a finished
    tape is freed by reference counting as soon as the caller drops it.
    """

    def __init__(self):
        self._records = []  # (output, inputs, grad_fn) in execution order

    def __enter__(self) -> "Tape":
        _state.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _state.tapes.pop()

    def __len__(self) -> int:
        return len(self._records)


def active_tape() -> Tape | None:
    tapes = _state.tapes
    return tapes[-1] if tapes else None


class Tensor:
    """A dense float64 array with an optional gradient slot.

    Tensors made directly (parameters, data) are leaves with ``node``
    None. A tensor returned by an operation under an active tape has as
    ``node`` a weak reference to that tape, so records and tensors form no
    cycle. Tensors without a node are immutable by convention and safe to
    share across threads.
    """

    __slots__ = ("values", "grad", "node", "requires_grad", "__weakref__")

    def __init__(self, values, requires_grad: bool = False):
        v = values
        # an op's own result is usually stored as it is: skip the conversions
        if type(v) is not np.ndarray or v.dtype != np.float64 or not v.flags.c_contiguous:
            v = np.asarray(values, dtype=np.float64)
            if v.ndim > 0 and not v.flags["C_CONTIGUOUS"]:
                v = np.ascontiguousarray(v)  # row-major storage; keeps 0-d scalars 0-d
        self.values = v
        self.grad: np.ndarray | None = None
        self.node: weakref.ref | None = None
        self.requires_grad = bool(requires_grad)

    @property
    def shape(self) -> tuple:
        return self.values.shape

    @property
    def size(self) -> int:
        return self.values.size

    def zero_grad(self) -> None:
        self.grad = None

    def item(self) -> float:
        if self.values.size != 1:
            raise DimensionError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.values.reshape(()))

    def __repr__(self) -> str:
        flags = "param" if self.requires_grad else ("op" if self.node else "const")
        return f"Tensor(shape={self.shape}, {flags})"

    # arithmetic sugar; scalars are treated as constants
    def __add__(self, other):
        return add(self, other)

    __radd__ = __add__

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)


def constant(values) -> Tensor:
    """Wrap an array as a non-differentiable leaf."""
    return Tensor(values)


def _as_tensor(x) -> Tensor:
    if isinstance(x, Tensor):
        return x
    return Tensor(np.asarray(x, dtype=np.float64))


def _live(t: Tensor) -> bool:
    return t.requires_grad or t.node is not None


def _record(out: Tensor, inputs: tuple, grad_fn) -> Tensor:
    tape = active_tape()
    if tape is None or not any(_live(t) for t in inputs):
        return out
    out.node = weakref.ref(tape)
    tape._records.append((out, inputs, grad_fn))
    return out


# ---------------------------------------------------------------------------
# elementwise arithmetic


def _operands(name: str, a, b) -> tuple[Tensor, Tensor]:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            raise DimensionError(f"{name}: shapes {a.shape} and {b.shape} do not broadcast") from None
    return a, b


def _reduce_to(g: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum a gradient over the axes along which its operand was broadcast."""
    if g.shape == shape:
        return g
    lead = g.ndim - len(shape)
    axes = tuple(range(lead)) + tuple(lead + i for i, n in enumerate(shape) if n == 1)
    return np.sum(g, axis=axes, keepdims=True).reshape(shape)


def add(a, b) -> Tensor:
    """a + b. Its record keeps nothing but the operands."""
    a, b = _operands("add", a, b)
    out = Tensor(a.values + b.values)

    def grad_fn(g, needs):
        ga = _reduce_to(g, a.shape) if needs[0] else None
        gb = _reduce_to(g, b.shape) if needs[1] else None
        return ga, gb

    return _record(out, (a, b), grad_fn)


def sub(a, b) -> Tensor:
    """a - b. Its record keeps nothing but the operands."""
    a, b = _operands("sub", a, b)
    out = Tensor(a.values - b.values)

    def grad_fn(g, needs):
        ga = _reduce_to(g, a.shape) if needs[0] else None
        gb = _reduce_to(-g, b.shape) if needs[1] else None
        return ga, gb

    return _record(out, (a, b), grad_fn)


def mul(a, b) -> Tensor:
    """a * b. Its record keeps the operands, whose values are each other's
    gradient factors."""
    a, b = _operands("mul", a, b)
    out = Tensor(a.values * b.values)

    def grad_fn(g, needs):
        ga = _reduce_to(g * b.values, a.shape) if needs[0] else None
        gb = _reduce_to(g * a.values, b.shape) if needs[1] else None
        return ga, gb

    return _record(out, (a, b), grad_fn)


# ---------------------------------------------------------------------------
# linear maps


def matmul(a, b) -> Tensor:
    """Product of two matrices. The record keeps the operands."""
    a, b = _as_tensor(a), _as_tensor(b)
    av, bv = a.values, b.values
    if av.ndim != 2 or bv.ndim != 2 or av.shape[1] != bv.shape[0]:
        raise DimensionError(f"matmul: cannot multiply {av.shape} @ {bv.shape}")
    out = Tensor(av @ bv)

    def grad_fn(g, needs):
        ga = g @ bv.T if needs[0] else None
        gb = av.T @ g if needs[1] else None
        return ga, gb

    return _record(out, (a, b), grad_fn)


def _padded_rows(xb: np.ndarray, span: int) -> np.ndarray:
    """(B, C, T) as time-major rows (B * span, C), each sequence left-padded
    with span - T zero rows."""
    n, c_in, t_len = xb.shape
    xp = np.zeros((n, span, c_in))
    xp[:, span - t_len :, :] = xb.transpose(0, 2, 1)
    return xp.reshape(n * span, c_in)


def causal_conv1d(x, w, b) -> Tensor:
    """Causal 1-d convolution: left-pad with K-1 zeros, keep length.

    ``x`` is (B, C_in, T), ``w`` is (C_out, C_in, K) and ``b`` is
    (C_out,); the output is (B, C_out, T). The kernel's last tap
    w[..., K-1] multiplies the current time step, so output at time t
    depends only on inputs at times <= t.

    The forward pass and both gradients are one GEMM per tap on shifted
    views of the padded input; no K-fold copy of the input is made. With
    one input channel the forward tap products are broadcast multiplies,
    which give the same values as GEMMs with an inner dimension of one.

    The record keeps the operands and the (K, C_in, C_out) tap matrix. The
    padded time-major copy of the input is not kept: the weight gradient
    rebuilds it from the input with the same two numpy calls.
    """
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    xv, wv, bv = x.values, w.values, b.values
    if wv.ndim != 3 or bv.ndim != 1 or wv.shape[0] != bv.shape[0]:
        raise DimensionError(f"causal_conv1d: weight {wv.shape} / bias {bv.shape}")
    if xv.ndim != 3 or xv.shape[1] != wv.shape[1]:
        raise DimensionError(f"causal_conv1d: input {xv.shape} does not match weight {wv.shape}")
    c_out, c_in, k = wv.shape
    n, _, t_len = xv.shape
    if xv.size == 0 or wv.size == 0:  # no sequence, step, channel or tap
        raise DimensionError(f"causal_conv1d: empty operand (input {xv.shape}, weight {wv.shape})")

    # Time-major rows: row j of the flattened padded input is sequence
    # j // span at padded time j % span, so output row j is the sum over taps
    # of xf[j + tap] @ w[:, :, tap].T. The first `rows` rows cover every
    # sequence's T outputs; rows whose taps would reach into the next
    # sequence (padded times >= T) are computed and dropped.
    span = t_len + k - 1
    rows = n * span - (k - 1)
    xf = _padded_rows(xv, span)
    taps = np.ascontiguousarray(wv.transpose(2, 1, 0))  # (K, C_in, C_out)
    yf = np.empty((n * span, c_out))
    prod = np.empty((rows, c_out))
    # With one input channel a tap's GEMM has K=1: each entry is a single
    # product, which a broadcast multiply gives with the same value.
    tap_product = np.multiply if c_in == 1 else np.matmul
    acc = yf[:rows]
    tap_product(xf[:rows], taps[0], out=acc)
    for tap in range(1, k):
        np.add(acc, tap_product(xf[tap : tap + rows], taps[tap], out=prod), out=acc)
    out_v = np.empty((n, c_out, t_len))
    np.add(yf.reshape(n, span, c_out)[:, :t_len, :].transpose(0, 2, 1), bv[:, None], out=out_v)
    out = Tensor(out_v)

    def grad_fn(g, needs):
        gx = gw = gb = None
        gy = np.zeros((n, span, c_out))
        gy[:, :t_len, :] = g.transpose(0, 2, 1)
        gyf = gy.reshape(n * span, c_out)[:rows]  # dropped rows get zero gradient
        if needs[0]:
            gxf = np.zeros((n * span, c_in))
            back = np.empty((rows, c_in))
            for tap in range(k):
                acc = gxf[tap : tap + rows]
                np.add(acc, np.matmul(gyf, taps[tap].T, out=back), out=acc)
            gx = np.ascontiguousarray(gxf.reshape(n, span, c_in)[:, k - 1 :, :].transpose(0, 2, 1))
        if needs[1]:
            xf = _padded_rows(xv, span)  # rebuilt, not kept from the forward pass
            gtaps = np.stack([xf[tap : tap + rows].T @ gyf for tap in range(k)])  # (K, C_in, C_out)
            gw = np.ascontiguousarray(gtaps.transpose(2, 1, 0))
        if needs[2]:
            gb = g.sum(axis=(0, 2))
        return gx, gw, gb

    return _record(out, (x, w, b), grad_fn)


# ---------------------------------------------------------------------------
# recurrent sequence op


def _sigmoid(v: np.ndarray, out: np.ndarray, e: np.ndarray, num: np.ndarray | None = None) -> np.ndarray:
    """Logistic function of ``v`` written into ``out``, which may be ``v``.

    ``e`` is scratch of the same shape, and so is ``num``, which holds the
    numerator (``out`` when not given) and may be ``v``. With
    e = exp(-|v|), exp never overflows and e lies in [0, 1]. The numerator
    max(e, copysign(1, v)) is max(e, 1) = 1 for v >= +0 and max(e, -1) = e
    for v <= -0, where e = 1 exactly at -0; so it equals max(e, v >= 0) for
    every input, NaN included (e is NaN and max propagates it), without a
    bool-to-float cast. A single divide then gives 1 / (1 + e) or
    e / (1 + e) without a select on the sign, with the same bits as the
    two-divide form, ±0, subnormals, ±inf and NaN included. Only that
    divide writes ``out``, so ``out`` can be a strided view while the other
    calls run on contiguous scratch.
    """
    if num is None:
        num = out
    np.copysign(v, _MINUS_ONE, e)  # -|v|
    np.exp(e, e)
    np.copysign(_ONE, v, num)
    np.maximum(e, num, out=num)  # numpy 2.4 deprecates a positional out for maximum
    np.add(e, _ONE, e)
    np.divide(num, e, out)
    return out


def _time_major(xv: np.ndarray) -> np.ndarray:
    """(B, C, T) as time-major rows (T * B, C)."""
    n, c_in, t_len = xv.shape
    return xv.transpose(2, 0, 1).reshape(t_len * n, c_in)


def gru_sequence(x, w, u, b) -> Tensor:
    """Run a GRU over a whole sequence from a zero state, as one tape record.

    ``x`` is (B, C, T). ``w`` (3H, C), ``u`` (3H, H) and ``b`` (3H,) are
    the input weights, recurrent weights and biases of the three gates
    stacked by rows in z, r, h order, so W_z = w[:H], W_r = w[H:2H] and
    W_h = w[2H:]. Returns the final hidden state as (B, H), one row per
    sequence. Each step, from h = 0:

        z = sigmoid(W_z x_t + U_z h + b_z)
        r = sigmoid(W_r x_t + U_r h + b_r)
        cand = tanh(W_h x_t + U_h (r * h) + b_h)
        h = (1 - z) * h + z * cand

    Every per-step operand of a ufunc call is a contiguous (B, H) or
    (B, 2H) block, because a call on a strided column block costs about
    2.5 times as much at B >= 32. The input projections of all steps are
    two GEMMs on the (T*B, C) input rows, one per row block of ``w``,
    giving the time-major (T, B, 2H) gate and (T, B, H) candidate
    projections with their biases added in place. The gate activations are
    stored gate-major, (T, 2, B, H): the sigmoid runs on contiguous scratch
    and only its last divide writes the strided (B, 2, H) view of the
    step, so z and r are contiguous blocks. Backward is hand-written
    backpropagation through time into the gate pre-activation gradients
    (T, B, 3H); a step writes that array twice through strided views (the
    candidate block, and the gate block once from a gate-major scratch),
    and its two recurrent GEMMs read those blocks in place. A step makes
    no other strided call.

    Both sweeps write each step into arrays allocated once per call, and
    walk the per-step blocks of those arrays as views zipped over the time
    axis (the transposed ``u`` blocks too are taken once per call), so a
    step pays for its ufunc calls and no indexing. Untaped, the state
    alternates between two rows.

    The record keeps the operands, the T + 1 states, the T gate pairs and
    the T candidates. r * h is written each step into one scratch row;
    backward, once its sweep has spent the candidates, fills their buffer
    with every step's r * h in one multiply, the same products bit for
    bit. The time-major input rows are rebuilt from the input.
    """
    x, w, u, b = (_as_tensor(t) for t in (x, w, u, b))
    xv = x.values
    if xv.ndim != 3:
        raise DimensionError(f"gru_sequence: expected input (B, C, T), got {xv.shape}")
    n, c_in, t_len = xv.shape
    hidden = u.shape[-1] if u.values.ndim else 0
    if hidden < 1 or (w.shape, u.shape, b.shape) != ((3 * hidden, c_in), (3 * hidden, hidden), (3 * hidden,)):
        raise DimensionError(
            f"gru_sequence: w {w.shape}, u {u.shape} and b {b.shape} do not match "
            f"(3H, C), (3H, H) and (3H,) for input {xv.shape}"
        )
    if t_len < 1:
        raise ValueError("gru_sequence: empty sequence")

    inputs = (x, w, u, b)
    keep = active_tape() is not None and any(_live(t) for t in inputs)
    h2 = 2 * hidden
    u_zr, u_h = u.values[:h2], u.values[h2:]  # row views (2H, H), (H, H)
    u_zr_t, u_h_t = u_zr.T, u_h.T
    rows_in = _time_major(xv)
    p_zr = rows_in @ w.values[:h2].T
    np.add(p_zr, b.values[:h2], p_zr)
    p_h = rows_in @ w.values[h2:].T
    np.add(p_h, b.values[h2:], p_h)
    del rows_in

    # Per step: the state entering it, the gates [z, r] and the candidate;
    # r * h goes to one scratch row. Without a tape only the latest step is
    # held, and the state alternates between two rows. Every per-step view
    # is made here, before the loop, or by the iterators it zips.
    depth = t_len if keep else 1
    hs = np.zeros((depth + 1, n, hidden))
    zrs = np.empty((depth, 2, n, hidden))  # gate-major: zrs[t, 0] is z, zrs[t, 1] is r
    zrs_bm = zrs.transpose(0, 2, 1, 3)  # the (B, 2, H) view of each step, which the sigmoid writes
    cands = np.empty((depth, n, hidden))
    rh = np.empty((n, hidden))  # r * h of the current step only
    a, e = np.empty((2, n, h2))  # gate pre-activations [z, r] and sigmoid scratch
    a3, e3 = a.reshape(n, 2, hidden), e.reshape(n, 2, hidden)
    if keep:
        rows = zip(hs[:-1], hs[1:], zrs_bm, zrs[:, 0], zrs[:, 1], cands)
    else:
        step = zrs_bm[0], zrs[0, 0], zrs[0, 1], cands[0]
        rows = itertools.cycle([(hs[0], hs[1], *step), (hs[1], hs[0], *step)])
    dot, add, mul, sub, tanh_, sigmoid_ = np.dot, np.add, np.multiply, np.subtract, np.tanh, _sigmoid
    for pz, ph, (h, h_next, zr, z, r, cand) in zip(
        p_zr.reshape(t_len, n, h2), p_h.reshape(t_len, n, hidden), rows
    ):
        dot(h, u_zr_t, a)
        add(a, pz, a)
        sigmoid_(a3, zr, e3, a3)
        mul(r, h, rh)
        dot(rh, u_h_t, cand)
        add(cand, ph, cand)
        tanh_(cand, cand)
        sub(cand, h, h_next)
        mul(h_next, z, h_next)
        add(h_next, h, h_next)  # h + z * (cand - h)
    out = Tensor(hs[t_len if keep else t_len % 2])

    def grad_fn(g, needs):
        da = np.empty((t_len, n, 3 * hidden))  # gradient of the gate pre-activations
        dh = g.copy()
        dcand, drh, tmp = np.empty((3, n, hidden))  # drh: gradient of r * h
        s, f = np.empty((2, 2, n, hidden))  # gate-major [dh * (cand - h), drh * h] and zr * (1 - zr)
        s_z, s_r = s
        one = _ONE
        zrs_b, da_b = zrs[::-1], da[::-1]  # time-reversed views
        da_zr_gm = da_b[:, :, :h2].reshape(t_len, n, 2, hidden).transpose(0, 2, 1, 3)
        for h, zr, z, r, cand, da_zr, da_zr_g, da_h in zip(
            hs[-2::-1], zrs_b, zrs_b[:, 0], zrs_b[:, 1], cands[::-1],
            da_b[:, :, :h2], da_zr_gm, da_b[:, :, h2:],
        ):
            mul(dh, z, dcand)
            mul(cand, cand, tmp)
            sub(one, tmp, tmp)
            mul(dcand, tmp, da_h)
            dot(da_h, u_h, drh)
            sub(cand, h, tmp)
            mul(dh, tmp, s_z)
            mul(drh, h, s_r)
            sub(one, zr, f)
            mul(f, zr, f)
            mul(s, f, da_zr_g)
            # dh = ((dh - dcand) + drh * r) + da_zr @ u_zr, in that order
            sub(dh, dcand, dh)
            add(dh, mul(drh, r, tmp), dh)
            add(dh, dot(da_zr, u_zr, tmp), dh)

        da_rows = da.reshape(t_len * n, 3 * hidden)
        gx = None
        if needs[0]:
            gx = np.ascontiguousarray((da_rows @ w.values).reshape(t_len, n, c_in).transpose(1, 2, 0))
        gu_zr = da_rows[:, :h2].T @ hs[:-1].reshape(t_len * n, hidden)
        # the candidates are spent: refill their buffer with every step's r * h
        rhs = np.multiply(zrs[:, 1], hs[:-1], out=cands)
        gu_h = da_rows[:, h2:].T @ rhs.reshape(t_len * n, hidden)
        gw = da_rows.T @ _time_major(xv)  # the input rows, rebuilt rather than kept
        return gx, gw, np.concatenate([gu_zr, gu_h]), da_rows.sum(axis=0)

    return _record(out, inputs, grad_fn)


# ---------------------------------------------------------------------------
# pointwise nonlinearities


def relu(x) -> Tensor:
    """max(x, 0). Its record keeps only the output: out > 0 exactly where
    x > 0 (the subgradient at 0 is 0; NaN and -0 count as not positive in
    both), so backward takes the mask from the output."""
    x = _as_tensor(x)
    out_v = np.maximum(x.values, _ZERO)
    out = Tensor(out_v)

    def grad_fn(g, needs):
        return (g * np.greater(out_v, _ZERO),) if needs[0] else (None,)

    return _record(out, (x,), grad_fn)


def sigmoid(x) -> Tensor:
    """Logistic function. Its record keeps only the output."""
    x = _as_tensor(x)
    s = _sigmoid(x.values, np.empty(x.shape), np.empty(x.shape))
    out = Tensor(s)

    def grad_fn(g, needs):
        return (g * s * (1.0 - s),) if needs[0] else (None,)

    return _record(out, (x,), grad_fn)


def tanh(x) -> Tensor:
    """Hyperbolic tangent. Its record keeps only the output."""
    x = _as_tensor(x)
    th = np.tanh(x.values)
    out = Tensor(th)

    def grad_fn(g, needs):
        return (g * (1.0 - th * th),) if needs[0] else (None,)

    return _record(out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# shape helpers


def concat(tensors, axis: int = 0) -> Tensor:
    """Join tensors along ``axis``. Its record keeps the operands and their
    offsets along it."""
    tensors = [_as_tensor(t) for t in tensors]
    if not tensors:
        raise DimensionError("concat: no tensors")
    out = Tensor(np.concatenate([t.values for t in tensors], axis=axis))
    offsets = [0]
    for t in tensors:
        offsets.append(offsets[-1] + t.values.shape[axis])

    def grad_fn(g, needs):
        pieces = []
        for i in range(len(tensors)):
            if needs[i]:
                sl = [slice(None)] * g.ndim
                sl[axis] = slice(offsets[i], offsets[i + 1])
                pieces.append(g[tuple(sl)])
            else:
                pieces.append(None)
        return tuple(pieces)

    return _record(out, tuple(tensors), grad_fn)


def transpose(x, axes) -> Tensor:
    """Permute the axes of ``x`` as ``np.transpose`` does, into a
    row-major copy.

    ``axes`` is a permutation of ``range(x.ndim)``: output axis i is input
    axis ``axes[i]``; the gradient is permuted back by the inverse
    permutation, the one thing the record keeps besides the operand.
    """
    x = _as_tensor(x)
    if sorted(axes) != list(range(x.values.ndim)):
        raise DimensionError(f"transpose: axes {tuple(axes)} do not permute the axes of shape {x.shape}")
    axes = tuple(axes)
    inverse = tuple(sorted(range(len(axes)), key=axes.__getitem__))
    out = Tensor(x.values.transpose(axes).copy())

    def grad_fn(g, needs):
        return (g.transpose(inverse),) if needs[0] else (None,)

    return _record(out, (x,), grad_fn)


def reshape(x, shape) -> Tensor:
    """A view of ``x`` in ``shape``. Its record keeps nothing but the operand."""
    x = _as_tensor(x)
    out = Tensor(x.values.reshape(shape))

    def grad_fn(g, needs):
        return (g.reshape(x.shape),) if needs[0] else (None,)

    return _record(out, (x,), grad_fn)


def mean_all(x) -> Tensor:
    """Mean over all entries, as a scalar tensor. Its record keeps nothing
    but the operand."""
    x = _as_tensor(x)
    n = x.values.size
    out = Tensor(np.mean(x.values))

    def grad_fn(g, needs):
        return (np.full(x.shape, float(np.asarray(g).reshape(())) / n),) if needs[0] else (None,)

    return _record(out, (x,), grad_fn)


# ---------------------------------------------------------------------------
# reverse sweep


def backward(loss: Tensor) -> None:
    """Accumulate dLoss/dt into t.grad for every recorded tensor with
    requires_grad, overwriting previous contents. Recorded tensors that do
    not influence the loss receive a zero gradient.

    The sweep consumes the tape: it pops each record as it reaches it, and
    drops an op output's gradient once that output's own record has used
    it, so each record's saved buffers and each intermediate gradient are
    freed as soon as the sweep has passed them. Afterwards the tape is
    empty; a second backward of the same loss raises.
    """
    if not isinstance(loss, Tensor) or loss.values.size != 1:
        got = loss.shape if isinstance(loss, Tensor) else type(loss)
        raise ValueError(f"backward: loss must be a scalar tensor, got {got}")
    if loss.node is None:
        raise ValueError("backward: loss is not connected to a tape")

    tape = loss.node()
    if tape is None:
        raise ValueError(
            "backward: the tape that recorded the loss is gone; call backward "
            "inside the `with Tape()` block that recorded it"
        )
    records = tape._records
    grads: dict[int, np.ndarray] = {id(loss): np.ones(loss.shape)}
    touched: list[Tensor] = []

    # Records made after the loss get no gradient, so they only mark their
    # parameters for a zero gradient. Every input of a record was made
    # before it, so an op output has all its gradient once the sweep
    # reaches the output's own record.
    while records:
        out, inputs, grad_fn = records.pop()
        touched.extend(t for t in inputs if t.requires_grad)
        g = grads.get(id(out)) if out.requires_grad else grads.pop(id(out), None)
        if g is None:
            continue
        in_grads = grad_fn(g, tuple(_live(t) for t in inputs))
        for t, gi in zip(inputs, in_grads):
            if gi is None:
                continue
            key = id(t)
            if key in grads:
                grads[key] = grads[key] + gi
            else:
                grads[key] = gi
    if id(loss) in grads and not loss.requires_grad:  # the sweep never reached the loss's record
        raise ValueError(
            "backward: the loss's record was already swept by an earlier backward; "
            "record the forward pass again"
        )

    for t in touched:
        g = grads.get(id(t))
        t.grad = np.zeros(t.shape) if g is None else g


def finite_diff_grad(f, theta, eps: float) -> np.ndarray:
    """Central finite differences of a scalar function, coordinate by coordinate.

    ``f`` receives a plain ndarray shaped like ``theta`` and must return a
    finite scalar. This is the independent oracle the analytic gradients
    are checked against; it never touches the tape machinery.
    """
    if eps <= 0:
        raise ValueError(f"finite_diff_grad: eps must be positive, got {eps}")
    base = theta.values if isinstance(theta, Tensor) else np.asarray(theta, dtype=np.float64)
    flat = base.reshape(-1).copy()
    grad = np.empty_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        f_plus = float(f(flat.reshape(base.shape)))
        flat[i] = orig - eps
        f_minus = float(f(flat.reshape(base.shape)))
        flat[i] = orig
        if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
            raise FloatingPointError(
                f"finite_diff_grad: non-finite function value at coordinate {i}"
            )
        grad[i] = (f_plus - f_minus) / (2.0 * eps)
    return grad.reshape(base.shape)
