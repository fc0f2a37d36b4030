"""The hybrid forecaster: three resolution streams (two causal conv layers
plus a GRU encoder each), one linear output head per horizon step over the
concatenated final hidden states (all heads stored side by side as one
affine map), and a linear autoregressive shortcut on the most recent
inputs, shared across variables. The network output and the shortcut
output are summed.

Parameters live in small dataclasses of autodiff Tensors. The forward
pass has one implementation, :func:`forecast_batch`, over a batch of
windows. Every piece below it takes a leading batch axis: windows are
(B, T, v), GRU states are batch-major (B, H), and outputs are (L, B, v).
The single-window :func:`forecast` is a batch of one, reshaped.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor, constant
from .preprocess import check_integer, downsample_avg

__all__ = [
    "ForecasterConfig",
    "ForecasterParams",
    "GruParams",
    "HeadParams",
    "STREAMS",
    "ShortcutParams",
    "StreamParams",
    "ar_predict",
    "conv_features",
    "count_parameters",
    "forecast",
    "forecast_batch",
    "gru_encode",
    "head_predict",
    "init_forecaster",
    "load_checkpoint",
    "multiscale_inputs",
    "ridge_fit",
    "save_checkpoint",
]

CHECKPOINT_FORMAT = "tscast-checkpoint"
CHECKPOINT_VERSION = 2
# each resolution stream's name and downsampling factor, finest first
STREAMS = (("full", 1), ("half", 2), ("quarter", 4))


@dataclass
class ForecasterConfig:
    """Architecture hyperparameters.

    The input length T must be a positive multiple of the coarsest
    ``STREAMS`` factor, so the window downsamples to every stream's
    resolution; ar_window is the number of trailing observations the linear
    shortcut regresses on.
    """

    v: int
    T: int = 64
    L: int = 1
    n_filters: int = 32
    kernel_size: int = 7
    gru_hidden: int = 64
    ar_window: int = 5
    use_ar_shortcut: bool = True
    seed: int = 0

    def __post_init__(self):
        for name, least in (("v", 1), ("T", 1), ("L", 1), ("n_filters", 1), ("kernel_size", 1),
                            ("gru_hidden", 1), ("ar_window", 1), ("seed", 0)):
            setattr(self, name, check_integer(f"config field {name}", getattr(self, name), least))
        if not isinstance(self.use_ar_shortcut, (bool, np.bool_)):
            raise ValueError(f"config field use_ar_shortcut must be a bool, got {self.use_ar_shortcut!r}")
        self.use_ar_shortcut = bool(self.use_ar_shortcut)
        if self.T % STREAMS[-1][1] != 0:
            raise ValueError(f"input length T={self.T} must be a multiple of {STREAMS[-1][1]}")
        if self.ar_window > self.T:
            raise ValueError(
                f"ar_window={self.ar_window} cannot exceed the input length T={self.T}"
            )


@dataclass
class GruParams:
    """One GRU, each kind of weight stacked by rows in gate order z, r, h:
    the layout :func:`autodiff.gru_sequence` computes with."""

    w: Tensor  # (3H, C) input weights
    u: Tensor  # (3H, H) recurrent weights
    b: Tensor  # (3H,)


@dataclass
class StreamParams:
    """One resolution stream: two causal conv layers and a GRU."""

    conv1_w: Tensor
    conv1_b: Tensor
    conv2_w: Tensor
    conv2_b: Tensor
    gru: GruParams


@dataclass
class HeadParams:
    """The L per-step output heads, stacked by columns into one affine map.

    Head t (1-based) maps the (3H,) concatenated state to output step t
    through columns (t - 1) * v ... t * v - 1 of ``w`` and ``b``.
    """

    w: Tensor  # (3H, L * v)
    b: Tensor  # (L * v,)
    L: int  # number of heads


@dataclass
class ShortcutParams:
    w: Tensor  # (ar_window, L), shared across variables
    b: Tensor  # (L,)


@dataclass
class ForecasterParams:
    full: StreamParams
    half: StreamParams
    quarter: StreamParams
    heads: HeadParams
    shortcut: ShortcutParams | None

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        out = []
        for stream_name, _ in STREAMS:
            stream: StreamParams = getattr(self, stream_name)
            out.append((f"{stream_name}.conv1_w", stream.conv1_w))
            out.append((f"{stream_name}.conv1_b", stream.conv1_b))
            out.append((f"{stream_name}.conv2_w", stream.conv2_w))
            out.append((f"{stream_name}.conv2_b", stream.conv2_b))
            for kind in ("w", "u", "b"):
                out.append((f"{stream_name}.gru.{kind}", getattr(stream.gru, kind)))
        out.append(("heads.w", self.heads.w))
        out.append(("heads.b", self.heads.b))
        if self.shortcut is not None:
            out.append(("ar.w", self.shortcut.w))
            out.append(("ar.b", self.shortcut.b))
        return out

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def n_parameters(self) -> int:
        return sum(t.size for t in self.parameters())

    def zero_grad(self) -> None:
        for t in self.parameters():
            t.zero_grad()


def count_parameters(config: ForecasterConfig) -> int:
    """Closed-form learnable parameter count for a given configuration."""
    v, L = config.v, config.L
    nf, k, h = config.n_filters, config.kernel_size, config.gru_hidden
    per_stream = (nf * v * k + nf) + (nf * nf * k + nf) + 3 * (h * nf + h * h + h)
    total = len(STREAMS) * per_stream + L * (len(STREAMS) * h * v + v)
    if config.use_ar_shortcut:
        total += config.ar_window * L + L
    return total


# ---------------------------------------------------------------------------
# initialization


def _glorot(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int, fan_out: int) -> Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _zeros(shape) -> Tensor:
    return Tensor(np.zeros(shape), requires_grad=True)


def init_forecaster(config: ForecasterConfig) -> ForecasterParams:
    """Glorot-uniform weights, zero biases, deterministic in config.seed."""
    rng = np.random.default_rng(config.seed)
    v, nf, k, h = config.v, config.n_filters, config.kernel_size, config.gru_hidden
    cat = len(STREAMS) * h  # width of the concatenated states the heads read

    def make_stream() -> StreamParams:
        conv1_w = _glorot(rng, (nf, v, k), fan_in=v * k, fan_out=nf * k)
        conv2_w = _glorot(rng, (nf, nf, k), fan_in=nf * k, fan_out=nf * k)
        # each gate's (W, U) blocks drawn in z, r, h order, then stacked by rows
        blocks = [(_glorot(rng, (h, nf), nf, h).values, _glorot(rng, (h, h), h, h).values) for _ in "zrh"]
        w, u = (Tensor(np.concatenate(kind), requires_grad=True) for kind in zip(*blocks))
        return StreamParams(
            conv1_w=conv1_w,
            conv1_b=_zeros(nf),
            conv2_w=conv2_w,
            conv2_b=_zeros(nf),
            gru=GruParams(w=w, u=u, b=_zeros(3 * h)),
        )

    # each step's (3H, v) head drawn in turn with its own fans, then stacked by columns
    head_ws = [_glorot(rng, (cat, v), fan_in=cat, fan_out=v).values for _ in range(config.L)]
    heads = HeadParams(
        w=Tensor(np.concatenate(head_ws, axis=1), requires_grad=True), b=_zeros(config.L * v), L=config.L
    )
    shortcut = None
    if config.use_ar_shortcut:
        shortcut = ShortcutParams(
            w=_glorot(rng, (config.ar_window, config.L), fan_in=config.ar_window, fan_out=config.L),
            b=_zeros(config.L),
        )
    # the streams draw last, finest first: every checkpoint and output depends on this order
    return ForecasterParams(**{name: make_stream() for name, _ in STREAMS}, heads=heads, shortcut=shortcut)


# ---------------------------------------------------------------------------
# forward pieces


def multiscale_inputs(windows: np.ndarray) -> tuple[np.ndarray, ...]:
    """The (B, T, v) windows averaged to each ``STREAMS`` resolution,
    finest first: (B, T / factor, v) per stream, the windows themselves at
    factor 1."""
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError(f"multiscale_inputs: expected windows (B, T, v), got {windows.shape}")
    return tuple(windows if factor == 1 else downsample_avg(windows, factor) for _, factor in STREAMS)


def conv_features(x, stream: StreamParams) -> Tensor:
    """Two causal conv layers with relu over (B, v, T_r) channel-major
    windows; output length equals input length."""
    q = ad.relu(ad.causal_conv1d(x, stream.conv1_w, stream.conv1_b))
    return ad.relu(ad.causal_conv1d(q, stream.conv2_w, stream.conv2_b))


def gru_encode(g_seq, gru: GruParams) -> Tensor:
    """Run the GRU over (B, C, T_r) feature sequences from a zero state;
    return the final hidden states as (B, H).

    This is one :func:`autodiff.gru_sequence` record on the stacked
    weights as stored, with no per-call copy.
    """
    return ad.gru_sequence(g_seq, gru.w, gru.u, gru.b)


def head_predict(states, heads: HeadParams) -> Tensor:
    """Affine map of [h, h', h''] through each output step's own head.

    ``states`` holds one (B, H) state per stream, in ``STREAMS`` order,
    concatenated once into (B, 3H) and mapped through all L heads by one
    product with the stacked (3H, L * v) weight; the result is (L, B, v),
    and row t - 1 of it is output step t. That is five tape records at any L.
    """
    shapes = [np.shape(h) for h in states]
    if any(len(shape) != 2 for shape in shapes):
        raise ValueError(f"head_predict: expected states (B, H), got {shapes}")
    cat = ad.concat(states, axis=1)
    flat = cat @ heads.w + heads.b  # (B, L * v)
    return ad.transpose(ad.reshape(flat, (flat.shape[0], heads.L, -1)), (1, 0, 2))


def ar_predict(windows, shortcut: ShortcutParams) -> Tensor:
    """Linear forecast of each variable from its last ar_window values.

    The (ar_window, L) weight, which sets ar_window, and the (L,) bias are
    shared across variables. ``windows`` is (B, T, v), giving (L, B, v).
    """
    if shortcut is None:
        raise ValueError("ar_predict: this model was built without the shortcut")
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3:
        raise ValueError(f"ar_predict: expected windows (B, T, v), got {windows.shape}")
    b, t_len, v = windows.shape
    ar_window = shortcut.w.shape[0]
    if ar_window > t_len:
        raise ValueError(
            f"ar_window={ar_window} exceeds the available {t_len} input steps"
        )
    # every (window, variable) pair is one column of trailing values
    recent = constant(windows[:, -ar_window:, :].transpose(1, 0, 2).reshape(ar_window, b * v))
    flat = ad.matmul(ad.transpose(shortcut.w, (1, 0)), recent) + ad.reshape(shortcut.b, (-1, 1))  # (L, B*v)
    return ad.reshape(flat, (-1, b, v))


def forecast(window, params: ForecasterParams, config: ForecasterConfig) -> Tensor:
    """Full model prediction for one (T, v) input window; returns (L, v).

    Computed as :func:`forecast_batch` on a batch of one, so it equals
    that batch's only row bit for bit.
    """
    window = np.asarray(window, dtype=np.float64)
    if window.shape != (config.T, config.v):
        raise ValueError(f"window shape {window.shape} does not match (T={config.T}, v={config.v})")
    return ad.reshape(forecast_batch(window[None], params, config), (config.L, config.v))


def forecast_batch(windows, params: ForecasterParams, config: ForecasterConfig) -> Tensor:
    """Batched forecast over (B, T, v) windows; returns (L, B, v).

    The nonlinear path encodes the three resolutions and applies one head
    per output step; the shortcut path, when enabled, adds the shared
    linear regression on the trailing inputs. This is the model's only
    forward implementation. A row of a larger batch agrees with the same
    window's batch of one to about 1e-15 on outputs of order one, not bit
    for bit: the BLAS may split a product differently for another batch
    size.
    """
    windows = np.asarray(windows, dtype=np.float64)
    if windows.ndim != 3 or windows.shape[1:] != (config.T, config.v):
        raise ValueError(
            f"batch shape {windows.shape} does not match (B, T={config.T}, v={config.v})"
        )
    if len(windows) == 0:
        raise ValueError(f"forecast_batch: no windows to forecast (got an empty batch of shape {windows.shape})")

    states = []
    for (name, _), block in zip(STREAMS, multiscale_inputs(windows)):
        stream = getattr(params, name)
        x = np.swapaxes(block, 1, 2)  # (B, v, T_r)
        states.append(gru_encode(conv_features(x, stream), stream.gru))  # (B, H)

    out = head_predict(states, params.heads)  # (L, B, v)
    if config.use_ar_shortcut:
        out = out + ar_predict(windows, params.shortcut)
    return out


# ---------------------------------------------------------------------------
# ridge baseline


def ridge_fit(X, y, lam: float = 1.0) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ridge regression on mean-centered data.

    Solves (X'X + lam I) w = X'y by Cholesky factorization; the intercept
    restores the means. lam=0 requires X'X to be invertible.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2:
        raise ValueError(f"ridge_fit: X must be 2-d, got shape {X.shape}")
    if X.shape[0] < 1:
        raise ValueError(f"ridge_fit: X has no rows, got shape {X.shape}")
    for name, a in (("X", X), ("y", y)):
        if not np.isfinite(a).all():
            raise ValueError(f"ridge_fit: {name} must not contain infs or NaNs")
    squeeze = y.ndim == 1
    if squeeze:
        y = y[:, None]
    if y.shape[0] != X.shape[0]:
        raise ValueError(f"ridge_fit: {X.shape[0]} rows of X vs {y.shape[0]} of y")
    if not (np.isfinite(lam) and lam >= 0):
        raise ValueError(f"ridge_fit: lam must be a finite number >= 0, got {lam}")

    x_mean = X.mean(axis=0)
    y_mean = y.mean(axis=0)
    xc = X - x_mean
    yc = y - y_mean
    gram = xc.T @ xc + lam * np.eye(X.shape[1])
    try:
        chol = np.linalg.cholesky(gram)
        w = np.linalg.solve(chol.T, np.linalg.solve(chol, xc.T @ yc))
    except np.linalg.LinAlgError as err:
        raise FloatingPointError(
            f"ridge_fit: singular normal equations ({err}); use lam > 0"
        ) from None
    intercept = y_mean - x_mean @ w
    if squeeze:
        return w[:, 0], intercept[0]
    return w, intercept


# ---------------------------------------------------------------------------
# checkpointing


def save_checkpoint(path, params: ForecasterParams, config: ForecasterConfig) -> None:
    """Write config plus all parameter arrays as a versioned JSON document.

    Floats are serialized with shortest round-trip repr, so values survive
    a save/load cycle bit-exactly and re-saving a loaded checkpoint
    reproduces the file byte for byte. This always writes version 2,
    which stores head t as its own entries ``head_t.w`` (3H, v) and
    ``head_t.b`` (v,); :func:`load_checkpoint` also reads version 1, which
    stored each GRU as nine per-gate arrays.
    """
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": asdict(config),
        "params": {
            name: {"shape": list(a.shape), "data": a.reshape(-1).tolist()}
            for name, a in _checkpoint_entries(params)
        },
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _checkpoint_entries(params: ForecasterParams) -> list[tuple[str, np.ndarray]]:
    """Each checkpoint entry's name and a view of the values it holds: the
    parameters by name, except that the stacked heads split by columns
    into one ``head_t.w``/``head_t.b`` pair per output step t."""
    heads = params.heads
    w = heads.w.values.reshape(heads.w.shape[0], heads.L, -1)  # (3H, L, v)
    b = heads.b.values.reshape(heads.L, -1)
    entries = [(name, t.values) for name, t in params.named_parameters() if not name.startswith("heads.")]
    for i in range(heads.L):
        entries += [(f"head_{i + 1}.w", w[:, i]), (f"head_{i + 1}.b", b[i])]
    return entries


def _field(path, mapping, key: str, owner: str = "checkpoint"):
    """``mapping[key]``, or a ValueError naming the file and the missing key."""
    if not isinstance(mapping, dict) or key not in mapping:
        raise ValueError(f"{path}: {owner} has no {key!r}")
    return mapping[key]


def _stored_array(path, name: str, entry) -> np.ndarray:
    """One checkpoint entry as an array, or a ValueError naming the file,
    the entry, its value count and its shape."""
    data = _field(path, entry, "data", f"entry {name!r}")
    shape = _field(path, entry, "shape", f"entry {name!r}")
    count = len(data) if isinstance(data, list) else 1
    try:
        values = np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValueError(
            f"{path}: entry {name!r} ({count} values, shape {shape}) holds a value that is not a number"
        ) from None
    if not np.isfinite(values).all():  # json reads NaN, Infinity and -Infinity
        raise ValueError(f"{path}: entry {name!r} ({count} values, shape {shape}) holds a value that is not finite")
    try:
        return values.reshape(shape)
    except (TypeError, ValueError):
        raise ValueError(f"{path}: entry {name!r} has {count} values, which do not fit shape {shape}") from None


def load_checkpoint(path) -> tuple[ForecasterParams, ForecasterConfig]:
    with open(path, encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except ValueError as err:  # a JSONDecodeError or a UnicodeDecodeError
            raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file: {err}") from None
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise ValueError(f"{path}: not a {CHECKPOINT_FORMAT} file")
    version = payload.get("version")
    if type(version) is not int or version not in (1, CHECKPOINT_VERSION):  # a bool is no version, though True == 1
        raise ValueError(f"{path}: unsupported checkpoint version {version}")
    try:
        config = ForecasterConfig(**_field(path, payload, "config"))
    except (TypeError, ValueError) as err:
        raise ValueError(f"{path}: invalid config: {err}") from None
    params = init_forecaster(config)
    raw = _field(path, payload, "params")
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: checkpoint 'params' is not a JSON object")
    stored = {name: _stored_array(path, name, entry) for name, entry in raw.items()}
    if version == 1:  # stack each stream's per-gate arrays, e.g. full.gru.w_{z,r,h} -> full.gru.w
        for stream_name, _ in STREAMS:
            for kind in ("w", "u", "b"):
                gates = [f"{stream_name}.gru.{kind}_{gate}" for gate in "zrh"]
                if all(name in stored for name in gates):
                    stored[f"{stream_name}.gru.{kind}"] = np.concatenate([stored.pop(name) for name in gates])
    entries = _checkpoint_entries(params)
    if sorted(stored) != sorted(name for name, _ in entries):
        raise ValueError(f"{path}: checkpoint parameter names do not match the config")
    for name, view in entries:
        if stored[name].shape != view.shape:
            raise ValueError(f"{path}: shape mismatch for {name}")
        view[...] = stored[name]
    return params, config
