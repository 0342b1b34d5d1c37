"""Stacked-LSTM forecasting network with exact backpropagation through time.

A single cell computes, for input x and previous state (c_prev, s_prev):

    i = sigmoid(W_ix x + W_is s_prev + b_i)      input gate
    o = sigmoid(W_ox x + W_os s_prev + b_o)      output gate
    f = sigmoid(W_fx x + W_fs s_prev + b_f)      forget gate
    m = tanh(W_mx x + W_ms s_prev + b_m)         memory gate (candidate)
    c = f * c_prev + i * m
    s = o * tanh(c)

With ``lagged_m=True`` the cell update uses the *previous* step's candidate
vector instead (``c = f * c_prev + i * m_prev``, zeros at the first step);
that variant is exposed on the CLI as ``--eq5-lagged-m``.

The full network is lstm(50) -> lstm(30) -> dense(300, relu) ->
dense(100, relu) -> dense(K head). The last hidden state of the second LSTM
feeds the dense stack. One batched engine (`forward_batch` /
`backward_batch`) serves training and forecasting; a single window is a
batch of one. The test suite pins it against a straight-line transcription
of the gate equations and against central finite differences.
`single_blas_thread` runs a block, such as a forecast, on one BLAS thread.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError

ACTIVATIONS = ("rectifier", "identity", "sigmoid")


@dataclass
class LstmCellParams:
    """Weights of one LSTM layer: four input matrices (H x I), four state
    matrices (H x H), four biases (H)."""

    W_ix: np.ndarray
    W_is: np.ndarray
    W_ox: np.ndarray
    W_os: np.ndarray
    W_fx: np.ndarray
    W_fs: np.ndarray
    W_mx: np.ndarray
    W_ms: np.ndarray
    b_i: np.ndarray
    b_o: np.ndarray
    b_f: np.ndarray
    b_m: np.ndarray

    @property
    def hidden_size(self) -> int:
        return self.W_ix.shape[0]

    @property
    def input_size(self) -> int:
        return self.W_ix.shape[1]

    def validate(self) -> None:
        h, i = self.W_ix.shape
        for name in ("W_ix", "W_ox", "W_fx", "W_mx"):
            if getattr(self, name).shape != (h, i):
                raise ConfigError(f"{name} must have shape ({h}, {i})")
        for name in ("W_is", "W_os", "W_fs", "W_ms"):
            if getattr(self, name).shape != (h, h):
                raise ConfigError(f"{name} must have shape ({h}, {h})")
        for name in ("b_i", "b_o", "b_f", "b_m"):
            if getattr(self, name).shape != (h,):
                raise ConfigError(f"{name} must have shape ({h},)")


@dataclass
class DenseLayerParams:
    W: np.ndarray
    b: np.ndarray
    activation: str = "rectifier"

    def validate(self) -> None:
        if self.W.ndim != 2 or self.b.shape != (self.W.shape[0],):
            raise ConfigError(
                f"dense layer shapes disagree: W {self.W.shape}, b {self.b.shape}"
            )
        if self.activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")


@dataclass
class ModelSpec:
    """Layer dimensions; defaults match the production architecture."""

    input_dim: int
    hidden1: int = 50
    hidden2: int = 30
    fc1: int = 300
    fc2: int = 100
    horizon: int = 1
    head_activation: str = "identity"
    lagged_m: bool = False


@dataclass
class ForecastModel:
    lstm1: LstmCellParams
    lstm2: LstmCellParams
    fc1: DenseLayerParams
    fc2: DenseLayerParams
    head: DenseLayerParams
    input_dim: int
    horizon: int
    lagged_m: bool = False

    def validate(self) -> None:
        self.lstm1.validate()
        self.lstm2.validate()
        self.fc1.validate()
        self.fc2.validate()
        self.head.validate()
        chain = [
            (self.lstm1.input_size, self.input_dim, "lstm1 input"),
            (self.lstm2.input_size, self.lstm1.hidden_size, "lstm2 input"),
            (self.fc1.W.shape[1], self.lstm2.hidden_size, "fc1 input"),
            (self.fc2.W.shape[1], self.fc1.W.shape[0], "fc2 input"),
            (self.head.W.shape[1], self.fc2.W.shape[0], "head input"),
            (self.head.W.shape[0], self.horizon, "head output"),
        ]
        for got, want, what in chain:
            if got != want:
                raise ConfigError(f"{what} dimension is {got}, expected {want}")


# Gradients mirror the parameter structure exactly, so the same containers
# are reused for both.
ModelGrads = ForecastModel


# ---------------------------------------------------------------------------
# Parameter initialization and traversal
# ---------------------------------------------------------------------------

_GATE_ORDER = ("i", "o", "f", "m")


def _leaf_names(prefix: str) -> list[str]:
    return [f"{prefix}.W_{g}x" for g in _GATE_ORDER] + [
        f"{prefix}.W_{g}s" for g in _GATE_ORDER
    ] + [f"{prefix}.b_{g}" for g in _GATE_ORDER]


LEAF_ORDER = (
    _leaf_names("lstm1")
    + _leaf_names("lstm2")
    + ["fc1.W", "fc1.b", "fc2.W", "fc2.b", "head.W", "head.b"]
)


def model_leaves(model: ForecastModel) -> list[tuple[str, np.ndarray]]:
    """(name, array) pairs in the canonical serialization order."""
    out = []
    for name in LEAF_ORDER:
        part, attr = name.split(".")
        out.append((name, getattr(getattr(model, part), attr)))
    return out


def model_from_leaves(template: ForecastModel, arrays: dict[str, np.ndarray]) -> ForecastModel:
    """Rebuild a model from named leaf arrays, copying metadata from template."""
    parts: dict[str, dict[str, np.ndarray]] = {"lstm1": {}, "lstm2": {}, "fc1": {}, "fc2": {}, "head": {}}
    for name in LEAF_ORDER:
        part, attr = name.split(".")
        parts[part][attr] = arrays[name]
    return ForecastModel(
        lstm1=LstmCellParams(**parts["lstm1"]),
        lstm2=LstmCellParams(**parts["lstm2"]),
        fc1=DenseLayerParams(activation=template.fc1.activation, **parts["fc1"]),
        fc2=DenseLayerParams(activation=template.fc2.activation, **parts["fc2"]),
        head=DenseLayerParams(activation=template.head.activation, **parts["head"]),
        input_dim=template.input_dim,
        horizon=template.horizon,
        lagged_m=template.lagged_m,
    )


def model_to_vector(model: ForecastModel) -> np.ndarray:
    return np.concatenate([a.ravel() for _, a in model_leaves(model)])


def model_from_vector(
    template: ForecastModel, vec: np.ndarray, copy: bool = True
) -> ForecastModel:
    """Rebuild a model from a flat parameter vector.

    With copy=False the leaves are views into vec, so later in-place edits
    of vec show through the model (the training loop relies on this).
    """
    arrays = {}
    pos = 0
    for name, a in model_leaves(template):
        leaf = vec[pos : pos + a.size].reshape(a.shape)
        arrays[name] = leaf.copy() if copy else leaf
        pos += a.size
    if pos != vec.size:
        raise ConfigError(f"parameter vector has {vec.size} entries, expected {pos}")
    return model_from_leaves(template, arrays)


def _uniform_matrix(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    bound = math.sqrt(6.0 / (rows + cols))
    return rng.uniform(-bound, bound, size=(rows, cols))


def _init_cell(rng, hidden: int, inp: int, zeros: bool) -> LstmCellParams:
    def wx():
        return np.zeros((hidden, inp)) if zeros else _uniform_matrix(rng, hidden, inp)

    def ws():
        return np.zeros((hidden, hidden)) if zeros else _uniform_matrix(rng, hidden, hidden)

    # Draw order is fixed: x-weights then state-weights, gate order i,o,f,m.
    W_ix, W_ox, W_fx, W_mx = wx(), wx(), wx(), wx()
    W_is, W_os, W_fs, W_ms = ws(), ws(), ws(), ws()
    zb = lambda: np.zeros(hidden)
    return LstmCellParams(
        W_ix=W_ix, W_is=W_is, W_ox=W_ox, W_os=W_os,
        W_fx=W_fx, W_fs=W_fs, W_mx=W_mx, W_ms=W_ms,
        b_i=zb(), b_o=zb(), b_f=zb(), b_m=zb(),
    )


def init_params(spec: ModelSpec, scheme: str = "uniform", seed: int = 0) -> ForecastModel:
    """Build a fresh model.

    "zeros" sets every weight and bias to zero; "uniform" draws weights
    uniformly in +-sqrt(6 / (fan_in + fan_out)) with zero biases,
    deterministically from the seed.
    """
    if scheme not in ("zeros", "uniform"):
        raise ConfigError(f"unknown init scheme {scheme!r}; expected 'zeros' or 'uniform'")
    zeros = scheme == "zeros"
    rng = np.random.default_rng(seed)

    def dense(rows, cols, activation):
        W = np.zeros((rows, cols)) if zeros else _uniform_matrix(rng, rows, cols)
        return DenseLayerParams(W=W, b=np.zeros(rows), activation=activation)

    model = ForecastModel(
        lstm1=_init_cell(rng, spec.hidden1, spec.input_dim, zeros),
        lstm2=_init_cell(rng, spec.hidden2, spec.hidden1, zeros),
        fc1=dense(spec.fc1, spec.hidden2, "rectifier"),
        fc2=dense(spec.fc2, spec.fc1, "rectifier"),
        head=dense(spec.horizon, spec.fc2, spec.head_activation),
        input_dim=spec.input_dim,
        horizon=spec.horizon,
        lagged_m=spec.lagged_m,
    )
    model.validate()
    return model


# ---------------------------------------------------------------------------
# Batched engine
# ---------------------------------------------------------------------------


def _stacked(p: LstmCellParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    Wx = np.concatenate([p.W_ix, p.W_ox, p.W_fx, p.W_mx], axis=0)  # (4H, I)
    Ws = np.concatenate([p.W_is, p.W_os, p.W_fs, p.W_ms], axis=0)  # (4H, H)
    b = np.concatenate([p.b_i, p.b_o, p.b_f, p.b_m])  # (4H,)
    return Wx, Ws, b


def _lstm_forward_batch(p: LstmCellParams, x: np.ndarray, lagged_m: bool) -> dict:
    """x: (T, B, I). Returns a cache with gates, cell states, and outputs."""
    T, B, I = x.shape
    H = p.hidden_size
    Wx, Ws, b = _stacked(p)
    pre_x = x.reshape(T * B, I) @ Wx.T
    pre_x = pre_x.reshape(T, B, 4 * H) + b
    WsT = Ws.T

    gates_all = np.empty((T, B, 4 * H))  # post-activation: [i | o | f | m]
    c_all = np.empty((T, B, H))
    tanh_c_all = np.empty((T, B, H))
    s_all = np.empty((T, B, H))

    c = np.zeros((B, H))
    s = np.zeros((B, H))
    m_prev = np.zeros((B, H))
    # exp overflow saturates the sigmoid to exactly 0, which is the wanted
    # limit; silence the warning instead of paying for a clip per step.
    with np.errstate(over="ignore"):
        for t in range(T):
            pre = pre_x[t] + s @ WsT
            gb = gates_all[t]
            # The three sigmoid gates share one activation call over [i|o|f].
            np.exp(-pre[:, : 3 * H], out=gb[:, : 3 * H])
            gb[:, : 3 * H] += 1.0
            np.divide(1.0, gb[:, : 3 * H], out=gb[:, : 3 * H])
            gb[:, 3 * H :] = np.tanh(pre[:, 3 * H :])
            i = gb[:, :H]
            f = gb[:, 2 * H : 3 * H]
            m = gb[:, 3 * H :]
            c = f * c + i * (m_prev if lagged_m else m)
            tc = np.tanh(c)
            s = gb[:, H : 2 * H] * tc
            c_all[t], tanh_c_all[t], s_all[t] = c, tc, s
            if lagged_m:
                m_prev = m
    return {
        "x": x, "gates": gates_all,
        "i": gates_all[:, :, :H], "o": gates_all[:, :, H : 2 * H],
        "f": gates_all[:, :, 2 * H : 3 * H], "m": gates_all[:, :, 3 * H :],
        "c": c_all, "tanh_c": tanh_c_all, "s": s_all,
    }


def _lstm_backward_batch(
    p: LstmCellParams, cache: dict, ds_ext: np.ndarray, lagged_m: bool
) -> tuple[LstmCellParams, np.ndarray]:
    """Backward through one layer.

    ds_ext: (T, B, H) gradient flowing into each step's output s_t from the
    layer's consumer. Returns (parameter gradients, dL/dx as (T, B, I)).
    The loop writes into preallocated buffers; weight gradients fall out of
    two whole-sequence matmuls at the end.
    """
    x = cache["x"]
    T, B, I = x.shape
    H = p.hidden_size
    Wx, Ws, _ = _stacked(p)
    i_all, o_all, f_all, m_all = cache["i"], cache["o"], cache["f"], cache["m"]
    c_all, tanh_c_all, s_all = cache["c"], cache["tanh_c"], cache["s"]

    dpre = np.empty((T, B, 4 * H))
    dc_next = np.zeros((B, H))
    ds_next = np.zeros((B, H))
    dm_carry = np.zeros((B, H))
    zeros_bh = np.zeros((B, H))
    scratch_h = np.empty((B, H))
    scratch_3h = np.empty((B, 3 * H))

    for t in range(T - 1, -1, -1):
        i, o, f, m = i_all[t], o_all[t], f_all[t], m_all[t]
        tc = tanh_c_all[t]
        c_prev = c_all[t - 1] if t > 0 else zeros_bh

        da = dpre[t]
        ds = ds_ext[t] + ds_next
        np.multiply(ds, tc, out=da[:, H : 2 * H])  # d output gate
        np.multiply(tc, tc, out=scratch_h)
        np.subtract(1.0, scratch_h, out=scratch_h)
        dc = ds * o
        dc *= scratch_h
        dc += dc_next
        np.multiply(dc, c_prev, out=da[:, 2 * H : 3 * H])  # d forget gate
        if lagged_m:
            np.multiply(dc, m_all[t - 1] if t > 0 else zeros_bh, out=da[:, :H])
            da[:, 3 * H :] = dm_carry
            np.multiply(dc, i, out=dm_carry)
        else:
            np.multiply(dc, m, out=da[:, :H])  # d input gate
            np.multiply(dc, i, out=da[:, 3 * H :])  # d memory gate
        # Sigmoid derivative for the [i|o|f] block, tanh derivative for m.
        sig3 = cache["gates"][t][:, : 3 * H]
        np.multiply(sig3, sig3, out=scratch_3h)
        np.subtract(sig3, scratch_3h, out=scratch_3h)
        da[:, : 3 * H] *= scratch_3h
        np.multiply(m, m, out=scratch_h)
        np.subtract(1.0, scratch_h, out=scratch_h)
        da[:, 3 * H :] *= scratch_h

        ds_next = da @ Ws
        np.multiply(dc, f, out=dc_next)

    flat = dpre.reshape(T * B, 4 * H)
    dWx = flat.T @ x.reshape(T * B, I)
    db = flat.sum(axis=0)
    dx = (flat @ Wx).reshape(T, B, I)
    # s_prev over the whole sequence: zeros at t=0, then s shifted by one.
    s_prev_all = np.empty((T, B, H))
    s_prev_all[0] = 0.0
    s_prev_all[1:] = s_all[:-1]
    dWs = flat.T @ s_prev_all.reshape(T * B, H)

    grads = LstmCellParams(
        W_ix=dWx[:H], W_ox=dWx[H : 2 * H], W_fx=dWx[2 * H : 3 * H], W_mx=dWx[3 * H :],
        W_is=dWs[:H], W_os=dWs[H : 2 * H], W_fs=dWs[2 * H : 3 * H], W_ms=dWs[3 * H :],
        b_i=db[:H], b_o=db[H : 2 * H], b_f=db[2 * H : 3 * H], b_m=db[3 * H :],
    )
    return grads, dx


def sigmoid(x) -> np.ndarray:
    """Elementwise logistic function, overflow-safe for large |x|.

    Pre-activations are clipped to +-500 before exponentiation, which keeps
    exp finite while leaving every representable output unchanged.
    """
    z = np.clip(np.asarray(x, dtype=np.float64), -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(-z))


def _dense_forward(layer: DenseLayerParams, h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    z = h @ layer.W.T + layer.b
    if layer.activation == "rectifier":
        return z, np.maximum(z, 0.0)
    if layer.activation == "sigmoid":
        return z, sigmoid(z)
    return z, z


def _dense_backward(
    layer: DenseLayerParams, h_in: np.ndarray, z: np.ndarray, out: np.ndarray, dout: np.ndarray
) -> tuple[DenseLayerParams, np.ndarray]:
    if layer.activation == "rectifier":
        dz = dout * (z > 0.0)
    elif layer.activation == "sigmoid":
        dz = dout * out * (1.0 - out)
    else:
        dz = dout
    dW = dz.T @ h_in
    db = dz.sum(axis=0)
    dh = dz @ layer.W
    return DenseLayerParams(W=dW, b=db, activation=layer.activation), dh


@dataclass
class NetworkCache:
    """Intermediates captured by forward_batch, consumed by backward_batch."""

    X: np.ndarray
    lstm1: dict = field(repr=False, default=None)
    lstm2: dict = field(repr=False, default=None)
    fc: dict = field(repr=False, default=None)
    y: np.ndarray = None


def forward_batch(model: ForecastModel, X) -> tuple[np.ndarray, NetworkCache]:
    """Forward pass for a batch of windows. X: (B, L, F) -> (B, K)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or X.shape[1] < 1:
        raise ConfigError(f"expected a (batch, lookback, features) array, got {X.shape}")
    if X.shape[2] != model.input_dim:
        raise ConfigError(
            f"window feature dim {X.shape[2]} != model input dim {model.input_dim}"
        )
    x = np.ascontiguousarray(X.transpose(1, 0, 2))  # (T, B, F)
    c1 = _lstm_forward_batch(model.lstm1, x, model.lagged_m)
    c2 = _lstm_forward_batch(model.lstm2, c1["s"], model.lagged_m)
    h = c2["s"][-1]  # (B, H2)
    z1, r1 = _dense_forward(model.fc1, h)
    z2, r2 = _dense_forward(model.fc2, r1)
    z3, y = _dense_forward(model.head, r2)
    cache = NetworkCache(
        X=X,
        lstm1=c1,
        lstm2=c2,
        fc={"h": h, "z1": z1, "r1": r1, "z2": z2, "r2": r2, "z3": z3},
        y=y,
    )
    return y, cache


def backward_batch(model: ForecastModel, cache: NetworkCache, dY: np.ndarray) -> ModelGrads:
    """Backward pass: dY is the gradient of the scalar loss w.r.t. the batch
    outputs (B, K). Returns summed parameter gradients."""
    if cache is None or cache.fc is None:
        raise ConfigError("backward_batch needs the cache from forward_batch")
    fc = cache.fc
    g_head, dr2 = _dense_backward(model.head, fc["r2"], fc["z3"], cache.y, dY)
    g_fc2, dr1 = _dense_backward(model.fc2, fc["r1"], fc["z2"], fc["r2"], dr2)
    g_fc1, dh = _dense_backward(model.fc1, fc["h"], fc["z1"], fc["r1"], dr1)

    T, B, _ = cache.lstm2["x"].shape
    ds2 = np.zeros((T, B, model.lstm2.hidden_size))
    ds2[-1] = dh
    g_lstm2, dx2 = _lstm_backward_batch(model.lstm2, cache.lstm2, ds2, model.lagged_m)
    g_lstm1, _ = _lstm_backward_batch(model.lstm1, cache.lstm1, dx2, model.lagged_m)

    return ForecastModel(
        lstm1=g_lstm1, lstm2=g_lstm2, fc1=g_fc1, fc2=g_fc2, head=g_head,
        input_dim=model.input_dim, horizon=model.horizon, lagged_m=model.lagged_m,
    )


# ---------------------------------------------------------------------------
# BLAS threads
# ---------------------------------------------------------------------------


@functools.cache
def _openblas_threads_api():
    """The get/set thread-count functions of numpy's bundled OpenBLAS, or None.

    They are looked up through numpy's own extension module, whose handle
    also reaches the OpenBLAS it links; the library is already loaded, so
    nothing new is opened.
    """
    try:
        from numpy._core import _multiarray_umath

        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


@contextlib.contextmanager
def single_blas_thread():
    """Run the block on one OpenBLAS thread, then restore the thread count.

    The count is process-wide, so the block must not overlap BLAS work in
    another Python thread. Without numpy's bundled OpenBLAS this does
    nothing.
    """
    api = _openblas_threads_api()
    if api is None:
        yield
        return
    get, set_ = api
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)
