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

How the engine computes it (the fused-gate, loop-hoisted layout of
Appleyard et al. 2016, arXiv:1604.01946):

- Layout. Per step, every array is feature-major, (rows, B): the four gate
  blocks [i|o|f|m] of a step are each one contiguous (H, B) array, so each
  elementwise op runs on contiguous memory. A layer's weights are stacked as
  W = [Wx | Ws | b] (4H, I+H+1), and step t is one matmul of W with the
  column block [x_t; s_{t-1}; 1]; s_t is written straight into the next
  step's block.
- One tanh per step. sigmoid(z) = 1/2 + 1/2 tanh(z/2), and the 1/2 inside is
  folded into the i/o/f rows of W (halving a float is exact), so a single
  tanh over all 4H rows and two in-place steps give the three sigmoid gates
  and the candidate. Saturation is exact and silent: |z| >= 38 gives
  sigmoid(z) of exactly 0 or 1, and no exp can overflow.
- Blocked backward. The factors of the backward step that depend only on the
  forward pass (sigma' = sigma (1 - sigma), 1 - m^2, 1 - tanh(c)^2 and their
  products with m, c_prev, i, o and tanh(c); see `_backward_factors`) are
  computed outside the step loop, for blocks of steps sized by
  `BACKWARD_BLOCK_BYTES` from B * 4H so that a block is still in cache when
  the loop reads it: the whole 14-step window at B=8, a step or two at
  B=256. The loop keeps seven numpy calls per step (eight for the lagged
  variant). The weight gradients are one matmul over all steps at the end,
  written into a flat gradient vector in the canonical leaf order.
- Buffers. `Workspace` holds every per-step array for one model and a
  largest batch, the dense layers' included; `train` and `run_forecast`
  make one and reuse it, so no step allocates the layers' arrays.
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


def model_to_vector(model: ForecastModel) -> np.ndarray:
    return np.concatenate([a.ravel() for _, a in model_leaves(model)])


def model_from_vector(
    template: ForecastModel, vec: np.ndarray, copy: bool = True
) -> ForecastModel:
    """Rebuild a model from a flat parameter vector.

    With copy=False the leaves are views into vec, so later in-place edits
    of vec show through the model (the training loop relies on this).
    """
    parts: dict[str, dict[str, np.ndarray]] = {"lstm1": {}, "lstm2": {}, "fc1": {}, "fc2": {}, "head": {}}
    pos = 0
    for name, a in model_leaves(template):
        part, attr = name.split(".")
        leaf = vec[pos : pos + a.size].reshape(a.shape)
        parts[part][attr] = leaf.copy() if copy else leaf
        pos += a.size
    if pos != vec.size:
        raise ConfigError(f"parameter vector has {vec.size} entries, expected {pos}")
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

# Bytes of one block of backward factors. The backward pass computes the
# factors that depend on the forward cache alone for as many steps at a time
# as fit in this many bytes, so that they are still in cache when the step
# loop reads them: all 14 steps of lstm1 at the training batch of 8, two at
# 64, one at 256.
BACKWARD_BLOCK_BYTES = 1 << 18


def _fused(vec: np.ndarray, hidden: int, inp: int):
    """One layer's leaves at the front of a flat vector in the canonical
    order, as views: Wx (4H, I), Ws (4H, H) and b (4H), gate order i, o, f, m."""
    h4 = 4 * hidden
    nx, ns = h4 * inp, h4 * hidden
    return (vec[:nx].reshape(h4, inp), vec[nx : nx + ns].reshape(h4, hidden),
            vec[nx + ns : nx + ns + h4])


def _view(buf: np.ndarray, *shape: int) -> np.ndarray:
    return buf[: math.prod(shape)].reshape(shape)


class _LayerBuffers:
    """Work arrays of one LSTM layer for up to `batch` windows of `steps` steps.

    Per-step arrays are feature-major, (rows, B), so that every gate's block
    of a step is one contiguous (H, B) array: numpy runs an elementwise op on
    a strided view several times slower than on a contiguous one. The arrays
    are flat and viewed per call as (T, rows, B), so a smaller batch gets
    contiguous views of the same memory. The backward arrays are allocated on
    the first backward pass.
    """

    def __init__(self, hidden: int, inp: int, batch: int, steps: int):
        h4, k = 4 * hidden, inp + hidden + 1
        self.hidden, self.inp, self.batch, self.steps = hidden, inp, batch, steps
        # [Wx | Ws | b] in gate order [i|o|f|m], the i/o/f rows halved (load);
        # step t multiplies the column block xs[t] = [x_t; s_{t-1}; 1].
        self.W = np.empty((h4, k))
        self.xs = np.empty((steps + 1) * k * batch)
        self.gates = np.empty(steps * h4 * batch)
        self.c, self.tanh_c = np.empty((2, steps * hidden * batch))
        self.cand = np.empty(hidden * batch)

    def load(self, p: LstmCellParams) -> None:
        """Stack p's weights into W, halving the i/o/f rows: sigmoid(z) is
        computed as (1 + tanh(z/2)) / 2, and halving a float is exact."""
        I, H = self.inp, self.hidden
        W = self.W
        np.concatenate((p.W_ix, p.W_ox, p.W_fx, p.W_mx), out=W[:, :I])
        np.concatenate((p.W_is, p.W_os, p.W_fs, p.W_ms), out=W[:, I : I + H])
        np.concatenate((p.b_i, p.b_o, p.b_f, p.b_m), out=W[:, I + H])
        W[: 3 * H] *= 0.5

    @functools.cached_property
    def block(self) -> int:
        """Steps per block of backward factors."""
        step_bytes = 8 * 4 * self.hidden * self.batch
        return max(1, min(self.steps, BACKWARD_BLOCK_BYTES // step_bytes))

    @functools.cached_property
    def backward(self) -> dict:
        H, I, B, T = self.hidden, self.inp, self.batch, self.steps
        h4, k = 4 * H, I + H + 1
        unhalve = np.ones(h4)
        unhalve[: 3 * H] = 2.0
        return {
            "WT": np.empty((I + H, h4)),  # [Wx | Ws] transposed, at full scale
            "unhalve": unhalve,
            "dpre": np.empty(T * h4 * B),  # per step: d loss / d pre-activations
            "dxs": np.empty(T * (I + H) * B),  # per step: d loss / d [x_t; s_{t-1}]
            "factors": np.empty(self.block * h4 * B),
            "p": np.empty(self.block * H * B),
            "state": np.empty((4, H * B)),  # ds, dc, the other step's dc, dc_next
            # gate-major copies for the weight-gradient product
            "dpre_rows": np.empty(T * h4 * B),
            "xs_rows": np.empty(T * k * B),
            "dW": np.empty((h4, k)),
        }


def _lstm_forward_batch(
    p: LstmCellParams, x: np.ndarray, lagged_m: bool, buf: _LayerBuffers | None = None
) -> dict:
    """x: (T, B, I). Returns a cache with gates, cell states, and outputs,
    each as a (T, B, ...) view.

    The cache lives in buf (fresh buffers if None): it is valid until the
    next forward pass through the same buffers.
    """
    T, B, I = x.shape
    H = p.hidden_size
    if buf is None:
        buf = _LayerBuffers(H, I, B, T)
    buf.load(p)
    xs = _view(buf.xs, T + 1, I + H + 1, B)
    np.copyto(xs[:T, :I], x.transpose(0, 2, 1))
    xs[:T, -1] = 1.0
    xs[0, I : I + H] = 0.0
    G = _view(buf.gates, T, 4 * H, B)  # post-activation [i | o | f | m]
    C, TC = _view(buf.c, T, H, B), _view(buf.tanh_c, T, H, B)
    S = xs[1:, I : I + H]  # s_t is the state input of step t+1
    cand = _view(buf.cand, H, B)
    for t in range(T):
        g = G[t]
        np.matmul(buf.W, xs[t], out=g)
        # One tanh for all four gates; the i/o/f pre-activations are halved,
        # so sigmoid(z) = 0.5 + 0.5 * tanh(z/2) is two in-place steps away.
        np.tanh(g, out=g)
        sig = g[: 3 * H]
        sig *= 0.5
        sig += 0.5
        c = C[t]
        if t == 0:
            if lagged_m:  # c = i * m_prev with m_prev = 0
                c.fill(0.0)
            else:
                np.multiply(g[:H], g[3 * H :], out=c)
        else:
            np.multiply(g[2 * H : 3 * H], C[t - 1], out=c)
            np.multiply(g[:H], G[t - 1, 3 * H :] if lagged_m else g[3 * H :], out=cand)
            c += cand
        np.tanh(c, out=TC[t])
        np.multiply(g[H : 2 * H], TC[t], out=S[t])

    def rows(a):  # (T, rows, B) -> (T, B, rows)
        return a.transpose(0, 2, 1)

    return {
        "x": x, "gates": rows(G),
        "i": rows(G[:, :H]), "o": rows(G[:, H : 2 * H]),
        "f": rows(G[:, 2 * H : 3 * H]), "m": rows(G[:, 3 * H :]),
        "c": rows(C), "tanh_c": rows(TC), "s": rows(S), "buffers": buf,
    }


def _times_previous(dst: np.ndarray, seq: np.ndarray, t0: int, t1: int) -> None:
    """dst[k] *= seq[t0 + k - 1] for the steps t0..t1-1, seq[-1] being zero."""
    if t0 == 0:
        dst[1:] *= seq[: t1 - 1]
        dst[0] = 0.0
    else:
        dst *= seq[t0 - 1 : t1 - 1]


def _backward_factors(G, C, TC, t0: int, t1: int, lagged_m: bool, F: np.ndarray, P: np.ndarray):
    """The factors of steps t0..t1-1 that depend on the forward pass alone,
    written into F (n, 4H, B) and P (n, H, B), n = t1 - t0.

    With a the loss gradient w.r.t. the pre-activations, ds the gradient
    into s_t and dc the one into c_t, one step is
        a_o = ds * F_o,  dc = ds * P + dc_next,  a_i, a_f, a_m = dc * F_i, F_f, F_m
    where sigma' = sigma (1 - sigma) and
        F_i = m sigma'_i,  F_o = tanh(c) sigma'_o,  F_f = c_prev sigma'_f,
        F_m = i (1 - m^2),  P = o (1 - tanh(c)^2).
    With lagged_m, c_t = f c_prev + i m_prev: F_i = m_prev sigma'_i, and
    a_m at step t is the next step's dc times F_m = i_{t+1} (1 - m_t^2).
    """
    T, h4, _ = G.shape
    H = h4 // 4
    n = t1 - t0
    F, P = F[:n], P[:n]
    g = G[t0:t1]
    sig, f3 = g[:, : 3 * H], F[:, : 3 * H]
    np.multiply(sig, sig, out=f3)
    np.subtract(sig, f3, out=f3)
    m, fm = g[:, 3 * H :], F[:, 3 * H :]
    np.multiply(m, m, out=fm)
    np.subtract(1.0, fm, out=fm)
    tc = TC[t0:t1]
    np.multiply(tc, tc, out=P)
    np.subtract(1.0, P, out=P)
    P *= g[:, H : 2 * H]
    F[:, H : 2 * H] *= tc
    _times_previous(F[:, 2 * H : 3 * H], C, t0, t1)
    if lagged_m:
        _times_previous(F[:, :H], G[:, 3 * H :], t0, t1)
        if t1 == T:
            fm[:-1] *= G[t0 + 1 : T, :H]
            fm[-1] = 0.0
        else:
            fm *= G[t0 + 1 : t1 + 1, :H]
    else:
        F[:, :H] *= m
        fm *= g[:, :H]
    return F, P


def _lstm_backward_batch(
    p: LstmCellParams, cache: dict, ds_ext: np.ndarray, lagged_m: bool, grad, need_dx: bool = True
) -> np.ndarray | None:
    """Backward through one layer.

    ds_ext: (T, B, H) gradient flowing into each step's output s_t from the
    layer's consumer. Writes the weight gradients into grad = (dWx, dWs, db),
    stacked like _fused's views, and returns dL/dx as a (T, B, I) view, or
    None without need_dx. The step loop runs over blocks of steps, last block
    first, each after its cache-only factors (_backward_factors); the weight
    gradients are one matmul over the whole sequence at the end.
    """
    x, buf = cache["x"], cache["buffers"]
    T, B, I = x.shape
    H = p.hidden_size
    h4, k = 4 * H, I + H + 1
    G = _view(buf.gates, T, h4, B)
    C, TC = _view(buf.c, T, H, B), _view(buf.tanh_c, T, H, B)
    xs = _view(buf.xs, T + 1, k, B)
    arrays = buf.backward
    WT = arrays["WT"]
    np.multiply(buf.W[:, : I + H].T, arrays["unhalve"], out=WT)
    dsT = ds_ext.transpose(0, 2, 1)
    dpre = _view(arrays["dpre"], T, h4, B)
    dxs = _view(arrays["dxs"], T, I + H, B)
    ds, dc, dc_other, dc_next = (_view(a, H, B) for a in arrays["state"])
    dc_next.fill(0.0)
    dc_other.fill(0.0)
    lo = 0 if need_dx else I  # dx rows of dxs are computed only when needed
    block = buf.block
    for t1 in range(T, 0, -block):
        t0 = max(t1 - block, 0)
        F, P = _backward_factors(
            G, C, TC, t0, t1, lagged_m,
            _view(arrays["factors"], block, h4, B), _view(arrays["p"], block, H, B),
        )
        F4 = F.reshape(t1 - t0, 4, H, B)
        for t in range(t1 - 1, t0 - 1, -1):
            j = t - t0
            if t == T - 1:
                np.copyto(ds, dsT[t])
            else:
                np.add(dsT[t], dxs[t + 1, I:], out=ds)
            np.multiply(ds, P[j], out=dc)
            dc += dc_next
            da = dpre[t]
            np.multiply(dc, F4[j], out=da.reshape(4, H, B))  # a_i, a_f, a_m
            np.multiply(ds, F[j, H : 2 * H], out=da[H : 2 * H])  # a_o replaces dc * F_o
            np.multiply(dc, G[t, 2 * H : 3 * H], out=dc_next)
            if lagged_m:
                np.multiply(dc_other, F[j, 3 * H :], out=da[3 * H :])
                dc, dc_other = dc_other, dc
            if t or need_dx:
                np.matmul(WT[lo:], da, out=dxs[t, lo:])

    # d loss / d [Wx | Ws | b] = sum over steps of a_t [x_t; s_{t-1}; 1]^T:
    # one matmul over gate-major copies with the (step, window) pairs as columns.
    rows_a = _view(arrays["dpre_rows"], h4, T, B)
    rows_x = _view(arrays["xs_rows"], k, T, B)
    np.copyto(rows_a, dpre.transpose(1, 0, 2))
    np.copyto(rows_x, xs[:T].transpose(1, 0, 2))
    dW = arrays["dW"]
    np.matmul(rows_a.reshape(h4, T * B), rows_x.reshape(k, T * B).T, out=dW)
    dWx, dWs, db = grad
    np.copyto(dWx, dW[:, :I])
    np.copyto(dWs, dW[:, I : I + H])
    np.copyto(db, dW[:, I + H])
    return dxs[:, :I].transpose(0, 2, 1) if need_dx else None


def sigmoid(x) -> np.ndarray:
    """Elementwise logistic function, overflow-safe for large |x|.

    Pre-activations are clipped to +-500 before exponentiation, which keeps
    exp finite while leaving every representable output unchanged.
    """
    z = np.clip(np.asarray(x, dtype=np.float64), -500.0, 500.0)
    return 1.0 / (1.0 + np.exp(-z))


class _DenseBuffers:
    """Work arrays of one dense layer for up to `batch` rows, flat and viewed
    per call as (B, width) like _LayerBuffers'. The backward arrays are
    allocated on the first backward pass."""

    def __init__(self, layer: DenseLayerParams, batch: int):
        self.batch = batch
        self.out, self.inp = layer.W.shape
        self.z, self.r = np.empty((2, batch * self.out))  # pre-activation, output

    @functools.cached_property
    def backward(self) -> dict:
        return {
            "active": np.empty(self.batch * self.out, dtype=bool),  # z > 0 (rectifier)
            "dz": np.empty(self.batch * self.out),
            "dx": np.empty(self.batch * self.inp),
        }


def _dense_forward(
    layer: DenseLayerParams, h: np.ndarray, buf: _DenseBuffers
) -> tuple[np.ndarray, np.ndarray]:
    """(z, output) of the layer for h (B, inp), z = h W^T + b, in buf."""
    B = h.shape[0]
    z = np.matmul(h, layer.W.T, out=_view(buf.z, B, buf.out))
    z += layer.b
    if layer.activation == "rectifier":
        return z, np.maximum(z, 0.0, out=_view(buf.r, B, buf.out))
    if layer.activation == "sigmoid":
        return z, sigmoid(z)
    return z, z


def _dense_backward(
    layer: DenseLayerParams, h_in: np.ndarray, z: np.ndarray, out: np.ndarray, dout: np.ndarray,
    grad: DenseLayerParams, buf: _DenseBuffers,
) -> np.ndarray:
    """Writes dW and db into grad; returns the gradient w.r.t. h_in, in buf."""
    B, work = z.shape[0], buf.backward
    if layer.activation == "rectifier":
        active = np.greater(z, 0.0, out=_view(work["active"], B, buf.out))
        dz = np.multiply(dout, active, out=_view(work["dz"], B, buf.out))
    elif layer.activation == "sigmoid":
        dz = np.multiply(dout, out, out=_view(work["dz"], B, buf.out))
        dz *= 1.0 - out
    else:
        dz = dout
    np.matmul(dz.T, h_in, out=grad.W)
    np.sum(dz, axis=0, out=grad.b)
    return np.matmul(dz, layer.W, out=_view(work["dx"], B, buf.inp))


class Workspace:
    """The arrays of forward_batch and backward_batch for one model's shapes
    and up to `batch` windows of `steps` steps, made once per training run
    or forecast so that no step allocates them.

    The outputs and the cache forward_batch returns live here, so they are
    valid until the next forward_batch with the same workspace.
    backward_batch writes the gradient into `grad`, one flat vector in the
    canonical leaf order, and returns `grads`, a model whose leaves are
    views of it.
    """

    def __init__(self, model: ForecastModel, batch: int, steps: int):
        self.model, self.batch, self.steps = model, batch, steps
        self.lstm1 = _LayerBuffers(model.lstm1.hidden_size, model.lstm1.input_size, batch, steps)
        self.lstm2 = _LayerBuffers(model.lstm2.hidden_size, model.lstm2.input_size, batch, steps)
        self.fc1, self.fc2, self.head = (
            _DenseBuffers(layer, batch) for layer in (model.fc1, model.fc2, model.head))

    @functools.cached_property
    def grad(self) -> np.ndarray:
        return np.empty(sum(a.size for _, a in model_leaves(self.model)))

    @functools.cached_property
    def grads(self) -> ForecastModel:
        return model_from_vector(self.model, self.grad, copy=False)

    @functools.cached_property
    def lstm_grads(self):
        """_fused views of the two LSTM layers' gradients in `grad`."""
        l1, l2 = self.lstm1, self.lstm2
        n1 = 4 * l1.hidden * (l1.inp + l1.hidden + 1)
        return _fused(self.grad, l1.hidden, l1.inp), _fused(self.grad[n1:], l2.hidden, l2.inp)

    @functools.cached_property
    def ds2(self) -> np.ndarray:
        """The gradient into lstm2's outputs, feature-major like its buffers."""
        return np.empty(self.steps * self.lstm2.hidden * self.batch)


@dataclass
class NetworkCache:
    """Intermediates captured by forward_batch, consumed by backward_batch."""

    X: np.ndarray
    lstm1: dict = field(repr=False, default=None)
    lstm2: dict = field(repr=False, default=None)
    fc: dict = field(repr=False, default=None)
    y: np.ndarray = None
    ws: Workspace = field(repr=False, default=None)


def forward_batch(
    model: ForecastModel, X, ws: Workspace | None = None
) -> tuple[np.ndarray, NetworkCache]:
    """Forward pass for a batch of windows. X: (B, L, F) -> (B, K).

    The outputs and the cache are held in ws (a fresh workspace if None)."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 3 or X.shape[1] < 1:
        raise ConfigError(f"expected a (batch, lookback, features) array, got {X.shape}")
    if X.shape[2] != model.input_dim:
        raise ConfigError(
            f"window feature dim {X.shape[2]} != model input dim {model.input_dim}"
        )
    if ws is None:
        ws = Workspace(model, X.shape[0], X.shape[1])
    elif X.shape[0] > ws.batch or X.shape[1] > ws.steps:
        raise ConfigError(
            f"batch of {X.shape[0]} windows of {X.shape[1]} steps exceeds the workspace's "
            f"{ws.batch} of {ws.steps}"
        )
    x = X.transpose(1, 0, 2)  # (T, B, F)
    c1 = _lstm_forward_batch(model.lstm1, x, model.lagged_m, ws.lstm1)
    c2 = _lstm_forward_batch(model.lstm2, c1["s"], model.lagged_m, ws.lstm2)
    h = c2["s"][-1]  # (B, H2)
    z1, r1 = _dense_forward(model.fc1, h, ws.fc1)
    z2, r2 = _dense_forward(model.fc2, r1, ws.fc2)
    z3, y = _dense_forward(model.head, r2, ws.head)
    cache = NetworkCache(
        X=X,
        lstm1=c1,
        lstm2=c2,
        fc={"h": h, "z1": z1, "r1": r1, "z2": z2, "r2": r2, "z3": z3},
        y=y,
        ws=ws,
    )
    return y, cache


def backward_batch(model: ForecastModel, cache: NetworkCache, dY: np.ndarray) -> ModelGrads:
    """Backward pass: dY is the gradient of the scalar loss w.r.t. the batch
    outputs (B, K). Returns the summed parameter gradients as the cache's
    workspace's `grads`, views of its flat `grad`."""
    if cache is None or cache.fc is None:
        raise ConfigError("backward_batch needs the cache from forward_batch")
    ws, fc = cache.ws, cache.fc
    g = ws.grads
    dr2 = _dense_backward(model.head, fc["r2"], fc["z3"], cache.y, dY, g.head, ws.head)
    dr1 = _dense_backward(model.fc2, fc["r1"], fc["z2"], fc["r2"], dr2, g.fc2, ws.fc2)
    dh = _dense_backward(model.fc1, fc["h"], fc["z1"], fc["r1"], dr1, g.fc1, ws.fc1)

    T, B, _ = cache.lstm2["x"].shape
    ds2 = _view(ws.ds2, T, model.lstm2.hidden_size, B)
    ds2[:-1] = 0.0
    ds2[-1] = dh.T
    g1, g2 = ws.lstm_grads
    dx2 = _lstm_backward_batch(model.lstm2, cache.lstm2, ds2.transpose(0, 2, 1), model.lagged_m, g2)
    _lstm_backward_batch(model.lstm1, cache.lstm1, dx2, model.lagged_m, g1, need_dx=False)
    return g


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
