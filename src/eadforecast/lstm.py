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

- Layout. A model is its `ModelSpec` plus one flat vector, `theta`: each
  LSTM layer's weights stacked as W = [Wx | Ws | b] (4H, I+H+1), gate rows
  i, o, f, m, then each dense layer's W and b. Every layer array is a view
  of theta, and a layer's twelve per-gate arrays (W_ix, ..., b_m) are views
  of its W; the gradient is a model of the same layout. Step t is one matmul of W with
  the column block [x_t; s_{t-1}; 1]; s_t is written straight into the next
  step's block. Per step, every array is feature-major, (rows, B): the four
  gate blocks [i|o|f|m] of a step are each one contiguous (H, B) array, so
  each elementwise op runs on contiguous memory. The checkpoint and
  `model_to_vector` keep the canonical order of `model_leaves`: per layer
  the twelve per-gate arrays, W_gx, then W_gs, then b_g.
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
  variant). A layer's weight gradient is one matmul over all steps at the
  end, written straight into its W in the flat gradient vector.
- Buffers. `Workspace` holds every per-step array for one model and a
  largest batch, the dense layers' included, and the flat gradient;
  `train` and `run_forecast` make one and reuse it, so no step allocates
  the layers' arrays. A forward pass copies each LSTM layer's W into its
  buffer with the i/o/f rows halved; nothing else copies weights.
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
_GATE_ORDER = ("i", "o", "f", "m")


@dataclass(frozen=True)
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

    def __post_init__(self) -> None:
        if self.head_activation not in ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.head_activation!r}")

    def lstm_layers(self) -> tuple:
        """(name, input size, hidden size) of each LSTM layer."""
        return ("lstm1", self.input_dim, self.hidden1), ("lstm2", self.hidden1, self.hidden2)

    def dense_layers(self) -> tuple:
        """(name, input size, output size, activation) of each dense layer."""
        return (("fc1", self.hidden2, self.fc1, "rectifier"),
                ("fc2", self.fc1, self.fc2, "rectifier"),
                ("head", self.fc2, self.horizon, self.head_activation))

    def leaf_shapes(self) -> list[tuple[str, tuple[int, ...]]]:
        """(name, shape) of every parameter array in the canonical order, the
        checkpoint's: per LSTM layer the input matrices W_gx (H, I), the state
        matrices W_gs (H, H) and the biases b_g (H), gate order i, o, f, m;
        per dense layer W and b. Computed without allocating."""
        out = []
        for name, I, H in self.lstm_layers():
            out += [(f"{name}.W_{g}x", (H, I)) for g in _GATE_ORDER]
            out += [(f"{name}.W_{g}s", (H, H)) for g in _GATE_ORDER]
            out += [(f"{name}.b_{g}", (H,)) for g in _GATE_ORDER]
        for name, I, O, _ in self.dense_layers():
            out += [(f"{name}.W", (O, I)), (f"{name}.b", (O,))]
        return out

    @property
    def size(self) -> int:
        """The number of parameters."""
        return sum(math.prod(shape) for _, shape in self.leaf_shapes())


@dataclass(frozen=True)
class LstmCellParams:
    """Weights of one LSTM layer, stacked as W = [Wx | Ws | b] (4H, I+H+1)
    with the gate rows in order i, o, f, m. The paper's matrices are views of
    W, cut once: W_gx (H, I), W_gs (H, H) and b_g (H) for each gate g."""

    W: np.ndarray
    input_size: int

    def __post_init__(self) -> None:
        H, I = self.hidden_size, self.input_size
        for k, g in enumerate(_GATE_ORDER):
            rows = self.W[k * H : (k + 1) * H]
            object.__setattr__(self, f"W_{g}x", rows[:, :I])
            object.__setattr__(self, f"W_{g}s", rows[:, I : I + H])
            object.__setattr__(self, f"b_{g}", rows[:, I + H])

    @property
    def hidden_size(self) -> int:
        return self.W.shape[0] // 4


@dataclass(frozen=True)
class DenseLayerParams:
    W: np.ndarray
    b: np.ndarray
    activation: str = "rectifier"


class ForecastModel:
    """A ModelSpec and one flat parameter vector, theta.

    theta holds each LSTM layer's W (4H, I+H+1), then each dense layer's W
    and b, and every layer array is a view of it, so an in-place edit of
    theta shows through the layers and the reverse. Without theta the model
    gets a zero vector of its own.
    """

    lstm1: LstmCellParams
    lstm2: LstmCellParams
    fc1: DenseLayerParams
    fc2: DenseLayerParams
    head: DenseLayerParams

    def __init__(self, spec: ModelSpec, theta: np.ndarray | None = None):
        self.spec = spec
        self.theta = np.zeros(spec.size) if theta is None else theta
        if self.theta.shape != (spec.size,):
            raise ConfigError(f"parameter vector has shape {self.theta.shape}, expected ({spec.size},)")
        end = 0

        def take(*shape: int) -> np.ndarray:
            nonlocal end
            start, end = end, end + math.prod(shape)
            return self.theta[start:end].reshape(shape)

        for name, I, H in spec.lstm_layers():
            setattr(self, name, LstmCellParams(take(4 * H, I + H + 1), I))
        for name, I, O, activation in spec.dense_layers():
            setattr(self, name, DenseLayerParams(take(O, I), take(O), activation))

    @property
    def input_dim(self) -> int:
        return self.spec.input_dim

    @property
    def horizon(self) -> int:
        return self.spec.horizon

    @property
    def lagged_m(self) -> bool:
        return self.spec.lagged_m


# ---------------------------------------------------------------------------
# Parameter initialization and traversal
# ---------------------------------------------------------------------------


def model_leaves(model: ForecastModel) -> list[tuple[str, np.ndarray]]:
    """(name, array) pairs in the canonical order, views of model.theta."""
    out = []
    for name, _ in model.spec.leaf_shapes():
        part, attr = name.split(".")
        out.append((name, getattr(getattr(model, part), attr)))
    return out


def model_to_vector(model: ForecastModel) -> np.ndarray:
    """The parameters as a new vector in the canonical order."""
    return np.concatenate([a.ravel() for _, a in model_leaves(model)])


def init_params(spec: ModelSpec, scheme: str = "uniform", seed: int = 0) -> ForecastModel:
    """Build a fresh model.

    "zeros" sets every weight and bias to zero; "uniform" draws each weight
    matrix uniformly in +-sqrt(6 / (fan_in + fan_out)), one after another
    in the canonical order, with zero biases, deterministically from the
    seed.
    """
    if scheme not in ("zeros", "uniform"):
        raise ConfigError(f"unknown init scheme {scheme!r}; expected 'zeros' or 'uniform'")
    model = ForecastModel(spec)
    if scheme == "uniform":
        rng = np.random.default_rng(seed)
        for _, leaf in model_leaves(model):
            if leaf.ndim == 2:
                bound = math.sqrt(6.0 / sum(leaf.shape))
                leaf[...] = rng.uniform(-bound, bound, size=leaf.shape)
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
        # The layer's W with the i/o/f rows halved (load); step t multiplies
        # the column block xs[t] = [x_t; s_{t-1}; 1].
        self.W = np.empty((h4, k))
        self.xs = np.empty((steps + 1) * k * batch)
        self.gates = np.empty(steps * h4 * batch)
        self.c, self.tanh_c = np.empty((2, steps * hidden * batch))
        self.cand = np.empty(hidden * batch)

    def load(self, p: LstmCellParams) -> None:
        """Copy p.W into W, halving the i/o/f rows: sigmoid(z) is computed as
        (1 + tanh(z/2)) / 2, and halving a float is exact."""
        np.copyto(self.W, p.W)
        self.W[: 3 * self.hidden] *= 0.5

    @functools.cached_property
    def block(self) -> int:
        """Steps per block of backward factors."""
        step_bytes = 8 * 4 * self.hidden * self.batch
        return max(1, min(self.steps, BACKWARD_BLOCK_BYTES // step_bytes))

    @functools.cached_property
    def backward(self) -> dict:
        H, I, B, T = self.hidden, self.inp, self.batch, self.steps
        h4, k = 4 * H, I + H + 1
        return {
            "WT": np.empty((I + H, h4)),  # [Wx | Ws] transposed
            "dpre": np.empty(T * h4 * B),  # per step: d loss / d pre-activations
            "dxs": np.empty(T * (I + H) * B),  # per step: d loss / d [x_t; s_{t-1}]
            "factors": np.empty(self.block * h4 * B),
            "p": np.empty(self.block * H * B),
            "state": np.empty((4, H * B)),  # ds, dc, the other step's dc, dc_next
            # gate-major copies for the weight-gradient product
            "dpre_rows": np.empty(T * h4 * B),
            "xs_rows": np.empty(T * k * B),
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
    p: LstmCellParams, cache: dict, ds_ext: np.ndarray, lagged_m: bool, grad: LstmCellParams,
    need_dx: bool = True,
) -> np.ndarray | None:
    """Backward through one layer.

    ds_ext: (T, B, H) gradient flowing into each step's output s_t from the
    layer's consumer. Writes the weight gradient into grad.W and returns
    dL/dx as a (T, B, I) view, or
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
    np.copyto(WT, p.W[:, : I + H].T)
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
    np.matmul(rows_a.reshape(h4, T * B), rows_x.reshape(k, T * B).T, out=grad.W)
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
    layout of the model's theta, and returns `grads`, the model over it.
    """

    def __init__(self, model: ForecastModel, batch: int, steps: int):
        self.model, self.batch, self.steps = model, batch, steps
        self.lstm1 = _LayerBuffers(model.lstm1.hidden_size, model.lstm1.input_size, batch, steps)
        self.lstm2 = _LayerBuffers(model.lstm2.hidden_size, model.lstm2.input_size, batch, steps)
        self.fc1, self.fc2, self.head = (
            _DenseBuffers(layer, batch) for layer in (model.fc1, model.fc2, model.head))

    @functools.cached_property
    def grad(self) -> np.ndarray:
        return np.empty(self.model.theta.size)

    @functools.cached_property
    def grads(self) -> ForecastModel:
        return ForecastModel(self.model.spec, self.grad)

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


def backward_batch(model: ForecastModel, cache: NetworkCache, dY: np.ndarray) -> ForecastModel:
    """Backward pass: dY is the gradient of the scalar loss w.r.t. the batch
    outputs (B, K). Returns the summed parameter gradients as the cache's
    workspace's `grads`, the model over its flat `grad`."""
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
    dx2 = _lstm_backward_batch(
        model.lstm2, cache.lstm2, ds2.transpose(0, 2, 1), model.lagged_m, g.lstm2)
    _lstm_backward_batch(model.lstm1, cache.lstm1, dx2, model.lagged_m, g.lstm1, need_dx=False)
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
