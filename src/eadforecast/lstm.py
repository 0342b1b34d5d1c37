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
`single_blas_thread` runs a block on one BLAS thread. The CLI runs every
command in it (`cli.main`); code that calls `train` or `run_forecast` as a
library function keeps whatever thread count it has set.

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
  sigmoid(z) of exactly 0 or 1, and no exp can overflow. A sigmoid head is
  computed the same way, with the halving done on z.
- Blocked backward. The factors of the backward step that depend only on the
  forward pass (sigma' = sigma (1 - sigma), 1 - m^2, 1 - tanh(c)^2 and their
  products with m, c_prev, i, o and tanh(c); see `_backward_factors`) are
  computed outside the step loop, for blocks of steps sized by
  `BACKWARD_BLOCK_BYTES` from B * 4H so that a block is still in cache when
  the loop reads it: the whole 14-step window at B=8, one step at B=256.
  The loop turns a step's factors into a_t in place (eight numpy calls per
  step) and writes the block's a_t gate-major, (4H, T, B), after it. A
  layer's weight gradient is one matmul over all steps at the end that
  reads a_t in place, written straight into its W in the flat gradient.
- Buffers. `Workspace` holds every per-step array of one model at a largest
  batch once; `train` and `run_forecast` make one and reuse it, so no step
  allocates. A forward pass copies each LSTM layer's W into its buffer with
  the i/o/f rows halved; nothing else copies weights. The forward cache is
  the workspace and, per LSTM layer, its input x, its outputs s and its
  buffers; the gates, c and tanh(c) stay in the buffers, and the forward
  and backward passes both cut their (T, rows, B) views of a call with
  `_LayerBuffers.views`. The arrays only the backward pass uses, the flat
  gradient `ws.backward.grad` among them, are made with `ws.backward` on
  the first backward pass, so a forecast makes none. Both LSTM layers'
  backward arrays but lstm2's input gradient (a_t, the factors, ...) are
  views of one scratch sized for the larger layer: lstm2's backward ends
  before lstm1's starts (memory sharing by liveness, Chen et al. 2016,
  arXiv:1604.06174). No backward pass writes the forward cache, so a cache
  can be backpropagated again. The dense layers' z and outputs are read
  back from their buffers at the batch's size. The returned outputs are a
  view of the workspace too.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

ACTIVATIONS = ("rectifier", "identity", "sigmoid")
INIT_SCHEMES = ("zeros", "uniform")  # init_params' schemes
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


def _split(flat: np.ndarray, *shapes: tuple[int, ...]) -> list[np.ndarray]:
    """Consecutive views of flat, one per shape, from its start."""
    out, end = [], 0
    for shape in shapes:
        start, end = end, end + math.prod(shape)
        out.append(flat[start:end].reshape(shape))
    return out


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
        lstm_shapes = [(4 * H, I + H + 1) for _, I, H in spec.lstm_layers()]
        dense_shapes = [shape for _, I, O, _ in spec.dense_layers() for shape in ((O, I), (O,))]
        arrays = iter(_split(self.theta, *lstm_shapes, *dense_shapes))
        for name, I, _ in spec.lstm_layers():
            setattr(self, name, LstmCellParams(next(arrays), I))
        for name, _, _, activation in spec.dense_layers():
            setattr(self, name, DenseLayerParams(next(arrays), next(arrays), activation))

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
    if scheme not in INIT_SCHEMES:
        raise ConfigError(f"unknown init scheme {scheme!r}; expected one of {INIT_SCHEMES}")
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
    are flat and viewed per call as (T, rows, B) (`views`), so a smaller
    batch gets contiguous views of the same memory; only dpre and xs_rows,
    which the weight-gradient matmul reads, are gate-major, (rows, T, B).
    """

    def __init__(self, hidden: int, inp: int, batch: int, steps: int):
        h4, k = 4 * hidden, inp + hidden + 1
        self.hidden, self.inp = hidden, inp
        # The layer's W with the i/o/f rows halved (load); step t multiplies
        # the column block xs[t] = [x_t; s_{t-1}; 1].
        self.W = np.empty((h4, k))
        self.xs = np.empty((steps + 1) * k * batch)
        self.gates = np.empty(steps * h4 * batch)
        self.c, self.tanh_c = np.empty((2, steps * hidden * batch))
        self.cand = np.empty(hidden * batch)
        # Steps per block of backward factors.
        self.block = max(1, min(steps, BACKWARD_BLOCK_BYTES // (8 * h4 * batch)))

    def load(self, p: LstmCellParams) -> None:
        """Copy p.W into W, halving the i/o/f rows: sigmoid(z) is computed as
        (1 + tanh(z/2)) / 2, and halving a float is exact."""
        np.copyto(self.W, p.W)
        self.W[: 3 * self.hidden] *= 0.5

    def views(self, T: int, B: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """The arrays of a call at T steps and B windows, feature-major: the
        column blocks xs (T+1, I+H+1, B), the gates after their activations
        G (T, 4H, B), rows [i|o|f|m], and c and tanh(c) (T, H, B)."""
        H, k = self.hidden, self.inp + self.hidden + 1
        return (_view(self.xs, T + 1, k, B), _view(self.gates, T, 4 * H, B),
                _view(self.c, T, H, B), _view(self.tanh_c, T, H, B))

    def backward_shapes(self, T: int, B: int) -> tuple[tuple[int, ...], ...]:
        """The shapes of the backward arrays of a call at T steps and B
        windows, in their order in the scratch: WT, [Wx | Ws] transposed;
        dpre, d loss / d pre-activations, gate-major; one block of factors
        and of P; the state ds, dc, the other step's dc and dc_next; xs_rows,
        xs[:T] copied gate-major; and two step slots of d loss / d
        [x_t; s_{t-1}], for a call that returns no dx."""
        H, I = self.hidden, self.inp
        h4, k = 4 * H, I + H + 1
        return ((I + H, h4), (h4, T, B), (self.block, h4, B), (self.block, H, B), (4, H, B),
                (k, T, B), (2, I + H, B))


def _lstm_forward_batch(p: LstmCellParams, x: np.ndarray, lagged_m: bool, buf: _LayerBuffers) -> dict:
    """x: (T, B, I). Returns the layer's cache: its input x, its outputs s
    as a (T, B, H) view and buf, which holds the gates and cell states (see
    buf.views) until the next forward pass through it."""
    T, B, I = x.shape
    H = p.hidden_size
    buf.load(p)
    xs, G, C, TC = buf.views(T, B)
    np.copyto(xs[:T, :I], x.transpose(0, 2, 1))
    xs[:T, -1] = 1.0
    xs[0, I : I + H] = 0.0
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
    return {"x": x, "s": S.transpose(0, 2, 1), "buffers": buf}


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
    scratch: np.ndarray, dx: np.ndarray | None = None,
) -> np.ndarray | None:
    """Backward through one layer.

    ds_ext: (T, B, H) gradient flowing into each step's output s_t from the
    layer's consumer. Writes the weight gradient into grad.W. With dx, a
    flat array of T (I+H) B doubles at least, returns dL/dx as a (T, B, I)
    view of it; without, returns None. The other backward arrays are views
    of the flat scratch (`_LayerBuffers.backward_shapes`). The step loop
    runs over blocks of steps, last block first, each after its cache-only
    factors (_backward_factors); the weight gradients are one matmul over
    the whole sequence at the end.
    """
    x, buf = cache["x"], cache["buffers"]
    T, B, I = x.shape
    H = p.hidden_size
    h4, k = 4 * H, I + H + 1
    xs, G, C, TC = buf.views(T, B)
    WT, dpre, factors, p_block, state, rows_x, dx_slots = _split(
        scratch, *buf.backward_shapes(T, B))  # a_t is the column block dpre[:, t]
    np.copyto(WT, p.W[:, : I + H].T)
    dsT = ds_ext.transpose(0, 2, 1)
    # Step t reads only the ds rows of step t+1, so without dx two slots do.
    dxs = dx_slots if dx is None else _view(dx, T, I + H, B)
    n = len(dxs)
    ds, dc, dc_other, dc_next = state
    dc_next.fill(0.0)
    dc_other.fill(0.0)
    lo = I if dx is None else 0  # dx rows of dxs are computed only when needed
    block = buf.block
    for t1 in range(T, 0, -block):
        t0 = max(t1 - block, 0)
        F, P = _backward_factors(G, C, TC, t0, t1, lagged_m, factors, p_block)
        F4 = F.reshape(t1 - t0, 4, H, B)
        for t in range(t1 - 1, t0 - 1, -1):
            j = t - t0
            if t == T - 1:
                np.copyto(ds, dsT[t])
            else:
                np.add(dsT[t], dxs[(t + 1) % n, I:], out=ds)
            np.multiply(ds, P[j], out=dc)
            dc += dc_next
            da = F[j]  # the step's factors become a_t in place
            da[H : 2 * H] *= ds  # a_o
            F4[j, ::2] *= dc  # a_i, a_f
            da[3 * H :] *= dc_other if lagged_m else dc  # a_m
            np.multiply(dc, G[t, 2 * H : 3 * H], out=dc_next)
            if lagged_m:
                dc, dc_other = dc_other, dc
            if t or dx is not None:
                np.matmul(WT[lo:], da, out=dxs[t % n, lo:])
        np.copyto(dpre[:, t0:t1], F.transpose(1, 0, 2))

    # d loss / d [Wx | Ws | b] = sum over steps of a_t [x_t; s_{t-1}; 1]^T:
    # one matmul with the (step, window) pairs as columns, dpre read in place.
    np.copyto(rows_x, xs[:T].transpose(1, 0, 2))
    np.matmul(dpre.reshape(h4, T * B), rows_x.reshape(k, T * B).T, out=grad.W)
    return None if dx is None else dxs[:, :I].transpose(0, 2, 1)


class _DenseBuffers:
    """Work arrays of one dense layer for up to `batch` rows, flat and viewed
    per call as (B, width) like _LayerBuffers'."""

    def __init__(self, layer: DenseLayerParams, batch: int):
        self.activation, self.out = layer.activation, layer.W.shape[0]
        self.z, self.r = np.empty((2, batch * self.out))  # pre-activation, output

    def views(self, B: int) -> tuple[np.ndarray, np.ndarray]:
        """z and the layer's output at B rows, (B, out) each; the output of
        an identity layer is z."""
        z = _view(self.z, B, self.out)
        return z, z if self.activation == "identity" else _view(self.r, B, self.out)


def _dense_forward(layer: DenseLayerParams, h: np.ndarray, buf: _DenseBuffers) -> np.ndarray:
    """The layer's output for h (B, inp), the activation of z = h W^T + b,
    in buf."""
    z, out = buf.views(h.shape[0])
    np.matmul(h, layer.W.T, out=z)
    z += layer.b
    if layer.activation == "rectifier":
        np.maximum(z, 0.0, out=out)
    elif layer.activation == "sigmoid":
        # 1/2 + 1/2 tanh(z/2), as the gates compute it: saturation is exact
        # and silent, and no exp can overflow.
        np.multiply(z, 0.5, out=out)
        np.tanh(out, out=out)
        out *= 0.5
        out += 0.5
    return out


def _dense_backward(
    layer: DenseLayerParams, h_in: np.ndarray, z: np.ndarray, out: np.ndarray, dout: np.ndarray,
    grad: DenseLayerParams, active: np.ndarray, dz: np.ndarray, dx: np.ndarray,
) -> np.ndarray:
    """Writes dW and db into grad; returns the gradient w.r.t. h_in, a view
    of dx. active (bool), dz and dx are flat work arrays, of z's size (z > 0
    and d loss / dz) and of h_in's."""
    (B, O), I = z.shape, h_in.shape[1]
    if layer.activation == "rectifier":
        active = np.greater(z, 0.0, out=_view(active, B, O))
        dz = np.multiply(dout, active, out=_view(dz, B, O))
    elif layer.activation == "sigmoid":
        dz = np.multiply(dout, out, out=_view(dz, B, O))
        dz *= 1.0 - out
    else:
        dz = dout
    np.matmul(dz.T, h_in, out=grad.W)
    np.sum(dz, axis=0, out=grad.b)
    return np.matmul(dz, layer.W, out=_view(dx, B, I))


class _BackwardArrays:
    """The arrays only backward_batch uses: the flat gradient `grad`, in
    theta's layout, and `grads`, the model over it; `ds2` and `dx2`, the
    gradients into lstm2's outputs and inputs; per dense layer its (active,
    dz, dx); and one `scratch` for both LSTM layers' other backward arrays,
    sized for the larger (lstm2's backward ends before lstm1's starts). It
    keeps no reference to the workspace, so dropping a workspace frees both."""

    def __init__(self, ws: Workspace):
        spec, B, T = ws.model.spec, ws.batch, ws.steps
        self.grad = np.empty(spec.size)
        self.grads = ForecastModel(spec, self.grad)
        self.dense = tuple((np.empty(B * O, dtype=bool), np.empty(B * O), np.empty(B * I))
                           for _, I, O, _ in spec.dense_layers())
        self.ds2 = np.empty(T * spec.hidden2 * B)
        self.scratch = np.empty(max(sum(math.prod(shape) for shape in buf.backward_shapes(T, B))
                                    for buf in (ws.lstm1, ws.lstm2)))
        self.dx2 = np.empty(T * (spec.hidden1 + spec.hidden2) * B)


class Workspace:
    """The arrays of forward_batch and backward_batch for one model's shapes
    and up to `batch` windows of `steps` steps, made once per training run
    or forecast so that no step allocates them.

    The outputs and the cache forward_batch returns live here, so they are
    valid until the next forward_batch with the same workspace.
    backward_batch writes the gradient into `backward.grad`, one flat vector
    in the layout of the model's theta, and returns `backward.grads`, the
    model over it.
    """

    def __init__(self, model: ForecastModel, batch: int, steps: int):
        self.model, self.batch, self.steps = model, batch, steps
        self.lstm1, self.lstm2 = (
            _LayerBuffers(layer.hidden_size, layer.input_size, batch, steps)
            for layer in (model.lstm1, model.lstm2))
        self.fc1, self.fc2, self.head = (
            _DenseBuffers(layer, batch) for layer in (model.fc1, model.fc2, model.head))

    @functools.cached_property
    def backward(self) -> _BackwardArrays:
        """The arrays only backward_batch uses, made on the first backward
        pass, so that a forecast makes none."""
        return _BackwardArrays(self)


def forward_batch(
    model: ForecastModel, X, ws: Workspace | None = None
) -> tuple[np.ndarray, tuple[Workspace, dict, dict]]:
    """Forward pass for a batch of windows. X: (B, L, F) -> (B, K).

    The outputs are held in ws (a fresh workspace if None). The cache for
    backward_batch is (ws, lstm1's cache, lstm2's cache); the dense layers'
    intermediates are read back from ws."""
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
    r1 = _dense_forward(model.fc1, c2["s"][-1], ws.fc1)
    r2 = _dense_forward(model.fc2, r1, ws.fc2)
    return _dense_forward(model.head, r2, ws.head), (ws, c1, c2)


def backward_batch(
    model: ForecastModel, cache: tuple[Workspace, dict, dict], dY: np.ndarray
) -> ForecastModel:
    """Backward pass: dY is the gradient of the scalar loss w.r.t. the batch
    outputs (B, K). Returns the summed parameter gradients as the cache's
    workspace's `backward.grads`, the model over its flat `backward.grad`."""
    if cache is None:
        raise ConfigError("backward_batch needs the cache from forward_batch")
    ws, c1, c2 = cache
    work = ws.backward
    g = work.grads
    T, B, _ = c2["x"].shape
    h = c2["s"][-1]
    (z1, r1), (z2, r2), (z3, y) = ws.fc1.views(B), ws.fc2.views(B), ws.head.views(B)
    fc1, fc2, head = work.dense
    dr2 = _dense_backward(model.head, r2, z3, y, dY, g.head, *head)
    dr1 = _dense_backward(model.fc2, r1, z2, r2, dr2, g.fc2, *fc2)
    dh = _dense_backward(model.fc1, h, z1, r1, dr1, g.fc1, *fc1)

    ds2 = _view(work.ds2, T, model.lstm2.hidden_size, B)
    ds2[:-1] = 0.0
    ds2[-1] = dh.T
    dx2 = _lstm_backward_batch(model.lstm2, c2, ds2.transpose(0, 2, 1), model.lagged_m, g.lstm2,
                               work.scratch, work.dx2)
    _lstm_backward_batch(model.lstm1, c1, dx2, model.lagged_m, g.lstm1, work.scratch)
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
