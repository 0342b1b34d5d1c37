"""Oracles the package is checked against: central-difference gradients
for the analytic gradients, a step-by-step backward pass and gate-major
copies for the bits of an LSTM layer's weight gradient (and the gate and
cell views of a layer's forward cache they read), the per-window
scaling path for the windows training gathers by index, the day-by-day
mobility fill for the array one, and the per-date collection of
overlapping forecasts for their aggregate."""

from __future__ import annotations

import datetime as dt
import math
from typing import Callable

import numpy as np

from eadforecast.data import month_end
from eadforecast.errors import ConfigError, NumericalError


def finite_diff_gradient(
    f: Callable[[np.ndarray], float], p, h: float = 1e-5
) -> np.ndarray:
    """Central-difference gradient of a scalar function at parameter vector p.

    result[i] = (f(p + h*e_i) - f(p - h*e_i)) / (2h)

    Serves as the independent oracle for every analytic gradient in the
    package; h defaults to the usual double-precision bias/round-off
    compromise.
    """
    if h <= 0:
        raise ConfigError(f"finite-difference step must be positive, got {h}")
    p0 = np.array(p, dtype=np.float64)
    if p0.ndim != 1 or p0.size < 1:
        raise ConfigError(f"expected a 1-d parameter vector, got shape {p0.shape}")
    grad = np.empty_like(p0)
    for idx in range(p0.size):
        bump = np.zeros_like(p0)
        bump[idx] = h
        f_hi = float(f(p0 + bump))
        f_lo = float(f(p0 - bump))
        if not (np.isfinite(f_hi) and np.isfinite(f_lo)):
            raise NumericalError(
                f"finite-difference oracle saw a non-finite value at coordinate {idx}"
            )
        grad[idx] = (f_hi - f_lo) / (2.0 * h)
    return grad


def layer_arrays(cache: dict) -> dict:
    """The forward arrays of an LSTM layer from its cache, each a (T, B, rows)
    view of the layer's buffers: the gates after their activations, all four
    ("gates", rows i, o, f, m) and one by one ("i", "o", "f", "m"), the cell
    states "c", "tanh_c" and the outputs "s"."""
    T, B, _ = cache["x"].shape
    _, G, C, TC = cache["buffers"].views(T, B)
    H = C.shape[1]
    arrays = {"gates": G, "i": G[:, :H], "o": G[:, H : 2 * H], "f": G[:, 2 * H : 3 * H],
              "m": G[:, 3 * H :], "c": C, "tanh_c": TC}
    return {"s": cache["s"], **{k: a.transpose(0, 2, 1) for k, a in arrays.items()}}


def lstm_backward_by_steps(
    cache: dict, W: np.ndarray, ds_ext: np.ndarray, lagged_m: bool, need_dx: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """One LSTM layer's backward pass, step by step, from its forward cache
    alone: returns a (T, 4H, B), the gradients w.r.t. each step's
    pre-activations (gate rows i, o, f, m), and d loss / d x as (T, B, I),
    or None without need_dx.

    W is the layer's [Wx | Ws | b] (4H, I+H+1) and ds_ext (T, B, H) the
    gradient into each s_t from the layer's consumer. Each step's factors
    are computed from the cache when the step is reached, and a_t is written
    into its own contiguous (4H, B) array, with the operations the engine
    used before it held a_t gate-major (sigma' = sigma - sigma^2; a step's
    a_t multiplies into [x_t; s_{t-1}] with the same matmul), so the bits
    agree with the engine's:
        ds = ds_ext_t + (W_s^T a_{t+1}),   dc = ds P + dc_{t+1} f_{t+1},
        a_o = ds F_o,   a_i, a_f, a_m = dc F_i, dc F_f, dc F_m,
    with F_i = sigma'_i m, F_o = sigma'_o tanh(c), F_f = sigma'_f c_prev,
    F_m = (1 - m^2) i and P = (1 - tanh(c)^2) o. With lagged_m, F_i uses
    m_prev, and a_m at step t is the next step's dc times (1 - m_t^2) i_{t+1}.
    """
    T, B, _ = cache["x"].shape
    _, G, C, TC = cache["buffers"].views(T, B)  # (T, 4H, B), (T, H, B), (T, H, B)
    h4 = G.shape[1]
    H = h4 // 4
    I = W.shape[1] - H - 1
    WT = np.ascontiguousarray(W[:, : I + H].T)
    dsT = ds_ext.transpose(0, 2, 1)
    zero = np.zeros((H, B))
    a = np.empty((T, h4, B))
    dxs = np.empty((T, I + H, B))
    dc_next, dc_later = zero, zero  # dc_{t+1} f_{t+1}; dc_{t+1}
    lo = 0 if need_dx else I
    for t in range(T - 1, -1, -1):
        i, o, f, m = (G[t, q * H : (q + 1) * H] for q in range(4))
        d_i, d_o, d_f = (g - g * g for g in (i, o, f))
        if lagged_m:
            F_i = d_i * (G[t - 1, 3 * H :] if t else zero)
            F_m = (1.0 - m * m) * (G[t + 1, :H] if t < T - 1 else zero)
        else:
            F_i, F_m = d_i * m, (1.0 - m * m) * i
        F_o = d_o * TC[t]
        F_f = d_f * (C[t - 1] if t else zero)
        P = (1.0 - TC[t] * TC[t]) * o
        ds = dsT[t] if t == T - 1 else dsT[t] + dxs[t + 1, I:]
        dc = ds * P + dc_next
        a[t, :H], a[t, H : 2 * H], a[t, 2 * H : 3 * H] = dc * F_i, ds * F_o, dc * F_f
        a[t, 3 * H :] = (dc_later if lagged_m else dc) * F_m
        dc_next, dc_later = dc * f, dc
        if t or need_dx:
            np.matmul(WT[lo:], a[t], out=dxs[t, lo:])
    return a, dxs[:, :I].transpose(0, 2, 1) if need_dx else None


def weight_gradient_by_copies(a: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """sum over steps t of a_t [x_t; s_{t-1}; 1]^T for one LSTM layer, from
    a (T, 4H, B), the gradients w.r.t. each step's pre-activations, and
    xs (T, I+H+1, B), each step's column block. Both are first copied into
    contiguous gate-major (rows, T, B) arrays, then multiplied in one
    matmul with the (step, window) pairs as columns."""
    T, h4, B = a.shape
    k = xs.shape[1]
    rows_a, rows_x = np.empty((h4, T, B)), np.empty((k, T, B))
    np.copyto(rows_a, a.transpose(1, 0, 2))
    np.copyto(rows_x, xs.transpose(1, 0, 2))
    return rows_a.reshape(h4, T * B) @ rows_x.reshape(k, T * B).T


# Feature name -> data.Days column.
_FEATURE_ATTR = {"temperature": "tmax", "humidity": "humidity", "day_label": "day_label",
                 "mobility": "mobility"}


def per_window_scaled(days, L: int, K: int, columns, group: str):
    """Scaled training windows built one window at a time.

    Each stride-1 window gets its own copy of its L input days and K target
    days; the min-max bounds come from the concatenation of those copies; each
    window is scaled column by column, a constant column to 0.5. Returns
    X (N, L, F), Y (N, K) and the bounds (feature_min, feature_max,
    target_min, target_max).
    """
    rows = np.stack([getattr(days, _FEATURE_ATTR[c]) for c in columns], axis=1)
    counts = days.counts[group]
    windows = [
        (rows[a - L : a].copy(), counts[a : a + K].copy()) for a in range(L, len(days) - K + 1)
    ]
    inputs = np.concatenate([x for x, _ in windows], axis=0)
    targets = np.concatenate([y for _, y in windows])
    fmin, fmax = inputs.min(axis=0), inputs.max(axis=0)
    tmin, tmax = float(targets.min()), float(targets.max())
    X = np.empty((len(windows), L, len(columns)))
    Y = np.empty((len(windows), K))
    for n, (x, y) in enumerate(windows):
        for j in range(len(columns)):
            X[n, :, j] = (x[:, j] - fmin[j]) / (fmax[j] - fmin[j]) if fmax[j] > fmin[j] else 0.5
        Y[n] = (y - tmin) / (tmax - tmin) if tmax > tmin else 0.5
    return X, Y, (fmin, fmax, tmin, tmax)


def fill_mobility_by_days(days, baseline_month) -> list[float]:
    """The mobility column data.fill_mobility makes of days' sparse one,
    computed day by day on dates: observed days keep their values, days up
    to the baseline month's end before the first observation are 100, a day
    between two known points (observations, and the baseline month's end at
    100 if it precedes the first observation) is on the line between them,
    and the other leading and trailing days hold the nearest known value."""
    dates = [days.start + dt.timedelta(days=i) for i in range(len(days))]
    observed = days.mobility.tolist()
    known = [(d, m) for d, m in zip(dates, observed) if not math.isnan(m)]
    baseline_end = None if baseline_month is None else month_end(baseline_month)
    if baseline_end is not None and (not known or known[0][0] > baseline_end):
        known.insert(0, (baseline_end, 100.0))

    def value_at(day: dt.date) -> float:
        if day <= known[0][0]:
            return 100.0 if baseline_end is not None and day <= baseline_end else known[0][1]
        for (d0, v0), (d1, v1) in zip(known, known[1:]):
            if d0 < day <= d1:
                return v0 + (v1 - v0) * ((day - d0).days / (d1 - d0).days)
        return known[-1][1]

    return [value_at(d) if math.isnan(m) else m for d, m in zip(dates, observed)]


def per_date_values(forecasts) -> dict[dt.date, list[float]]:
    """Every forecast value covering each date, in anchor order: the value of
    step s of the forecast anchored at a covers a + s - 1."""
    per_date: dict[dt.date, list[float]] = {}
    for a, vec in enumerate(forecasts.values):
        for step, value in enumerate(vec):
            per_date.setdefault(forecasts.start + dt.timedelta(days=a + step), []).append(float(value))
    return dict(sorted(per_date.items()))
