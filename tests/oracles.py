"""Oracles the package is checked against: central-difference gradients
for the analytic gradients, the per-window scaling path for the windows
training gathers by index, and the per-date collection of overlapping
forecasts for their aggregate."""

from __future__ import annotations

import datetime as dt
from typing import Callable

import numpy as np

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


# Feature name -> DailyRecord attribute.
_FEATURE_ATTR = {"temperature": "tmax", "humidity": "humidity", "day_label": "day_label",
                 "mobility": "mobility"}


def per_window_scaled(records, L: int, K: int, columns, group: str):
    """Scaled training windows built one window at a time.

    Each stride-1 window gets its own copy of its L input days and K target
    days; the min-max bounds come from the concatenation of those copies; each
    window is scaled column by column, a constant column to 0.5. Returns
    X (N, L, F), Y (N, K) and the bounds (feature_min, feature_max,
    target_min, target_max).
    """
    days = np.array([[getattr(r, _FEATURE_ATTR[c]) for c in columns] for r in records], dtype=np.float64)
    counts = np.array([r.ead[group] for r in records], dtype=np.float64)
    windows = [
        (days[a - L : a].copy(), counts[a : a + K].copy()) for a in range(L, len(records) - K + 1)
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


def per_date_values(forecasts) -> dict[dt.date, list[float]]:
    """Every forecast value covering each date, in anchor order: the value of
    step s of the forecast anchored at a covers a + s - 1."""
    per_date: dict[dt.date, list[float]] = {}
    for anchor, vec in forecasts:
        for step, value in enumerate(vec):
            per_date.setdefault(anchor + dt.timedelta(days=step), []).append(float(value))
    return dict(sorted(per_date.items()))
