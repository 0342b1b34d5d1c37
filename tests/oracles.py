"""The central-difference gradient oracle the analytic gradients are checked against."""

from __future__ import annotations

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
