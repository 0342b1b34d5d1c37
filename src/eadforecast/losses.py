"""Loss functions of the training loop."""

from __future__ import annotations

import numpy as np

from .errors import ConfigError

LOSS_KINDS = ("mse", "xent")

# Clamp bound for the cross-entropy log arguments.
XENT_EPS = 1e-7


def batch_loss_and_grad(pred, target, kind: str = "mse") -> tuple[float, np.ndarray]:
    """Mean per-sample loss over a batch and the matching gradient.

    pred/target: (B, K). Per sample:
    mse:   L = (1/K) sum (p - y)^2
    xent:  L = -(1/K) sum [y ln p + (1-y) ln(1-p)], predictions clamped to
           [XENT_EPS, 1-XENT_EPS]; both series must live in [0, 1].
    The gradient carries the 1/B factor, so summing per-sample parameter
    gradients downstream yields the batch mean.
    """
    p = np.asarray(pred, dtype=np.float64)
    y = np.asarray(target, dtype=np.float64)
    if p.shape != y.shape or p.ndim != 2:
        raise ConfigError(f"batch shapes disagree: {p.shape} vs {y.shape}")
    b, k = p.shape
    if kind == "mse":
        diff = p - y
        return float((diff * diff).sum()) / (b * k), 2.0 * diff / (b * k)
    if kind == "xent":
        if np.any((y < 0.0) | (y > 1.0)):
            raise ConfigError("cross-entropy targets must lie in [0, 1]")
        pc = np.clip(p, XENT_EPS, 1.0 - XENT_EPS)
        loss = -float((y * np.log(pc) + (1.0 - y) * np.log(1.0 - pc)).sum()) / (b * k)
        grad = (pc - y) / (pc * (1.0 - pc)) / (b * k)
        # No gradient through the clamp.
        grad[(p < XENT_EPS) | (p > 1.0 - XENT_EPS)] = 0.0
        return loss, grad
    raise ConfigError(f"unknown loss kind {kind!r}; expected one of {LOSS_KINDS}")
