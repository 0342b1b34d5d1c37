"""Adam optimizer, min-max normalization, and the mini-batch training loop."""

from __future__ import annotations

import logging
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, NumericalError
from .losses import LOSS_KINDS, batch_loss_and_grad
from .lstm import ForecastModel, Workspace, backward_batch, forward_batch
# Not called here; perfbench/layers.py times training.model_to_vector while it lists it.
from .lstm import model_to_vector  # noqa: F401

log = logging.getLogger("eadforecast")

# Adam's decay rates and denominator guard (Kingma & Ba's defaults).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass
class AdamState:
    """First/second moment accumulators, one flat vector each in the layout
    of the model's theta, so the update is a handful of vector ops."""

    m1_flat: np.ndarray
    m2_flat: np.ndarray
    t: int = 0
    alpha: float = 1e-3
    _scratch: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._scratch = np.empty_like(self.m1_flat)

    @classmethod
    def zeros(cls, size: int, alpha: float = 1e-3) -> "AdamState":
        return cls(m1_flat=np.zeros(size), m2_flat=np.zeros(size), alpha=alpha)


def _adam_update_flat(theta: np.ndarray, g: np.ndarray, state: AdamState) -> None:
    """Apply one bias-corrected Adam update in place.

    theta, the moment buffers, and g are all mutated (g is used as scratch).
    The update is in the form of Kingma & Ba (2015, end of section 2): both
    bias corrections fold into one step size, alpha_t = alpha *
    sqrt(1 - beta2^t) / (1 - beta1^t), and the guard becomes
    eps_hat = eps * sqrt(1 - beta2^t), which is the textbook
    alpha * m1_hat / (sqrt(m2_hat) + eps) in exact arithmetic. No pass
    allocates.
    """
    state.t += 1
    m1, m2, scratch = state.m1_flat, state.m2_flat, state._scratch
    m1 *= ADAM_BETA1
    np.multiply(g, 1.0 - ADAM_BETA1, out=scratch)
    m1 += scratch
    g *= g
    g *= 1.0 - ADAM_BETA2
    m2 *= ADAM_BETA2
    m2 += g
    root = math.sqrt(1.0 - ADAM_BETA2**state.t)
    np.sqrt(m2, out=g)
    g += ADAM_EPSILON * root
    np.divide(m1, g, out=scratch)
    scratch *= state.alpha * root / (1.0 - ADAM_BETA1**state.t)
    theta -= scratch


# ---------------------------------------------------------------------------
# Min-max normalization
# ---------------------------------------------------------------------------


@dataclass
class MinMaxScaler:
    """Per-feature and target min/max learned from the training split only.

    Values are mapped linearly onto [0, 1] over the training range; out-of-range
    values extrapolate (no clipping). A constant column maps to 0.5.
    """

    feature_min: np.ndarray
    feature_max: np.ndarray
    target_min: float
    target_max: float

    def transform_features(self, x: np.ndarray) -> np.ndarray:
        rng = self.feature_max - self.feature_min
        live = rng > 0
        return np.where(live, (np.asarray(x, dtype=np.float64) - self.feature_min)
                        / np.where(live, rng, 1.0), 0.5)

    def transform_target(self, y: np.ndarray) -> np.ndarray:
        rng = self.target_max - self.target_min
        if rng > 0:
            return (np.asarray(y, dtype=np.float64) - self.target_min) / rng
        return np.full_like(np.asarray(y, dtype=np.float64), 0.5)

    def invert_target(self, y: np.ndarray) -> np.ndarray:
        rng = self.target_max - self.target_min
        return np.asarray(y, dtype=np.float64) * rng + self.target_min


def fit_scaler(windows) -> MinMaxScaler:
    """Learn feature/target ranges from make_windows' (features, rows,
    targets). The inputs are gathered window after window, so the bounds
    are those of the concatenated windows bit for bit, even a zero's sign."""
    features, rows, targets = windows
    if rows.size == 0:
        raise ConfigError("cannot fit a scaler on an empty training set")
    inputs = features[rows.ravel()]
    fmin = inputs.min(axis=0)
    fmax = inputs.max(axis=0)
    constant = np.nonzero(fmax == fmin)[0]
    if constant.size:
        warnings.warn(
            f"constant feature column(s) {constant.tolist()} map to 0.5", stacklevel=2
        )
    targets = np.ravel(targets)
    tmin, tmax = float(targets.min()), float(targets.max())
    if tmax == tmin:
        warnings.warn("constant target maps to 0.5", stacklevel=2)
    return MinMaxScaler(feature_min=fmin, feature_max=fmax, target_min=tmin, target_max=tmax)


def apply_scaler(scaler: MinMaxScaler, windows) -> tuple[np.ndarray, np.ndarray]:
    """Normalized arrays X (N, L, F) and Y (N, K) of make_windows' windows.
    Min-max scaling is elementwise, so the feature matrix is scaled once and
    the windows gathered from it by row."""
    features, rows, targets = windows
    return scaler.transform_features(features)[rows], scaler.transform_target(targets)


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------


@dataclass
class TrainConfig:
    epochs: int = 500
    batch_size: int = 8
    loss: str = "mse"
    lr: float = 1e-3
    seed: int = 0
    shuffle: bool = True

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.loss not in LOSS_KINDS:
            raise ConfigError(f"unknown loss {self.loss!r}; expected one of {LOSS_KINDS}")
        numeric = isinstance(self.lr, (int, float)) and not isinstance(self.lr, bool)
        if not (numeric and math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"learning rate must be a finite number > 0, got {self.lr!r}")


def train(
    model: ForecastModel, X: np.ndarray, Y: np.ndarray, config: TrainConfig
) -> tuple[ForecastModel, list[float]]:
    """Mini-batch training over normalized windows.

    X: (N, L, F) inputs, Y: (N, K) targets, both already scaled. Gradients are
    averaged within each batch so the learning rate is batch-size independent.
    Returns the trained model, a copy (the caller's model is not changed),
    and the mean batch loss per epoch, which is logged every tenth of the
    epochs. Fully deterministic for a given config.seed.
    """
    config.validate()
    X = np.asarray(X, dtype=np.float64)
    Y = np.asarray(Y, dtype=np.float64)
    if X.ndim != 3 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise ConfigError(f"dataset shapes disagree: X {X.shape}, Y {Y.shape}")
    if X.shape[0] == 0:
        raise ConfigError("training set is empty")
    n = X.shape[0]
    rng = np.random.default_rng(config.seed)
    # The in-place Adam update of theta is the only parameter write per
    # batch; backward_batch writes the gradient into ws.backward.grad, in theta's layout.
    model = ForecastModel(model.spec, model.theta.copy())
    theta = model.theta
    state = AdamState.zeros(theta.size, alpha=config.lr)
    ws = Workspace(model, min(config.batch_size, n), X.shape[1])
    history: list[float] = []
    log_every = max(config.epochs // 10, 1)
    for epoch in range(config.epochs):
        order = rng.permutation(n) if config.shuffle else np.arange(n)
        epoch_losses = []
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            y_hat, cache = forward_batch(model, X[batch], ws)
            loss, dY = batch_loss_and_grad(y_hat, Y[batch], config.loss)
            if not np.isfinite(loss):
                raise NumericalError(
                    f"non-finite loss at epoch {epoch}, batch {start // config.batch_size}"
                )
            backward_batch(model, cache, dY)
            _adam_update_flat(theta, ws.backward.grad, state)
            epoch_losses.append(loss)
        history.append(float(np.mean(epoch_losses)))
        if (epoch + 1) % log_every == 0:
            log.info("epoch %d  loss %.6g", epoch + 1, history[-1])
    return model, history
