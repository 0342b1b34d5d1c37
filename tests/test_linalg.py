"""Elementwise activations (a sigmoid head's outputs and numpy's tanh,
which the LSTM gates use) and the finite-difference gradient oracle."""

import numpy as np
import pytest

from eadforecast.errors import ConfigError, NumericalError
from eadforecast.lstm import ModelSpec, forward_batch, init_params
from tests.oracles import finite_diff_gradient
from tests.test_lstm import layer_forward, zero_cell


def sigmoid(z) -> np.ndarray:
    """The outputs of a network's sigmoid head for the pre-activations z
    (flattened): every weight is zero and the head's bias is z, so the head
    computes sigmoid(0 + z), one output per entry."""
    z = np.asarray(z, dtype=np.float64).ravel()
    spec = ModelSpec(input_dim=1, hidden1=1, hidden2=1, fc1=1, fc2=1, horizon=z.size,
                     head_activation="sigmoid")
    model = init_params(spec, scheme="zeros")
    model.head.b[:] = z
    y, _ = forward_batch(model, np.zeros((1, 1, 1)))
    return y[0]


class TestActivations:
    def test_sigmoid_at_zero(self):
        assert sigmoid(np.zeros(1))[0] == 0.5

    def test_tanh_at_zero(self):
        # A layer with zero weights and biases puts 0 into both of its tanh
        # nonlinearities (the memory gate and the cell output) at every step.
        cache = layer_forward(zero_cell(2, 3), np.ones((4, 3)))
        assert np.all(cache["m"] == 0.0) and np.all(cache["tanh_c"] == 0.0)

    def test_sigmoid_symmetry_at_1p7(self):
        x = np.array([1.7])
        np.testing.assert_allclose(sigmoid(-x), 1.0 - sigmoid(x), atol=1e-15)

    def test_sigmoid_symmetry_property(self):
        rng = np.random.default_rng(11)
        x = rng.uniform(-50, 50, size=5000)
        np.testing.assert_allclose(sigmoid(x) + sigmoid(-x), 1.0, atol=1e-15)

    def test_tanh_sigmoid_identity(self):
        # tanh(x) = 2*sigmoid(2x) - 1
        rng = np.random.default_rng(12)
        x = rng.uniform(-20, 20, size=5000)
        np.testing.assert_allclose(np.tanh(x), 2.0 * sigmoid(2.0 * x) - 1.0, rtol=1e-12, atol=1e-12)

    def test_saturation_is_quiet(self):
        # tanh(z/2) is exactly -1 or 1 far out, so the head saturates to
        # exactly 0 or 1 with no floating-point warning on the way.
        big = np.array([-1e4, 1e4])
        with np.errstate(all="raise"):
            s = sigmoid(big)
        assert s[0] == 0.0 and s[1] == 1.0

    def test_ranges_and_monotonicity(self):
        x = np.linspace(-30, 30, 2001)
        s, t = sigmoid(x), np.tanh(x)
        assert np.all((s >= 0) & (s <= 1)) and np.all((t >= -1) & (t <= 1))
        assert np.all(np.diff(s) >= 0) and np.all(np.diff(t) >= 0)


class TestFiniteDiffGradient:
    def test_square(self):
        # d/dx x^2 at 3 is 6
        grad = finite_diff_gradient(lambda p: p[0] ** 2, np.array([3.0]), h=1e-5)
        np.testing.assert_allclose(grad, [6.0], atol=1e-8)

    def test_bilinear(self):
        grad = finite_diff_gradient(lambda p: p[0] * p[1], np.array([2.0, 5.0]))
        np.testing.assert_allclose(grad, [5.0, 2.0], atol=1e-9)

    def test_bad_step_rejected(self):
        with pytest.raises(ConfigError):
            finite_diff_gradient(lambda p: p[0], np.array([1.0]), h=0.0)

    def test_non_finite_reported(self):
        with pytest.raises(NumericalError, match="coordinate 0"):
            finite_diff_gradient(lambda p: float("nan"), np.array([1.0]))
