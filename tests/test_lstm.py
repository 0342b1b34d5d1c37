"""One LSTM layer, the stacked forward pass, and backpropagation through time.

The batched engine is pinned against an independent straight-line
transcription of the gate equations (both the standard and the lagged
candidate-vector variants), and every gradient is pinned against central
finite differences. A single window is a batch of one.
"""

import dataclasses

import numpy as np
import pytest

from eadforecast import lstm
from eadforecast.errors import ConfigError
from eadforecast.losses import batch_loss_and_grad
from eadforecast.lstm import (
    ForecastModel,
    LstmCellParams,
    ModelSpec,
    Workspace,
    _lstm_forward_batch,
    backward_batch,
    forward_batch,
    init_params,
    model_leaves,
    model_to_vector,
)
from tests.oracles import finite_diff_gradient


def zero_cell(hidden, inp) -> LstmCellParams:
    return LstmCellParams(np.zeros((4 * hidden, inp + hidden + 1)), inp)


def random_cell(rng, hidden, inp, scale=0.6) -> LstmCellParams:
    """Weights of standard deviation scale and biases of 1, drawn gate by
    gate: W_ix, W_is, W_ox, ..., W_ms, then b_i, ..., b_m."""
    p = zero_cell(hidden, inp)
    for g in "iofm":
        getattr(p, f"W_{g}x")[:] = rng.normal(0.0, scale, size=(hidden, inp))
        getattr(p, f"W_{g}s")[:] = rng.normal(0.0, scale, size=(hidden, hidden))
    for g in "iofm":
        getattr(p, f"b_{g}")[:] = rng.normal(size=hidden)
    return p


def random_model(rng, spec: ModelSpec) -> ForecastModel:
    """A uniform init plus normal noise, drawn in the canonical leaf order."""
    model = init_params(spec, scheme="uniform", seed=int(rng.integers(1 << 31)))
    noise, pos = rng.normal(0.0, 0.2, size=spec.size), 0
    for _, leaf in model_leaves(model):
        leaf += noise[pos : pos + leaf.size].reshape(leaf.shape)
        pos += leaf.size
    return model


def layer_forward(p, seq, lagged=False) -> dict:
    """The engine's layer over one sequence (T, I), as a batch of one."""
    return _lstm_forward_batch(p, np.asarray(seq, dtype=np.float64)[:, None, :], lagged)


def straightline_cell(p, x, c_prev, s_prev, m_prev=None):
    """Independent loop-free transcription of the six gate equations."""
    i = 1.0 / (1.0 + np.exp(-(p.W_ix @ x + p.W_is @ s_prev + p.b_i)))
    o = 1.0 / (1.0 + np.exp(-(p.W_ox @ x + p.W_os @ s_prev + p.b_o)))
    f = 1.0 / (1.0 + np.exp(-(p.W_fx @ x + p.W_fs @ s_prev + p.b_f)))
    m = np.tanh(p.W_mx @ x + p.W_ms @ s_prev + p.b_m)
    candidate = m if m_prev is None else m_prev
    c = f * c_prev + i * candidate
    s = o * np.tanh(c)
    return c, s, (i, o, f, m)


def straightline_layer(p, seq, lagged=False, init=None):
    """straightline_cell threaded over a sequence from init = (c, s, m), or
    from the zero state; returns per-step (c, s, (i, o, f, m))."""
    hidden = p.W_ix.shape[0]
    c, s, m = init if init is not None else (np.zeros(hidden),) * 3
    steps = []
    for x in seq:
        c, s, gates = straightline_cell(p, x, c, s, m_prev=m if lagged else None)
        m = gates[3]
        steps.append((c, s, gates))
    return steps


class TestCellStep:
    def test_all_zero_params(self):
        # sigma(0)=0.5 gates, m=0 candidate: state stays at zero.
        cache = layer_forward(zero_cell(3, 2), [[1.0, -2.0]])
        assert np.array_equal(cache["c"], np.zeros((1, 1, 3)))
        assert np.array_equal(cache["s"], np.zeros((1, 1, 3)))
        np.testing.assert_allclose(cache["i"], 0.5)
        np.testing.assert_allclose(cache["m"], 0.0)

    def test_saturated_gates_carry_memory(self):
        # H=1, b_i=b_f=b_o=100 saturate the gates to 1, and the only nonzero
        # weight, W_mx=1, makes the candidate tanh(x). Step 1 from the zero
        # state stores c = tanh(atanh(0.3)) = 0.3; step 2 has x=0, so its
        # candidate is 0 and c carries over: c=0.3, s = tanh(0.3) = 0.29131...
        p = zero_cell(1, 1)
        p.W_mx[:] = 1.0
        for b in (p.b_i, p.b_o, p.b_f):
            b[:] = 100.0
        cache = layer_forward(p, [[np.arctanh(0.3)], [0.0]])
        np.testing.assert_allclose(cache["c"][:, 0], [[0.3], [0.3]], atol=1e-12)
        np.testing.assert_allclose(cache["s"][1, 0], [np.tanh(0.3)], atol=1e-12)

    @pytest.mark.parametrize("lagged", [False, True])
    def test_matches_straightline_oracle(self, lagged):
        rng = np.random.default_rng(123)
        for trial in range(100):
            hidden = 1 if trial % 2 == 0 else int(rng.integers(2, 6))
            inp = 1 if trial % 2 == 0 else int(rng.integers(1, 5))
            steps, batch = int(rng.integers(1, 5)), int(rng.integers(1, 4))
            p = random_cell(rng, hidden, inp)
            x = rng.normal(size=(steps, batch, inp))
            cache = _lstm_forward_batch(p, x, lagged)
            for b in range(batch):
                ref = straightline_layer(p, x[:, b], lagged)
                for t, (c_ref, s_ref, (i_ref, o_ref, f_ref, m_ref)) in enumerate(ref):
                    np.testing.assert_allclose(cache["c"][t, b], c_ref, atol=1e-12)
                    np.testing.assert_allclose(cache["s"][t, b], s_ref, atol=1e-12)
                    np.testing.assert_allclose(cache["i"][t, b], i_ref, atol=1e-12)
                    np.testing.assert_allclose(cache["m"][t, b], m_ref, atol=1e-12)

    def test_lagged_first_step_uses_zero_candidate(self):
        # The first step's candidate is the zero vector, so c_1 = 0; the
        # second step's is the first step's m: c_2 = f_2*0 + i_2*m_1.
        p = random_cell(np.random.default_rng(5), 2, 2)
        cache = layer_forward(p, [[0.4, -0.2], [0.1, 0.3]], lagged=True)
        np.testing.assert_allclose(cache["c"][0, 0], np.zeros(2), atol=1e-15)
        np.testing.assert_allclose(cache["c"][1, 0], cache["i"][1, 0] * cache["m"][0, 0], atol=1e-15)

    def test_gate_matrices_are_views_of_the_stacked_weights(self):
        # W = [Wx | Ws | b] with gate rows i, o, f, m: each of the paper's
        # twelve arrays is a block of it, and an edit of one shows in W.
        p = random_cell(np.random.default_rng(1), 2, 3)
        blocks = [np.hstack([getattr(p, f"W_{g}x"), getattr(p, f"W_{g}s"),
                             getattr(p, f"b_{g}")[:, None]]) for g in "iofm"]
        assert np.array_equal(np.vstack(blocks), p.W)
        p.W_fs[1, 0] = 7.0
        assert p.W[2 * 2 + 1, 3 + 0] == 7.0
        with pytest.raises(AttributeError):
            p.W_fx = np.zeros((2, 3))

    def test_saturated_gates_are_exactly_zero_or_one_without_warnings(self):
        # |z| > 40 puts tanh(z/2) at exactly +-1, so sigmoid(z) = (1 +
        # tanh(z/2)) / 2 is exactly 1 or 0 and tanh(z) exactly +-1, with no
        # overflow on the way; the backward pass stays finite and gives the
        # saturated gates zero gradient.
        model = init_params(ModelSpec(input_dim=1, hidden1=2, hidden2=2, fc1=3, fc2=2), seed=3)
        p = model.lstm1
        p.W[:] = 0.0
        p.b_i[:], p.b_o[:], p.b_f[:] = [41.0, -41.0], [300.0, -45.0], [-60.0, 42.0]
        p.W_mx[:] = [[50.0], [-50.0]]
        with np.errstate(all="raise"):
            cache = layer_forward(p, [[1.0], [2.0], [-1.0]])
            assert np.array_equal(cache["i"][:, 0], np.tile([1.0, 0.0], (3, 1)))
            assert np.array_equal(cache["o"][:, 0], np.tile([1.0, 0.0], (3, 1)))
            assert np.array_equal(cache["f"][:, 0], np.tile([0.0, 1.0], (3, 1)))
            assert np.array_equal(cache["m"][:, 0], [[1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
            _, grads = loss_and_grads(model, np.array([[[1.0], [2.0], [-1.0]]]), np.array([[0.5]]))
        assert np.all(np.isfinite(grads.lstm1.W_is))
        assert np.array_equal(grads.lstm1.b_i, np.zeros(2))
        assert np.array_equal(grads.lstm1.b_f, np.zeros(2))

    def test_gate_ranges(self):
        # Open-interval bounds hold wherever float64 tanh/sigmoid have not
        # saturated; keep pre-activations inside that range.
        rng = np.random.default_rng(9)
        cache = layer_forward(random_cell(rng, 4, 3, scale=0.8), rng.normal(size=(20, 3)))
        for g in ("i", "o", "f"):
            assert np.all((cache[g] > 0.0) & (cache[g] < 1.0))
        assert np.all((cache["m"] > -1.0) & (cache["m"] < 1.0))
        assert np.all(np.abs(cache["s"]) < 1.0)


class TestLayerForward:
    def test_single_step_equivalence(self):
        rng = np.random.default_rng(3)
        p = random_cell(rng, 3, 2)
        x = rng.normal(size=2)
        cache = layer_forward(p, [x])
        c_ref, _, (_, _, f_ref, _) = straightline_cell(p, x, np.zeros(3), np.zeros(3))
        np.testing.assert_allclose(cache["c"][0, 0], c_ref, atol=1e-15)
        np.testing.assert_allclose(cache["f"][0, 0], f_ref, atol=1e-15)

    def test_zero_params_fixed_point(self):
        cache = layer_forward(zero_cell(3, 2), np.ones((6, 2)))
        assert np.array_equal(cache["s"], np.zeros((6, 1, 3)))

    @pytest.mark.parametrize("lagged", [False, True])
    def test_concatenation_property(self, lagged):
        # forward(a ++ b) starts with forward(a), bit for bit, and continues
        # as the cell equations run over b from the final state of forward(a).
        rng = np.random.default_rng(17)
        p = random_cell(rng, 3, 2)
        seq = rng.normal(size=(5, 2))
        full = layer_forward(p, seq, lagged)
        head = layer_forward(p, seq[:3], lagged)
        for key in ("c", "s", "gates"):
            assert np.array_equal(full[key][:3], head[key])
        init = (head["c"][-1, 0], head["s"][-1, 0], head["m"][-1, 0])
        tail = straightline_layer(p, seq[3:], lagged, init=init)
        np.testing.assert_allclose(full["c"][-1, 0], tail[-1][0], atol=1e-14)
        np.testing.assert_allclose(full["s"][-1, 0], tail[-1][1], atol=1e-14)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ConfigError):
            forward_batch(init_params(TINY), np.zeros((1, 0, 2)))


TINY = ModelSpec(input_dim=2, hidden1=2, hidden2=2, fc1=3, fc2=2, horizon=1)


def forward_one(model, window) -> np.ndarray:
    """The network's (K,) output for one window (L, F)."""
    y, _ = forward_batch(model, np.asarray(window)[None])
    return y[0]


class TestNetworkForward:
    def test_zero_model_outputs_zero(self):
        model = init_params(ModelSpec(input_dim=3, horizon=2), scheme="zeros")
        y = forward_one(model, np.random.default_rng(0).normal(size=(6, 3)))
        assert np.array_equal(y, np.zeros(2))

    def test_matches_hand_composition(self):
        # Compose the five layers through the straight-line cell equations.
        rng = np.random.default_rng(21)
        model = random_model(rng, TINY)
        window = rng.normal(size=(4, 2))
        y = forward_one(model, window)

        steps1 = straightline_layer(model.lstm1, window)
        steps2 = straightline_layer(model.lstm2, [s for _, s, _ in steps1])
        h = steps2[-1][1]
        r1 = np.maximum(model.fc1.W @ h + model.fc1.b, 0.0)
        r2 = np.maximum(model.fc2.W @ r1 + model.fc2.b, 0.0)
        ref = model.head.W @ r2 + model.head.b
        np.testing.assert_allclose(y, ref, atol=1e-12)

    def test_batched_equals_per_window(self):
        rng = np.random.default_rng(33)
        for lagged in (False, True):
            spec = ModelSpec(input_dim=3, hidden1=4, hidden2=3, fc1=5, fc2=4, horizon=2, lagged_m=lagged)
            model = random_model(rng, spec)
            X = rng.normal(size=(6, 7, 3))
            Y, _ = forward_batch(model, X)
            for b in range(6):
                np.testing.assert_allclose(Y[b], forward_one(model, X[b]), atol=1e-12)

    def test_repeated_input_stays_bounded(self):
        rng = np.random.default_rng(8)
        model = random_model(rng, TINY)
        window = rng.normal(size=(4, 2))
        doubled = np.vstack([window, np.repeat(window[-1:], 4, axis=0)])
        y1, y2 = forward_one(model, window), forward_one(model, doubled)
        assert np.all(np.isfinite(y1)) and np.all(np.isfinite(y2))

    def test_determinism(self):
        rng = np.random.default_rng(44)
        model = random_model(rng, TINY)
        window = rng.normal(size=(5, 2))
        assert np.array_equal(forward_one(model, window), forward_one(model, window))

    def test_input_dim_mismatch(self):
        model = init_params(TINY)
        with pytest.raises(ConfigError):
            forward_batch(model, np.zeros((1, 4, 3)))


def loss_and_grads(model, X, Y, loss="mse"):
    """Batch-mean loss and the analytic parameter gradients for windows X
    (B, L, F) and targets Y (B, K)."""
    y, cache = forward_batch(model, X)
    loss_val, dY = batch_loss_and_grad(y, Y, loss)
    return loss_val, backward_batch(model, cache, dY)


def relative_error(a, n):
    denom = np.maximum.reduce([np.abs(a), np.abs(n), np.full_like(n, 1e-8)])
    return np.abs(a - n) / denom


def check_gradients(model, X, Y, loss="mse", h=1e-5):
    _, grads = loss_and_grads(model, X, Y, loss)
    analytic = grads.theta

    def f(theta):
        return loss_and_grads(ForecastModel(model.spec, theta), X, Y, loss)[0]

    numeric = finite_diff_gradient(f, model.theta.copy(), h)
    return relative_error(analytic, numeric).max()


class TestNetworkBackward:
    def test_zero_residual_means_zero_gradient(self):
        rng = np.random.default_rng(50)
        model = random_model(rng, TINY)
        X = rng.normal(size=(1, 4, 2))
        y, _ = forward_batch(model, X)
        _, grads = loss_and_grads(model, X, y)
        for _, leaf in model_leaves(grads):
            assert np.allclose(leaf, 0.0, atol=1e-15)

    def test_head_bias_closed_form(self):
        # For mean-reduced squared error, d loss / d head bias = 2*(y_hat - y)/K.
        rng = np.random.default_rng(51)
        spec = ModelSpec(input_dim=2, hidden1=2, hidden2=2, fc1=3, fc2=2, horizon=3)
        model = random_model(rng, spec)
        X = rng.normal(size=(1, 4, 2))
        target = rng.normal(size=(1, 3))
        y, _ = forward_batch(model, X)
        _, grads = loss_and_grads(model, X, target)
        np.testing.assert_allclose(grads.head.b, 2.0 * (y[0] - target[0]) / 3.0, atol=1e-12)

    @pytest.mark.parametrize("lagged", [False, True])
    def test_matches_finite_differences(self, lagged):
        rng = np.random.default_rng(60 + lagged)
        spec = ModelSpec(
            input_dim=2, hidden1=2, hidden2=2, fc1=3, fc2=2, horizon=1, lagged_m=lagged
        )
        for _ in range(4):
            model = random_model(rng, spec)
            assert model.theta.size <= 200
            X = rng.normal(size=(1, 5, 2))
            Y = rng.normal(size=(1, 1))
            assert check_gradients(model, X, Y) < 1e-5

    @pytest.mark.parametrize("lagged", [False, True])
    def test_batch_gradient_is_mean_of_window_gradients(self, lagged):
        rng = np.random.default_rng(65 + lagged)
        spec = ModelSpec(input_dim=3, hidden1=4, hidden2=3, fc1=5, fc2=4, horizon=2, lagged_m=lagged)
        model = random_model(rng, spec)
        X, Y = rng.normal(size=(5, 6, 3)), rng.normal(size=(5, 2))
        _, grads = loss_and_grads(model, X, Y)
        per_window = [loss_and_grads(model, X[b : b + 1], Y[b : b + 1])[1].theta for b in range(5)]
        np.testing.assert_allclose(grads.theta, np.mean(per_window, axis=0), rtol=1e-10, atol=1e-14)

    @pytest.mark.parametrize("lagged", [False, True])
    def test_multi_block_backward_matches_finite_differences(self, lagged, monkeypatch):
        # One step of lstm1 is 4H x B = 8 doubles here, so 128 bytes make
        # blocks of two steps: the 5-step backward runs blocks [3,5), [1,3),
        # [0,1), and its factors cross block boundaries (c_prev, m_prev and,
        # lagged, the next step's i).
        monkeypatch.setattr(lstm, "BACKWARD_BLOCK_BYTES", 128)
        rng = np.random.default_rng(80 + lagged)
        spec = ModelSpec(
            input_dim=2, hidden1=2, hidden2=2, fc1=3, fc2=2, horizon=1, lagged_m=lagged
        )
        for _ in range(3):
            model = random_model(rng, spec)
            X, Y = rng.normal(size=(1, 5, 2)), rng.normal(size=(1, 1))
            assert Workspace(model, 1, 5).lstm1.block == 2
            assert check_gradients(model, X, Y) < 1e-5

    @pytest.mark.parametrize("lagged", [False, True])
    def test_gradient_bits_do_not_depend_on_the_block_length(self, lagged, monkeypatch):
        # The factors are elementwise, so grouping steps into blocks moves no bit.
        rng = np.random.default_rng(90 + lagged)
        spec = ModelSpec(input_dim=3, hidden1=4, hidden2=3, fc1=5, fc2=4, horizon=2, lagged_m=lagged)
        model = random_model(rng, spec)
        X, Y = rng.normal(size=(3, 7, 3)), rng.normal(size=(3, 2))
        grads = []
        for block_bytes in (1, 8 * 16 * 3 * 3, 1 << 30):  # blocks of 1, 3 and 7 steps
            monkeypatch.setattr(lstm, "BACKWARD_BLOCK_BYTES", block_bytes)
            grads.append(loss_and_grads(model, X, Y)[1].theta)
        assert np.array_equal(grads[0], grads[1]) and np.array_equal(grads[0], grads[2])

    def test_workspace_gradient_is_flat_and_fully_rewritten(self):
        # backward_batch writes every entry of the workspace's flat gradient,
        # and returns the model over it; a reused workspace, also at a
        # smaller batch, gives the bits of a fresh one.
        rng = np.random.default_rng(95)
        spec = ModelSpec(input_dim=3, hidden1=4, hidden2=3, fc1=5, fc2=4, horizon=2)
        model = random_model(rng, spec)
        ws = Workspace(model, 4, 6)
        for batch in (4, 3, 4):
            X, Y = rng.normal(size=(batch, 6, 3)), rng.normal(size=(batch, 2))
            y, cache = forward_batch(model, X, ws)
            ws.grad.fill(np.nan)
            grads = backward_batch(model, cache, batch_loss_and_grad(y, Y)[1])
            assert grads is ws.grads and grads.theta is ws.grad
            assert not np.isnan(ws.grad).any()
            assert np.array_equal(ws.grad, loss_and_grads(model, X, Y)[1].theta)

    def test_workspace_refuses_a_larger_batch(self):
        model = init_params(TINY)
        with pytest.raises(ConfigError, match="workspace"):
            forward_batch(model, np.zeros((3, 4, 2)), Workspace(model, 2, 4))

    def test_cross_entropy_gradients(self):
        rng = np.random.default_rng(70)
        spec = ModelSpec(
            input_dim=2, hidden1=2, hidden2=2, fc1=3, fc2=2, horizon=2,
            head_activation="sigmoid",
        )
        model = random_model(rng, spec)
        X = rng.normal(size=(1, 4, 2))
        Y = rng.uniform(0.1, 0.9, size=(1, 2))
        assert check_gradients(model, X, Y, loss="xent") < 1e-5

    def test_missing_cache_rejected(self):
        model = init_params(TINY)
        with pytest.raises(ConfigError):
            backward_batch(model, None, np.zeros((1, 1)))


class TestParameterLayout:
    def test_layers_are_views_of_theta_in_engine_order(self):
        # theta = lstm1.W, lstm2.W, then fc1.W, fc1.b, fc2.W, fc2.b, head.W, head.b.
        model = random_model(np.random.default_rng(12), TINY)
        parts = [model.lstm1.W, model.lstm2.W]
        parts += [a for layer in (model.fc1, model.fc2, model.head) for a in (layer.W, layer.b)]
        assert np.array_equal(np.concatenate([a.ravel() for a in parts]), model.theta)
        assert all(np.shares_memory(a, model.theta) for a in parts)

    def test_leaves_follow_the_spec_in_the_canonical_order(self):
        model = random_model(np.random.default_rng(13), TINY)
        assert [(name, a.shape) for name, a in model_leaves(model)] == TINY.leaf_shapes()
        flat = model_to_vector(model)
        assert flat.size == TINY.size == model.theta.size
        assert np.array_equal(np.sort(flat), np.sort(model.theta))
        assert np.array_equal(flat[:4], model.lstm1.W_ix.ravel())  # (H, I) = (2, 2)

    def test_spec_is_frozen_and_checks_the_head_activation(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            TINY.hidden1 = 5
        with pytest.raises(ConfigError, match="activation"):
            ModelSpec(input_dim=2, head_activation="softmax")

    def test_theta_of_another_size_is_refused(self):
        with pytest.raises(ConfigError, match="parameter vector"):
            ForecastModel(TINY, np.zeros(TINY.size + 1))


class TestInitParams:
    def test_zero_scheme_gives_zero_output(self):
        model = init_params(ModelSpec(input_dim=4), scheme="zeros")
        y, _ = forward_batch(model, np.random.default_rng(1).normal(size=(1, 10, 4)))
        assert np.array_equal(y, np.zeros((1, 1)))

    def test_seed_determinism(self):
        a = init_params(ModelSpec(input_dim=3), scheme="uniform", seed=99)
        b = init_params(ModelSpec(input_dim=3), scheme="uniform", seed=99)
        for (_, la), (_, lb) in zip(model_leaves(a), model_leaves(b)):
            assert np.array_equal(la, lb)

    def test_uniform_bound(self):
        # fan_in=3, fan_out=50: every |entry| <= sqrt(6/53)
        model = init_params(ModelSpec(input_dim=3), scheme="uniform", seed=0)
        bound = np.sqrt(6.0 / 53.0)
        assert np.all(np.abs(model.lstm1.W_ix) <= bound)

    def test_biases_zero_under_uniform(self):
        model = init_params(ModelSpec(input_dim=3), scheme="uniform", seed=1)
        assert np.array_equal(model.lstm1.b_f, np.zeros(50))
        assert np.array_equal(model.head.b, np.zeros(1))

    def test_unknown_scheme(self):
        with pytest.raises(ConfigError):
            init_params(TINY, scheme="orthogonal")

    def test_zero_init_symmetry_first_step(self):
        # With a zero-initialized model, only the head receives nonzero
        # gradient on the first squared-error step (the bias; everything
        # upstream is blocked by zero activations and zero weights).
        model = init_params(ModelSpec(input_dim=2, hidden1=3, hidden2=2, fc1=3, fc2=2), scheme="zeros")
        window = np.random.default_rng(4).normal(size=(5, 2))
        _, grads = loss_and_grads(model, window[None], np.array([[2.0]]))
        assert not np.allclose(grads.head.b, 0.0)
        for name, leaf in model_leaves(grads):
            if name != "head.b":
                assert np.allclose(leaf, 0.0, atol=1e-15), name
