"""A task that only the recurrence can solve: training must move the LSTM
layers, and move them the right way.

The acceptance gate (test_acceptance.py) cannot see the LSTM layers: the
synthetic intensity has no memory, and a network whose LSTM weights never
move scores about as well there. Here the inputs are independent uniform
draws and the target of a window is x[t-10, 0] - x[t-10, 1], two inputs
ten steps before its last step t. The dense layers read only lstm2's last
state, so the network can learn the target only through the recurrence.
The paper's network (lstm 50 -> lstm 30 -> dense 300/100/1, mse, batch 8,
lr 1e-3, uniform init) trains for EPOCHS epochs on TRAIN windows (L=14,
F=4) and is scored by CC on HELD_OUT other windows, against the same run
with the LSTM part of the gradient zeroed before every Adam step (the LSTM
weights stay at their init).

One seed sets the data, the init and the batch order. Seeds 0-9 gave
trained / frozen CC 0.551/0.165, 0.372/0.090, 0.525/0.176, 0.469/0.109,
0.506/0.083, 0.142/-0.017, 0.551/0.136, 0.473/0.117, 0.449/0.149 and
0.537/0.141: the smallest gap is 0.159 (seed 5), and MARGIN is below every
one. The test runs seed 0 (~3 s on two cores). With every step's a_t
(the gradient w.r.t. the gate pre-activations) negated in the backward
pass, trained CC was 0.077 at seed 0; with only a_o negated it was still
0.529. Errors this coarse check misses are the directional-derivative
test's job (test_lstm.py).
"""

import numpy as np

from eadforecast import training
from eadforecast.lstm import ModelSpec, forward_batch, init_params
from eadforecast.metrics import corr_coeff

SEED, EPOCHS, TRAIN, HELD_OUT, LAG = 0, 5, 1024, 512, 10
MARGIN = 0.15  # trained CC >= frozen CC + MARGIN


def held_out_cc() -> float:
    rng = np.random.default_rng(SEED)
    X = rng.uniform(size=(TRAIN + HELD_OUT, 14, 4))
    Y = X[:, -1 - LAG, :1] - X[:, -1 - LAG, 1:2]
    model = init_params(ModelSpec(input_dim=4), seed=SEED)
    config = training.TrainConfig(epochs=EPOCHS, batch_size=8, seed=SEED)
    trained, _ = training.train(model, X[:TRAIN], Y[:TRAIN], config)
    y, _ = forward_batch(trained, X[TRAIN:])
    return corr_coeff(y[:, 0], Y[TRAIN:, 0])


def test_training_the_lstm_layers_solves_a_memory_task(monkeypatch):
    trained = held_out_cc()

    model = init_params(ModelSpec(input_dim=4))
    n_lstm = model.lstm1.W.size + model.lstm2.W.size  # theta starts with lstm1.W, lstm2.W
    adam = training._adam_update_flat

    def frozen_lstm(theta, grad, state):
        grad[:n_lstm] = 0.0
        adam(theta, grad, state)

    monkeypatch.setattr(training, "_adam_update_flat", frozen_lstm)
    frozen = held_out_cc()
    assert trained >= frozen + MARGIN, (trained, frozen)
