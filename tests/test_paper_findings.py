"""The paper's finding as a gate: with mobility data the network estimates
the dispatches of the state of emergency, and without it the network cannot.

The paper's `ablation_2020` rows (`reference_metrics.csv`) give relative MAE
0.047 with all features and 0.191 without mobility. Here the paper's
network (lstm 50 -> lstm 30 -> dense 300/100/1, L=14, K=1, batch 8, lr
1e-3, mse, uniform init) trains for EPOCHS epochs on `synth --seed SEED`
over 2014-04-01..2019-12-31 as `ablate`'s `all_features` and `no_mobility`
variants, through `cli.run_study`, and forecasts 2020-01-01..2020-08-19.
The test requires no_mobility's relative MAE over the state-of-emergency
window (`data.SOE_START`..`SOE_END`, 2020-04-18..05-25) to exceed
all_features' by MARGIN.

One seed sets the dataset and the training. Seeds 0-9 gave all_features /
no_mobility window MAE 0.115/0.309, 0.133/0.393, 0.166/0.381, 0.117/0.373,
0.076/0.352, 0.085/0.255, 0.349/0.343, 0.115/0.398, 0.216/0.389 and
0.098/0.365. Every gap but seed 6's is at least 0.170 (seed 5), and MARGIN
is below each of them. Seed 6 reverses the order by 0.006, and its dataset
is the cause, not its training: dataset 6 trained with seed 0 gave
0.270/0.311, and dataset 0 trained with seed 6 gave 0.098/0.281. At 15, 20
and 30 epochs seed 6's gap was 0.021, -0.002 and 0.038. Its training span
also has the fewest days below 60% mobility of the ten (45, against
60-162). So at this length the finding holds on nine of ten synthetic
datasets. The test runs seed 0 (~11 s on two cores). MARGIN is not to be
re-tuned.
"""

import dataclasses
import datetime as dt

from eadforecast import cli, data
from eadforecast.metrics import mae

SEED, EPOCHS = 0, 10
MARGIN = 0.15  # no_mobility's window MAE >= all_features' + MARGIN


def test_without_mobility_the_state_of_emergency_is_missed(tmp_path):
    paths = data.write_dataset(data.synth_generate(data.SynthConfig(), seed=SEED), tmp_path / "data")
    cfg = cli.RunConfig(
        weather=paths["weather"], ead=paths["ead"], mobility=paths["mobility"],
        holidays=paths["holidays"], train_start=dt.date(2014, 4, 1),
        train_end=dt.date(2019, 12, 31), test_start=dt.date(2020, 1, 1),
        test_end=dt.date(2020, 8, 19), seed=SEED, epochs=EPOCHS, out=tmp_path / "out")
    no_mobility = dataclasses.replace(cfg, features=tuple(f for f in cfg.features if f != "mobility"))
    evaluations = cli.run_study(cfg, [(cfg, tmp_path / "out" / "all_features"),
                                      (no_mobility, tmp_path / "out" / "no_mobility")])
    window = []
    for ev in evaluations:
        lo, hi = ((day - ev.agg.start).days for day in (data.SOE_START, data.SOE_END))
        window.append(mae(ev.actual[lo : hi + 1], ev.estimate[lo : hi + 1]))
    with_mobility, without = window
    assert without >= with_mobility + MARGIN, (with_mobility, without)
