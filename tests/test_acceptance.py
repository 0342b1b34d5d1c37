"""Forecast quality against the noise floor of the synthetic ground truth.

`synth --seed 0` writes the generator's true daily intensity
(`ground_truth.json`, `lambda_all`). Scored against the drawn counts, it is
the best any forecaster can do on this data: over 2020 it reaches CC 0.9753
and relative MAE 0.0539. The test trains the paper's configuration (lstm 50
-> lstm 30 -> dense 300/100/1, L=14, K=1, batch 8, lr 1e-3, mse, uniform
init, all four features, seed 0) on 2014-2019 for a few epochs, forecasts
2020 through the CLI, and requires CC and MAE within fixed margins of the
floor.

EPOCHS and the margins were set once against the engine of the time (10
epochs gave CC 0.9601 and MAE 0.0788, ~12 s of training on two cores) and
are not to be re-tuned: a change that fails here has lost accuracy. The
gate catches gross breakage such as a sign error in a gradient (CC -0.83 in
a trial); subtle gradient errors are the finite-difference tests' job,
since a network whose LSTM weights never move still scores about as well
after so few epochs.
"""

import csv
import json

import numpy as np
import pytest
import yaml

from eadforecast.cli import main
from eadforecast.metrics import corr_coeff, mae

EPOCHS = 10
CC_MARGIN = 0.025  # CC >= floor CC - margin
MAE_MARGIN = 0.035  # relative MAE <= floor MAE + margin


@pytest.mark.acceptance
def test_paper_config_forecast_is_near_the_noise_floor(tmp_path):
    data = tmp_path / "data"
    assert main(["synth", "--out", str(data), "--seed", "0"]) == 0
    cfg = tmp_path / "config.yaml"
    cfg.write_text(yaml.safe_dump({
        "data": {"weather": str(data / "weather.csv"), "ead": str(data / "ead.csv"),
                 "mobility": str(data / "mobility.csv"), "holidays": str(data / "holidays.txt")},
        "train": {"start": "2014-04-01", "end": "2019-12-31"},
        "test": {"start": "2020-01-01", "end": "2020-08-19"},
        "group": "all", "lookback": 14, "horizon": 1,
        "features": ["temperature", "humidity", "day_label", "mobility"],
        "training": {"epochs": EPOCHS, "batch_size": 8, "loss": "mse", "lr": 0.001, "seed": 0},
        "init": "uniform",
        "out": str(tmp_path / "out"),
    }))
    out = tmp_path / "out"
    assert main(["train", "--config", str(cfg)]) == 0
    assert main(["forecast", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin")]) == 0
    assert main(["evaluate", "--config", str(cfg), "--predictions", str(out / "predictions.csv")]) == 0
    with (out / "report.csv").open() as fh:
        est = list(csv.reader(fh))[2]
    cc, rel_mae = float(est[-2]), float(est[-1])

    with (out / "predictions.csv").open() as fh:
        days = [row["target_date"] for row in csv.DictReader(fh)]
    with (data / "ead.csv").open() as fh:
        actual_by_day = {row["date"]: float(row["all"]) for row in csv.DictReader(fh)}
    truth = json.loads((data / "ground_truth.json").read_text())
    lam_by_day = dict(zip(truth["dates"], truth["lambda_all"]))
    actual = np.array([actual_by_day[d] for d in days])
    lam = np.array([lam_by_day[d] for d in days])
    floor_cc, floor_mae = corr_coeff(actual, lam), mae(actual, lam)

    assert len(days) == 232
    assert cc >= floor_cc - CC_MARGIN, (cc, floor_cc)
    assert rel_mae <= floor_mae + MAE_MARGIN, (rel_mae, floor_mae)
