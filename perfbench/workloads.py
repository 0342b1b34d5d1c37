"""Workload definitions shared by run.py and worker.py.

Every workload uses the default synthetic dataset (2014-04-01 .. 2020-08-19)
generated from the workload seed, the paper's network (lstm 50 -> lstm 30 ->
dense 300/100/K), L=14, mse loss, uniform init, all four features and the
"all" group, trained on 2014-2019 and scored on 2020.

- train_paper: `train` at the paper config (K=1, B=8). 261 optimizer steps
  per epoch on small matrices: per-call overhead in the recurrence, the Adam
  step and the per-step gradient flattening dominate.
- ablate_wide: `ablate` (five variants, each train + forecast of 2020 +
  evaluate) at B=256. 9 steps per epoch of large elementwise and matmul work
  on (B, 4H) arrays; the only workload with several independent trainings.
- forecast_k28: `forecast` of every anchor of the dataset with a K=28
  checkpoint, then `evaluate`. Forward only at B=1 plus CSV I/O,
  horizon aggregation and SVG rendering. The checkpoint is trained briefly
  before timing starts.
"""

from __future__ import annotations

import datetime as dt
import json
from pathlib import Path

FEATURES = ["temperature", "humidity", "day_label", "mobility"]
LOOKBACK = 14

# epochs/batch_size: the timed training (train_paper, ablate_wide) or the
# training that makes the checkpoint before timing (forecast_k28).
# fwd_batch: the batch size of the forward passes the per-layer forward
# times report (the command's training batch, or B=1 for forecasting).
WORKLOADS = {
    "train_paper": {"command": "train", "epochs": 1, "batch_size": 8, "horizon": 1,
                    "fwd_batch": 8},
    "ablate_wide": {"command": "ablate", "epochs": 3, "batch_size": 256, "horizon": 1,
                    "fwd_batch": 256},
    "forecast_k28": {"command": "forecast", "epochs": 5, "batch_size": 8, "horizon": 28,
                     "fwd_batch": 1},
}

SPANS = {
    "full": {
        "synth": ("2014-04-01", "2020-08-19"),
        "train": ("2014-04-01", "2019-12-31"),
        "test": ("2020-01-01", "2020-08-19"),
    },
    # A few-second version of every workload for the harness smoke test.
    "tiny": {
        "synth": ("2019-07-01", "2020-02-29"),
        "train": ("2019-07-01", "2019-12-31"),
        "test": ("2020-01-01", "2020-02-29"),
    },
}


def spans(tiny: bool) -> dict:
    return {k: tuple(dt.date.fromisoformat(d) for d in v)
            for k, v in SPANS["tiny" if tiny else "full"].items()}


def settings(workload: str, tiny: bool) -> dict:
    wl = dict(WORKLOADS[workload])
    if tiny:
        wl["epochs"] = 1
    return wl


def write_config(path: Path, workload: str, seed: int, tiny: bool) -> None:
    """The run's YAML config (written as JSON, which YAML reads)."""
    wl = settings(workload, tiny)
    sp = SPANS["tiny" if tiny else "full"]
    doc = {
        "data": {"weather": "data/weather.csv", "ead": "data/ead.csv",
                 "mobility": "data/mobility.csv", "holidays": "data/holidays.txt"},
        "train": {"start": sp["train"][0], "end": sp["train"][1]},
        "test": {"start": sp["test"][0], "end": sp["test"][1]},
        "group": "all",
        "lookback": LOOKBACK,
        "horizon": wl["horizon"],
        "features": FEATURES,
        "training": {"epochs": wl["epochs"], "batch_size": wl["batch_size"],
                     "loss": "mse", "lr": 0.001, "seed": seed},
        "init": "uniform",
        "out": "out",
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")
