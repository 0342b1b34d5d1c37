"""Daily emergency ambulance dispatch (EAD) forecasting toolkit.

A from-scratch stacked LSTM (50 and 30 units) with a dense head predicts
the next K days of dispatch counts from daily weather, calendar, and
mobility features. Includes data ingestion, a synthetic dataset generator
with known ground truth, training with Adam, evaluation metrics, and a CLI
for the training / ablation / multi-horizon study scenarios.
"""

from .data import Days, SynthConfig, synth_generate
from .lstm import (
    DenseLayerParams,
    ForecastModel,
    LstmCellParams,
    ModelSpec,
    init_params,
)
from .metrics import EvalReport, Forecasts, StatsRow, corr_coeff, descriptive_stats, horizon_aggregate, mae
from .training import AdamState, MinMaxScaler, TrainConfig, fit_scaler, train

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "Days",
    "DenseLayerParams",
    "EvalReport",
    "ForecastModel",
    "Forecasts",
    "LstmCellParams",
    "MinMaxScaler",
    "ModelSpec",
    "StatsRow",
    "SynthConfig",
    "TrainConfig",
    "corr_coeff",
    "descriptive_stats",
    "fit_scaler",
    "horizon_aggregate",
    "init_params",
    "mae",
    "synth_generate",
    "train",
]
