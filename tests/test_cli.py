"""End-to-end CLI behavior on small synthetic datasets: determinism,
exit codes, report formats, and the scenario commands."""

import csv
import datetime as dt
import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import eadforecast
from eadforecast import checkpoint as ckpt_io
from eadforecast import cli as cli_mod
from eadforecast import lstm as lstm_mod
from eadforecast import training as training_mod
from eadforecast.cli import (
    FORECAST_CHUNK, RunConfig, build_parser, build_run_config, load_records, main, run_forecast,
    write_predictions_csv,
)
from eadforecast.data import (
    GROUPS, SynthConfig, feature_matrix, load_dataset, make_windows, synth_generate, write_dataset,
)
from eadforecast.errors import ConfigError, DataError
from eadforecast.losses import LOSS_KINDS
from eadforecast.lstm import INIT_SCHEMES, ModelSpec, forward_batch, init_params
from eadforecast.metrics import Forecasts
from eadforecast.report import REPORT_HEADER, STAT_COLUMNS
from eadforecast.training import TrainConfig, fit_scaler, train


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    """Small two-season dataset with the pandemic regime in the test year."""
    root = tmp_path_factory.mktemp("data")
    cfg = SynthConfig(start=dt.date(2018, 1, 1), end=dt.date(2020, 5, 31))
    result = synth_generate(cfg, seed=11)
    paths = write_dataset(result, root)
    return root, paths


def base_config(dataset, out_dir, **extra):
    root, paths = dataset
    doc = {
        "data": {
            "weather": str(paths["weather"]),
            "ead": str(paths["ead"]),
            "mobility": str(paths["mobility"]),
            "holidays": str(paths["holidays"]),
        },
        "train": {"start": "2018-01-01", "end": "2019-12-31"},
        "test": {"start": "2020-01-01", "end": "2020-03-31"},
        "lookback": 7,
        "horizon": 1,
        "training": {"epochs": 3, "batch_size": 8, "seed": 0},
        "out": str(out_dir),
    }
    doc.update(extra)
    cfg_path = out_dir / "config.yaml"
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path.write_text(yaml.safe_dump(doc))
    return cfg_path


class TestSynthCommand:
    def test_writes_all_files(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--seed", "1",
                     "--start", "2019-01-01", "--end", "2019-03-31"]) == 0
        for name in ("weather.csv", "ead.csv", "mobility.csv", "holidays.txt", "ground_truth.json"):
            assert (tmp_path / name).exists()

    def test_seed_rerun_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["synth", "--out", str(out), "--seed", "2",
                         "--start", "2019-01-01", "--end", "2019-06-30"]) == 0
        for name in ("weather.csv", "ead.csv", "mobility.csv", "holidays.txt", "ground_truth.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_one_year_span_row_count(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path), "--seed", "0",
                     "--start", "2019-01-01", "--end", "2019-12-31"]) == 0
        rows = (tmp_path / "weather.csv").read_text().strip().splitlines()
        assert len(rows) == 1 + 365

    @pytest.mark.parametrize("flags", [["--seed", "-1"], ["--base-rate", "nan"], ["--base-rate", "inf"]],
                             ids=["negative_seed", "nan_rate", "inf_rate"])
    def test_bad_seed_or_rate_exits_1_and_writes_nothing(self, tmp_path, capsys, flags):
        out = tmp_path / "data"
        assert main(["synth", "--out", str(out), "--start", "2019-01-01", "--end", "2019-03-31",
                     *flags]) == 1
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()


class TestTrainCommand:
    def test_train_writes_checkpoint_and_history(self, dataset, tmp_path, caplog):
        cfg = base_config(dataset, tmp_path / "run")
        with caplog.at_level(logging.INFO, logger="eadforecast"):
            assert main(["train", "--config", str(cfg)]) == 0
        assert (tmp_path / "run" / "checkpoint.bin").exists()
        history = (tmp_path / "run" / "loss_history.csv").read_text().splitlines()
        assert history[0] == "epoch,loss"
        assert len(history) == 4  # header + 3 epochs
        # 3 epochs log every max(3 // 10, 1) = 1 epoch, each loss as written.
        logged = [r.getMessage() for r in caplog.records if r.getMessage().startswith("epoch")]
        assert logged == [f"epoch {i}  loss {float(line.split(',')[1]):.6g}"
                          for i, line in enumerate(history[1:], start=1)]

    def test_rerun_is_byte_identical(self, dataset, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cfg = base_config(dataset, out)
            assert main(["train", "--config", str(cfg)]) == 0
        assert (out_a / "checkpoint.bin").read_bytes() == (out_b / "checkpoint.bin").read_bytes()
        assert (out_a / "loss_history.csv").read_bytes() == (out_b / "loss_history.csv").read_bytes()

    def test_flag_overrides_config(self, dataset, tmp_path):
        cfg = base_config(dataset, tmp_path / "run")
        assert main(["train", "--config", str(cfg), "--epochs", "1"]) == 0
        history = (tmp_path / "run" / "loss_history.csv").read_text().splitlines()
        assert len(history) == 2

    def test_missing_file_is_data_error_exit(self, dataset, tmp_path):
        cfg = base_config(dataset, tmp_path / "run")
        # A config error (nonexistent path) maps to exit code 1.
        assert main(["train", "--config", str(cfg), "--weather", str(tmp_path / "nope.csv")]) == 1

    @pytest.mark.parametrize("lr", ["-1", "0", "nan", "inf"])
    def test_bad_learning_rate_exits_1(self, dataset, tmp_path, lr):
        cfg = base_config(dataset, tmp_path / "run")
        assert main(["train", "--config", str(cfg), f"--lr={lr}"]) == 1
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("extra", [
        {"training": {"epochs": "2", "batch_size": 8, "seed": 0}},
        {"training": {"epochs": True, "batch_size": 8, "seed": 0}},
        {"training": {"epochs": 3, "batch_size": 8.0, "seed": 0}},
        {"training": {"epochs": 3, "batch_size": 8, "seed": "0"}},
        {"training": {"epochs": 3, "batch_size": 8, "seed": 0, "shuffle": "yes"}},
        {"training": {"epochs": 3, "batch_size": 8, "seed": 0, "shuffle": 1}},
        {"lookback": "7"},
        {"lookback": None},
        {"horizon": 1.5},
        {"horizon": True},
        {"eq5_lagged_m": "false"},
        {"eq5_lagged_m": 1},
        {"baseline_month": 202001},
        {"training": 5},
        {"features": 5},
        {"data": 5},
        {"data": {"weather": 5}},
        {"train": 5},
        {"out": 5},
        {"training": {"epochs": 3, "batch_size": 8, "seed": 0, "loss": ["mse"]}},
        {"training": {"epochs": 3, "batch_size": 8, "seed": 0, "lr": "0.001"}},
        {"group": 5},
        {"init": 5},
    ], ids=["epochs_str", "epochs_bool", "batch_size_float", "seed_str", "shuffle_str",
            "shuffle_int", "lookback_str", "lookback_null", "horizon_float", "horizon_bool",
            "lagged_str", "lagged_int", "baseline_month_int", "training_int", "features_int",
            "data_int", "data_path_int", "train_int", "out_int", "loss_list", "lr_str",
            "group_int", "init_int"])
    def test_untyped_config_value_exits_1(self, dataset, tmp_path, extra):
        cfg = base_config(dataset, tmp_path / "run", **extra)
        assert main(["train", "--config", str(cfg)]) == 1
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("flag,value,valid", [
        ("--loss", "huber", (*LOSS_KINDS, *cli_mod.LOSS_ALIASES)),
        ("--group", "foo", GROUPS),
        ("--init", "foo", INIT_SCHEMES),
    ], ids=["loss", "group", "init"])
    def test_bad_flag_usage_exits_1(self, capsys, flag, value, valid):
        assert main(["train", flag, value]) == 1
        err = capsys.readouterr().err
        assert all(repr(name) in err for name in valid), err

    def test_loss_alias_flag_trains_like_its_loss(self, dataset, tmp_path):
        cfg = base_config(dataset, tmp_path / "run", training={"epochs": 1, "batch_size": 8, "seed": 0})
        runs = []
        for loss in ("squared_error", "mse"):
            assert main(["train", "--config", str(cfg), "--loss", loss, "--out", str(tmp_path / loss)]) == 0
            runs.append([(tmp_path / loss / name).read_bytes()
                         for name in ("checkpoint.bin", "loss_history.csv")])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("command,flags,extra,message", [
        pytest.param("train", ["--seed", "-1"], {}, "seed must be >= 0, got -1", id="train-flag"),
        pytest.param("train", [], {"training": {"epochs": 1, "batch_size": 8, "seed": -1}},
                     "seed must be >= 0, got -1", id="train-file"),
        pytest.param("ablate", ["--seed", "-1"], {}, "seed must be >= 0, got -1", id="ablate-flag"),
        pytest.param("horizon", [], {"training": {"epochs": 1, "batch_size": 8, "seed": -1}},
                     "seed must be >= 0, got -1", id="horizon-file"),
        pytest.param("train", ["--epochs", "0"], {}, "epochs must be >= 1, got 0", id="epochs_0"),
        pytest.param("train", ["--batch-size", "0"], {}, "batch_size must be >= 1, got 0",
                     id="batch_size_0"),
        pytest.param("train", ["--lookback", "0"], {}, "lookback must be >= 1, got 0", id="lookback_0"),
        pytest.param("train", ["--lr", "nan"], {}, "lr must be a finite number > 0, got nan",
                     id="lr_nan"),
        pytest.param("train", [], {"training": {"epochs": 1, "batch_size": 8, "seed": 0, "loss": "foo"}},
                     "loss must be one of ['mse', 'xent', ", id="file_loss"),
        pytest.param("train", [], {"init": "foo"}, "init must be one of ['zeros', 'uniform'], got 'foo'",
                     id="file_init"),
        pytest.param("ablate", [], {"baseline_month": "2020-13"},
                     "baseline_month must be a YYYY-MM month, got '2020-13'", id="ablate-baseline_month"),
        # A month forecast would refuse in the checkpoint, refused also where
        # the mobility fill does not read it.
        pytest.param("train", [], {"baseline_month": "2020-13",
                                   "features": ["temperature", "humidity", "day_label"]},
                     "baseline_month must be a YYYY-MM month, got '2020-13'",
                     id="baseline_month_without_mobility"),
        # A YAML timestamp is a datetime, which is a date too; neither span
        # field takes one.
        pytest.param("train", [], {"train": {"start": dt.datetime(2018, 1, 1), "end": "2019-12-31"}},
                     "bad date for train_start: datetime.datetime(2018, 1, 1, 0, 0)",
                     id="train_start_timestamp"),
        pytest.param("train", [], {"test": {"start": "2020-01-01", "end": dt.datetime(2020, 3, 31, 10)}},
                     "bad date for test_end: datetime.datetime(2020, 3, 31, 10, 0)",
                     id="test_end_timestamp"),
    ])
    def test_negative_seed_exits_1_before_reading_data(self, dataset, tmp_path, monkeypatch, capsys,
                                                        command, flags, extra, message):
        # Every setting is judged before any data is read, and nothing is written.
        reads = []
        monkeypatch.setattr(cli_mod, "load_records", lambda *a: reads.append(a))
        cfg, out = base_config(dataset, tmp_path / "run", **extra), tmp_path / "out"
        assert main([command, "--config", str(cfg), "--epochs", "1", *flags, "--out", str(out)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert reads == []
        assert not out.exists()

    @pytest.mark.parametrize("extra,key", [
        ({"trainig": {"epochs": 1}}, "trainig"),
        ({"training": {"epochs": 1, "batch_size": 8, "seed": 0, "epoch": 3}}, "training.epoch"),
        ({"eq5_lagged": True}, "eq5_lagged"),
        ({"epochs": 1}, "epochs"),
        ({"data": {"weather": "w.csv", "wether": "w.csv"}}, "data.wether"),
        ({"train": {"start": "2018-01-01", "end": "2019-12-31", "stop": "2019-12-31"}},
         "train.stop"),
        ({"test": {"start": "2020-01-01", "end": "2020-03-31", "begin": "2020-01-01"}},
         "test.begin"),
    ], ids=["top_section", "training", "top_key", "top_training_key", "data", "train", "test"])
    def test_unknown_config_key_exits_1_and_names_it(self, dataset, tmp_path, capsys, extra, key):
        cfg = base_config(dataset, tmp_path / "run", **extra)
        assert main(["train", "--config", str(cfg)]) == 1
        assert repr(key) in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.bin").exists()

    @pytest.mark.parametrize("source", ["flag", "file"])
    def test_repeated_feature_exits_1(self, dataset, tmp_path, source):
        names = ["temperature", "temperature", "humidity"]
        if source == "flag":
            cfg = base_config(dataset, tmp_path / "run")
            argv = ["--features", ",".join(names)]
        else:
            cfg, argv = base_config(dataset, tmp_path / "run", features=names), []
        assert main(["train", "--config", str(cfg), *argv]) == 1
        assert not (tmp_path / "run" / "checkpoint.bin").exists()


def read_config(path: Path, *flags: str) -> RunConfig:
    return build_run_config(build_parser().parse_args(["train", "--config", str(path), *flags]))


class TestFeatureOrder:
    """A feature list names a set: input columns follow data.FEATURE_ORDER."""

    def test_train_writes_the_same_checkpoint_for_either_order(self, dataset, tmp_path):
        cfg = base_config(dataset, tmp_path / "run", training={"epochs": 1, "batch_size": 8, "seed": 0})
        blobs = []
        for names in ("humidity,temperature", "temperature,humidity"):
            out = tmp_path / names.replace(",", "_")
            assert main(["train", "--config", str(cfg), "--features", names, "--out", str(out)]) == 0
            blobs.append((out / "checkpoint.bin").read_bytes())
        assert blobs[0] == blobs[1]

    def test_forecast_takes_the_other_order(self, dataset, tmp_path):
        cfg = base_config(dataset, tmp_path / "run", training={"epochs": 1, "batch_size": 8, "seed": 0})
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--features", "humidity,temperature"]) == 0
        assert main(["forecast", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin"),
                     "--features", "temperature,humidity"]) == 0
        assert (out / "predictions.csv").exists()


class TestSettingsTable:
    """Every setting from the config file and from its flag."""

    @staticmethod
    def expected(root: Path) -> RunConfig:
        return RunConfig(
            weather=root / "w.csv", ead=root / "e.csv", mobility=root / "m.csv",
            holidays=root / "h.txt",
            train_start=dt.date(2018, 2, 1), train_end=dt.date(2019, 6, 30),
            test_start=dt.date(2019, 7, 1), test_end=dt.date(2019, 9, 30),
            group="elderly", lookback=7, horizon=3, features=("temperature", "humidity"),
            epochs=2, batch_size=16, loss="xent", lr=0.01, seed=5, shuffle=False, init="zeros",
            lagged_m=True, baseline_month="2019-12", out=root / "results",
        )

    @staticmethod
    def write(path: Path, doc: dict) -> Path:
        path.write_text(yaml.safe_dump(doc))
        return path

    def every_setting_file(self, tmp_path: Path) -> Path:
        return self.write(tmp_path / "config.yaml", {
            "data": {"weather": "w.csv", "ead": "e.csv", "mobility": "m.csv",
                     "holidays": "h.txt"},
            "train": {"start": dt.date(2018, 2, 1), "end": "2019-06-30"},
            "test": {"start": dt.date(2019, 7, 1), "end": dt.date(2019, 9, 30)},
            "group": "elderly", "lookback": 7, "horizon": 3,
            "features": ["humidity", "temperature"],
            "training": {"epochs": 2, "batch_size": 16, "loss": "cross_entropy", "lr": 0.01,
                         "seed": 5, "shuffle": False},
            "init": "zeros", "eq5_lagged_m": True, "baseline_month": "2019-12",
            "out": "results",
        })

    def test_every_setting_from_the_config_file(self, tmp_path):
        assert read_config(self.every_setting_file(tmp_path)) == self.expected(tmp_path)

    def test_every_flag_wins_over_a_default_file(self, tmp_path):
        # The file holds the defaults, other paths and spans, and the
        # expected shuffle and baseline_month, which have no flag; each flag
        # sets its expected value.
        cfg = self.write(tmp_path / "config.yaml", {
            "data": {"weather": "a", "ead": "b", "mobility": "c", "holidays": "d"},
            "train": {"start": "2014-04-01", "end": "2019-12-31"},
            "test": {"start": "2020-01-01", "end": "2020-08-19"},
            "group": "all", "lookback": 14, "horizon": 1,
            "features": ["temperature", "humidity", "day_label", "mobility"],
            "training": {"epochs": 500, "batch_size": 8, "loss": "mse", "lr": 0.001,
                         "seed": 0, "shuffle": False},
            "init": "uniform", "eq5_lagged_m": False, "baseline_month": "2019-12",
            "out": "out",
        })
        root = tmp_path / "abs"
        assert read_config(
            cfg, "--weather", str(root / "w.csv"), "--ead", str(root / "e.csv"),
            "--mobility", str(root / "m.csv"), "--holidays", str(root / "h.txt"),
            "--train-start", "2018-02-01", "--train-end", "2019-06-30",
            "--test-start", "2019-07-01", "--test-end", "2019-09-30",
            "--seed", "5", "--out", str(root / "results"), "--group", "elderly",
            "--lookback", "7", "--horizon", "3", "--features", "humidity, temperature",
            "--loss", "xent", "--init", "zeros", "--epochs", "2", "--batch-size", "16",
            "--lr", "0.01", "--eq5-lagged-m",
        ) == self.expected(root)

    def test_a_zero_flag_overrides(self, tmp_path):
        cfg = read_config(self.every_setting_file(tmp_path), "--seed", "0")
        assert cfg.seed == 0

    def test_run_digest(self, tmp_path):
        cfg = read_config(self.every_setting_file(tmp_path))
        assert ckpt_io.config_digest(cfg.digest_payload()) == (
            "82172039e83831aaba4aafd381819a14914bffe085d335143336fab5416d265b")


@pytest.fixture(scope="module")
def trained(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("trained")
    cfg = base_config(dataset, out)
    assert main(["train", "--config", str(cfg)]) == 0
    return cfg, out


class TestForecastCommand:
    def test_one_prediction_per_date_k1(self, trained):
        cfg, out = trained
        assert main(["forecast", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin")]) == 0
        with (out / "predictions.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        dates = [r["target_date"] for r in rows]
        assert len(dates) == len(set(dates)) == 91  # Jan 1 .. Mar 31 2020

    def test_rerun_identical(self, trained, tmp_path):
        cfg, out = trained
        for sub in ("f1", "f2"):
            assert main([
                "forecast", "--config", str(cfg),
                "--checkpoint", str(out / "checkpoint.bin"),
                "--out", str(tmp_path / sub),
            ]) == 0
        assert (tmp_path / "f1" / "predictions.csv").read_bytes() == (tmp_path / "f2" / "predictions.csv").read_bytes()

    def test_cross_config_mask_refused(self, trained):
        cfg, out = trained
        assert main([
            "forecast", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin"),
            "--features", "temperature,humidity",
        ]) == 1

    def test_group_mismatch_refused(self, trained, tmp_path):
        cfg, out = trained
        assert main([
            "forecast", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin"),
            "--group", "elderly", "--out", str(tmp_path),
        ]) == 1
        assert not (tmp_path / "predictions.csv").exists()
        assert main([
            "forecast", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin"),
            "--group", "all", "--out", str(tmp_path),
        ]) == 0

    @pytest.mark.parametrize("extra", [
        {"group": "elderly"},
        {"features": ["temperature", "humidity", "day_label"]},
        {"lookback": 9},
        {"horizon": 3},
        {"baseline_month": "2019-11"},
    ], ids=["group", "features", "lookback", "horizon", "baseline_month"])
    def test_config_file_mismatch_refused(self, trained, tmp_path, extra):
        # The trained checkpoint is K=1, L=7, all four features, group "all",
        # mobility baseline month 2020-01.
        cfg, out = trained
        doc = {**yaml.safe_load(cfg.read_text()), **extra, "out": str(tmp_path)}
        mismatched = tmp_path / "config.yaml"
        mismatched.write_text(yaml.safe_dump(doc))
        assert main(["forecast", "--config", str(mismatched),
                     "--checkpoint", str(out / "checkpoint.bin")]) == 1
        assert not (tmp_path / "predictions.csv").exists()

    def test_checkpoint_without_group_forecasts_group_all(self, trained, tmp_path):
        cfg, out = trained
        ckpt = tmp_path / "checkpoint.bin"
        rewrite_checkpoint(out / "checkpoint.bin", ckpt, "meta", "group", DROP)
        assert main(["forecast", "--config", str(cfg), "--checkpoint", str(ckpt),
                     "--group", "all", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "predictions.csv").exists()

    def test_config_file_match_accepted(self, trained, tmp_path):
        cfg, out = trained
        doc = {**yaml.safe_load(cfg.read_text()), "baseline_month": "2020-01", "group": "all",
               "out": str(tmp_path)}
        matching = tmp_path / "config.yaml"
        matching.write_text(yaml.safe_dump(doc))
        assert main(["forecast", "--config", str(matching),
                     "--checkpoint", str(out / "checkpoint.bin")]) == 0

    def test_not_enough_history_is_data_error(self, trained):
        cfg, out = trained
        assert main([
            "forecast", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin"),
            "--start", "2018-01-03", "--end", "2018-01-05",
        ]) == 2

    def test_span_past_the_data_is_data_error(self, trained):
        cfg, out = trained
        assert main([
            "forecast", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin"),
            "--start", "2020-05-20", "--end", "2020-06-05",
        ]) == 2


DROP = object()


def rewrite_checkpoint(src: Path, dst: Path, section: str, key, value) -> None:
    """Copy a checkpoint with one header entry changed (key None: the whole
    section; value DROP: delete it), its config digest recomputed so the
    edit gets past the digest check."""
    blob = src.read_bytes()
    start = len(ckpt_io.MAGIC) + 8
    length = int.from_bytes(blob[len(ckpt_io.MAGIC) : start], "little")
    header = json.loads(blob[start : start + length])
    if key is None:
        header[section] = value
    elif value is DROP:
        del header[section][key]
    else:
        header[section][key] = value
    header["config_digest"] = ckpt_io.config_digest(
        {name: header[name] for name in ("arch", "scaler", "meta")})
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    dst.write_bytes(ckpt_io.MAGIC + len(text).to_bytes(8, "little") + text + blob[start + length :])


# Strings that are not a YYYY-MM month with a two-digit month 01-12.
BAD_MONTHS = ["2020-13", "2020/01", "", "2020-00", "2020-0"]


class TestMalformedCheckpoint:
    # The trained checkpoint: input_dim 4 (all features), K=1, L=7.
    @pytest.mark.parametrize("section,key,value", [
        ("arrays", 0, "lstm1.W_ix"),
        ("arrays", 0, {"name": "lstm1.W_ix"}),
        ("arrays", 0, {"name": "lstm1.W_ix", "shape": [50, 4], "dtype": "<f8"}),
        ("arch", None, [4, 50, 30]),
        ("arch", "hidden1", DROP),
        ("arch", "hidden1", "50"),
        ("arch", "fc1", 300.0),
        ("arch", "fc2", -100),
        ("arch", "hidden2", 10**12),
        ("arch", "lagged_m", "no"),
        ("arch", "head_activation", "softmax"),
        ("scaler", "feature_min", ["a", "b", "c", "d"]),
        ("scaler", "feature_max", [1.0, 2.0, 3.0]),
        ("scaler", "target_min", "80"),
        ("scaler", "target_max", None),
        ("meta", None, []),
        ("meta", "features", DROP),
        ("meta", "lookback", DROP),
        ("meta", "lookback", "7"),
        ("meta", "features", ["temperature", "humidity", "day_label"]),
        ("meta", "features", ["temperature", "humidity", "day_label", "rain"]),
        ("meta", "features", ["temperature", "humidity", "humidity", "mobility"]),
        ("meta", "group", ["all"]),
        ("meta", "baseline_month", 202001),
    ], ids=["manifest_entry_str", "manifest_entry_no_shape", "manifest_entry_extra_key",
            "arch_list", "arch_no_hidden1", "arch_hidden1_str", "arch_fc1_float",
            "arch_fc2_negative", "arch_hidden2_huge", "arch_lagged_m_str", "arch_head_activation",
            "scaler_feature_min_str", "scaler_feature_max_short", "scaler_target_min_str",
            "scaler_target_max_null", "meta_list", "meta_no_features", "meta_no_lookback",
            "meta_lookback_str", "meta_features_short", "meta_features_unknown",
            "meta_features_repeated", "meta_group_list",
            "meta_baseline_month_int"])
    def test_forecast_exits_2(self, trained, tmp_path, section, key, value):
        cfg, out = trained
        bad = tmp_path / "checkpoint.bin"
        rewrite_checkpoint(out / "checkpoint.bin", bad, section, key, value)
        assert main(["forecast", "--config", str(cfg), "--checkpoint", str(bad),
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "predictions.csv").exists()

    @pytest.mark.parametrize("month", BAD_MONTHS)
    def test_baseline_month_not_yyyy_mm_exits_2(self, trained, tmp_path, month):
        # A string the mobility fill cannot read is the checkpoint's fault.
        cfg, out = trained
        bad = tmp_path / "checkpoint.bin"
        rewrite_checkpoint(out / "checkpoint.bin", bad, "meta", "baseline_month", month)
        assert main(["forecast", "--config", str(cfg), "--checkpoint", str(bad),
                     "--out", str(tmp_path)]) == 2
        assert not (tmp_path / "predictions.csv").exists()

    @pytest.mark.parametrize("command,month", [
        pytest.param(command, month, id=command if month == "2020-13" else f"{command}-{month}")
        for month in BAD_MONTHS for command in ("train", "forecast")])
    def test_config_file_baseline_month_not_yyyy_mm_exits_1(self, trained, tmp_path, command, month):
        cfg, out = trained
        doc = {**yaml.safe_load(cfg.read_text()), "baseline_month": month, "out": str(tmp_path)}
        bad = tmp_path / "config.yaml"
        bad.write_text(yaml.safe_dump(doc))
        extra = ["--checkpoint", str(out / "checkpoint.bin")] if command == "forecast" else []
        assert main([command, "--config", str(bad), *extra]) == 1

    def test_unedited_rewrite_still_forecasts(self, trained, tmp_path):
        cfg, out = trained
        good = tmp_path / "checkpoint.bin"
        rewrite_checkpoint(out / "checkpoint.bin", good, "meta", "seed", 0)
        assert main(["forecast", "--config", str(cfg), "--checkpoint", str(good),
                     "--out", str(tmp_path)]) == 0


def forecast_setup(dataset, horizon):
    """An untrained K-step model with a scaler fitted on 2018, and the day table."""
    _, paths = dataset
    cfg = RunConfig(weather=paths["weather"], ead=paths["ead"], mobility=paths["mobility"],
                    holidays=paths["holidays"], lookback=7, horizon=horizon)
    days = load_records(cfg)
    scaler = fit_scaler(make_windows(days.between(days.start, days.date(364)), cfg.lookback,
                                     horizon, cfg.features, cfg.group))
    model = init_params(ModelSpec(input_dim=len(cfg.features), horizon=horizon), seed=horizon)
    return model, scaler, days, cfg


def per_anchor_forecast(model, scaler, days, cfg, start, end):
    """Reference: one forward pass per anchor over its own scaled window."""
    features = feature_matrix(days, cfg.features)
    out = []
    for idx in range(days.offset(start), days.offset(end) + 1):
        y, _ = forward_batch(model, scaler.transform_features(features[None, idx - cfg.lookback : idx]))
        out.append(scaler.invert_target(y[0]))
    return Forecasts(start, np.stack(out))


class TestRunForecast:
    @pytest.mark.parametrize("horizon", [1, 28])
    def test_batched_matches_per_anchor_loop(self, dataset, horizon):
        model, scaler, days, cfg = forecast_setup(dataset, horizon)
        # 74 anchors: two full chunks and a tail taken one anchor at a time.
        start, end = dt.date(2019, 1, 1), dt.date(2019, 3, 15)
        got = run_forecast(model, scaler, days, cfg, start, end)
        n = len(got.values)
        assert n > 2 * FORECAST_CHUNK and n % FORECAST_CHUNK > 1
        want = per_anchor_forecast(model, scaler, days, cfg, start, end)
        assert got.start == want.start and got.values.shape == want.values.shape == (n, horizon)
        np.testing.assert_allclose(got.values, want.values, rtol=1e-12, atol=0)

    def test_missing_day_inside_span_names_it(self, dataset, trained, tmp_path, capsys):
        # A day table has no gaps: a day missing from weather.csv inside the
        # forecast span is refused where the files are merged.
        _, paths = dataset
        cfg, out = trained
        weather = tmp_path / "weather.csv"
        weather.write_text("".join(line for line in paths["weather"].read_text().splitlines(True)
                                   if not line.startswith("2020-02-10,")))
        assert main(["forecast", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin"),
                     "--weather", str(weather), "--out", str(tmp_path / "run")]) == 2
        assert "date gaps in the merged span: 2020-02-10 (weather)" in capsys.readouterr().err
        assert not (tmp_path / "run" / "predictions.csv").exists()

    @pytest.mark.parametrize("first,last,named", [(6, 10, 6), (-3, 10, -3), (700, 900, 882),
                                                  (900, 910, 900)])
    def test_first_anchor_without_history_or_data_is_named(self, dataset, first, last, named):
        # L=7: anchor 7 is the first with 7 days before it; the table's
        # last day is 881, so 882 is the first anchor past it.
        model, scaler, days, cfg = forecast_setup(dataset, 3)
        assert len(days) == 882
        with pytest.raises(DataError, match=f"not enough history before {days.date(named)}:"):
            run_forecast(model, scaler, days, cfg, days.date(first), days.date(last))
        for edge in (7, 880):
            got = run_forecast(model, scaler, days, cfg, days.date(edge), days.date(edge + 1))
            assert got.start == days.date(edge) and len(got.values) == 2

    def test_only_training_builds_the_backward_arrays(self, dataset, monkeypatch):
        # A forecast allocates no backward memory: run_forecast never builds
        # a workspace's backward arrays, and each train call builds one.
        built = []

        class Counted(lstm_mod._BackwardArrays):
            def __init__(self, ws):
                built.append(ws.batch)
                super().__init__(ws)

        monkeypatch.setattr(lstm_mod, "_BackwardArrays", Counted)
        model, scaler, days, cfg = forecast_setup(dataset, 3)
        run_forecast(model, scaler, days, cfg, days.date(30), days.date(100))
        assert built == []
        rng = np.random.default_rng(0)
        X, Y = rng.uniform(size=(20, 7, 4)), rng.uniform(size=(20, 3))
        for calls in (1, 2):
            model, _ = train(model, X, Y, TrainConfig(epochs=2, batch_size=8))
            assert built == [8] * calls
        run_forecast(model, scaler, days, cfg, days.date(30), days.date(100))
        assert built == [8, 8]

    def test_forward_passes_run_on_one_blas_thread_and_count_is_restored(
            self, trained, tmp_path, monkeypatch):
        api = lstm_mod._openblas_threads_api()
        if api is None:
            pytest.skip("numpy's bundled OpenBLAS thread-count functions are absent")
        get, set_ = api
        cfg, out = trained
        seen = []  # (engine call, thread count)
        for module, name in ((lstm_mod, "forward_batch"), (training_mod, "forward_batch"),
                             (training_mod, "backward_batch")):
            def recording(*args, call=getattr(module, name), name=name):
                seen.append((name, get()))
                return call(*args)
            monkeypatch.setattr(module, name, recording)
        installed = get()
        try:
            set_(2)
            run = ["--config", str(cfg), "--epochs", "1", "--out", str(tmp_path)]
            assert main(["train", *run]) == 0
            assert main(["forecast", *run, "--checkpoint", str(tmp_path / "checkpoint.bin")]) == 0
            assert {name for name, _ in seen} == {"forward_batch", "backward_batch"}
            assert {threads for _, threads in seen} == {1}
            assert get() == 2
            # A refusal raised inside the command, on its one thread.
            for error, code in ((ConfigError, 1), (DataError, 2)):
                def refuse(cfg, error=error):
                    seen.append(("load_records", get()))
                    raise error("refused")
                monkeypatch.setattr(cli_mod, "load_records", refuse)
                assert main(["train", *run]) == code
                assert seen[-1] == ("load_records", 1) and get() == 2
        finally:
            set_(installed)

    def test_predictions_identical_across_blas_threads(self, dataset, tmp_path):
        # A training at batch 256, whose products OpenBLAS would split over
        # two threads, and a forecast.
        cfg = base_config(dataset, tmp_path / "train")
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"train{threads}"
            proc = cli_subprocess(["train", "--config", str(cfg), "--epochs", "2", "--batch-size", "256",
                                   "--out", str(out)], threads)
            assert proc.returncode == 0, proc.stderr
            forecast = forecast_subprocess(dataset, tmp_path, threads)[0]
            outputs.append([(out / "checkpoint.bin").read_bytes(), (forecast / "predictions.csv").read_bytes()])
        assert outputs[0] == outputs[1]

    def test_forecast_uses_one_cpu_under_two_blas_threads(self, dataset, tmp_path):
        # Contention from other processes only lowers CPU time per wall
        # second; a thread of the process itself can raise it. The OpenBLAS
        # pool's worker spins ~0.1 CPU-seconds when the pool starts (during
        # `import numpy`), and after any product run on two threads, so
        # TIMED_FORECAST first waits for the other threads to go idle. On
        # failure the message holds each thread's CPU seconds before and
        # after run_forecast, which tells such a thread from the main one.
        _, timing = forecast_subprocess(dataset, tmp_path, "2")
        assert timing["cpu"] / timing["wall"] <= 1.2, timing


# Runs the forecast command and prints, as JSON, the CPU and wall seconds of
# run_forecast and each thread's CPU seconds (user + system, from
# /proc/self/task/*/stat; None where the thread did not exist) before and
# after it. Before it times run_forecast it waits, for 2 s at most, until no
# thread but the main one gains CPU time over 0.1 s, and reports that wait
# as "settle".
TIMED_FORECAST = """
import json, os, sys, time
from eadforecast import cli
run_forecast = cli.run_forecast

def thread_cpu():
    out = {}
    for tid in os.listdir("/proc/self/task"):
        try:
            with open(f"/proc/self/task/{tid}/stat") as f:
                fields = f.read().rpartition(")")[2].split()
        except FileNotFoundError:  # the thread ended after listdir
            continue
        out[tid] = (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")
    return out

def others():
    return sum(t for tid, t in thread_cpu().items() if tid != str(os.getpid()))

def settle(limit=2.0):
    start = time.perf_counter()
    last = others()
    while time.perf_counter() - start < limit:
        time.sleep(0.1)
        now = others()
        if now == last:
            break
        last = now
    return time.perf_counter() - start

def timed(*args):
    waited = settle()
    before = thread_cpu()
    cpu, wall = time.process_time(), time.perf_counter()
    out = run_forecast(*args)
    cpu, wall = time.process_time() - cpu, time.perf_counter() - wall
    after = thread_cpu()
    threads = {tid: [before.get(tid), after.get(tid)] for tid in {*before, *after}}
    print(json.dumps({"cpu": cpu, "wall": wall, "settle": waited, "threads": threads}))
    return out

cli.run_forecast = timed
sys.exit(cli.main(sys.argv[1:]))
"""


def cli_subprocess(argv, threads=None, code="from eadforecast.cli import cli_entry; cli_entry()"):
    """Run code (by default the CLI) with argv in a fresh process of this
    checkout, under OPENBLAS_NUM_THREADS=threads if given."""
    src = str(Path(eadforecast.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    return subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True, text=True,
                          timeout=300)


def forecast_subprocess(dataset, tmp_path, threads):
    """Forecast 875 anchors with an untrained K=28 model in a fresh process
    under OPENBLAS_NUM_THREADS=threads; returns the output directory and
    TIMED_FORECAST's timing of run_forecast."""
    model, scaler, days, _ = forecast_setup(dataset, 28)
    ckpt = tmp_path / "checkpoint.bin"
    ckpt_io.save_checkpoint(ckpt, model, scaler, {
        "features": ["temperature", "humidity", "day_label", "mobility"],
        "lookback": 7, "group": "all",
    })
    cfg = base_config(dataset, tmp_path / "run", horizon=28)
    out = tmp_path / f"threads{threads}"
    proc = cli_subprocess(
        ["forecast", "--config", str(cfg), "--checkpoint", str(ckpt), "--start", days.date(7).isoformat(),
         "--end", days.date(len(days) - 1).isoformat(), "--out", str(out)],
        threads, code=TIMED_FORECAST,
    )
    assert proc.returncode == 0, proc.stderr
    return out, json.loads(proc.stdout)


def old_write_predictions_csv(path, forecasts) -> None:
    """Reference: the per-row writer, one isoformat per anchor and target."""
    lines = ["anchor_date,step,target_date,value"]
    for anchor, vec in forecasts:
        for step, value in enumerate(np.asarray(vec, dtype=np.float64)):
            target_day = anchor + dt.timedelta(days=step)
            lines.append(f"{anchor.isoformat()},{step + 1},{target_day.isoformat()},{float(value)!r}")
    Path(path).write_text("\n".join(lines) + "\n")


class TestWritePredictions:
    @pytest.mark.parametrize("k", [1, 28])
    @pytest.mark.parametrize("first, anchors", [
        (dt.date(2019, 12, 20), 80),  # a month end, the year end and 2020-02-29
        (dt.date(2020, 2, 28), 1),
        (dt.date(2020, 2, 29), 3),
    ])
    def test_matches_per_row_writer(self, tmp_path, k, first, anchors):
        rng = np.random.default_rng(k + anchors)
        values = rng.normal(200.0, 80.0, size=(anchors, k))
        values[0, 0] = 100.0
        values[-1, -1] = 5e-324
        values[anchors // 2, k // 2] = -1.0 / 3.0
        write_predictions_csv(tmp_path / "new.csv", Forecasts(first, values))
        old_write_predictions_csv(tmp_path / "old.csv", [(first + dt.timedelta(days=n), values[n])
                                                         for n in range(anchors)])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_no_forecasts_writes_the_header(self, tmp_path):
        write_predictions_csv(tmp_path / "p.csv", Forecasts(dt.date(2020, 1, 1), np.empty((0, 3))))
        assert (tmp_path / "p.csv").read_text() == "anchor_date,step,target_date,value\n"


def prediction_lines(first: dt.date, anchors: int, k: int) -> list[str]:
    lines = []
    for a in range(anchors):
        anchor = first + dt.timedelta(days=a)
        for step in range(1, k + 1):
            target = anchor + dt.timedelta(days=step - 1)
            lines.append(f"{anchor.isoformat()},{step},{target.isoformat()},{100.0 + a + 3 * step!r}")
    return lines


def _drop(lines, *prefixes):
    return [line for line in lines if not line.startswith(prefixes)]


# Each case edits a valid K=3 file of ten anchors from 2019-03-01.
MALFORMED_PREDICTIONS = {
    "valid": (lambda ls: ls, 0),
    "duplicate_row": (lambda ls: ls + ["2019-03-04,2,2019-03-05,1.0"], 2),
    "only_step_3": (lambda ls: ["2019-03-01,3,2019-03-03,100.0"], 2),
    "step_gap": (lambda ls: _drop(ls, "2019-03-05,2,"), 2),
    "fewer_steps": (lambda ls: _drop(ls, "2019-03-05,3,"), 2),
    "wrong_target_date": (
        lambda ls: [l.replace("2019-03-04,2,2019-03-05", "2019-03-04,2,2019-03-06") for l in ls], 2
    ),
    "anchor_gap": (lambda ls: _drop(ls, "2019-03-06,"), 2),
    "wrong_step": (lambda ls: [l.replace("2019-03-04,2,", "2019-03-04,3,") for l in ls], 2),
    "last_anchor_short": (lambda ls: _drop(ls, "2019-03-10,3,"), 2),
}


class TestEvaluateCommand:
    @pytest.mark.parametrize("case", list(MALFORMED_PREDICTIONS))
    def test_malformed_predictions_exit_2(self, dataset, tmp_path, case):
        edit, code = MALFORMED_PREDICTIONS[case]
        lines = edit(prediction_lines(dt.date(2019, 3, 1), 10, 3))
        preds = tmp_path / "preds.csv"
        preds.write_text("\n".join(["anchor_date,step,target_date,value", *lines]) + "\n")
        cfg = base_config(dataset, tmp_path / "run")
        assert main(["evaluate", "--config", str(cfg), "--predictions", str(preds),
                     "--out", str(tmp_path / "run")]) == code

    @pytest.mark.parametrize("case", list(MALFORMED_PREDICTIONS))
    def test_malformed_predictions_with_crlf_lines(self, dataset, tmp_path, capsys, case):
        # The same exit code for a CRLF copy, and a refusal names its line.
        edit, code = MALFORMED_PREDICTIONS[case]
        lines = edit(prediction_lines(dt.date(2019, 3, 1), 10, 3))
        preds = tmp_path / "preds.csv"
        preds.write_bytes("\r\n".join(["anchor_date,step,target_date,value", *lines]).encode() + b"\r\n")
        cfg = base_config(dataset, tmp_path / "run")
        capsys.readouterr()
        assert main(["evaluate", "--config", str(cfg), "--predictions", str(preds),
                     "--out", str(tmp_path / "run")]) == code
        if code:
            assert re.search(rf"{re.escape(str(preds))}:\d+: ", capsys.readouterr().err)

    def test_report_format_and_scores(self, dataset, trained, tmp_path):
        cfg, out = trained
        assert main(["forecast", "--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin"),
                     "--out", str(tmp_path)]) == 0
        assert main(["evaluate", "--config", str(cfg), "--predictions", str(tmp_path / "predictions.csv"),
                     "--out", str(tmp_path), "--scenario", "smoke"]) == 0
        with (tmp_path / "report.csv").open() as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == REPORT_HEADER
        assert rows[0][-13:] == STAT_COLUMNS
        assert rows[1][2] == "Real" and rows[2][2] == "Est"
        assert (tmp_path / "timeline.svg").exists()
        assert (tmp_path / "fit_temperature.svg").exists()
        assert (tmp_path / "fit_humidity.svg").exists()
        assert (tmp_path / "reference_metrics.csv").exists()

    def test_perfect_predictions_score_perfectly(self, dataset, tmp_path):
        root, paths = dataset
        days = load_dataset(paths["weather"], paths["ead"],
                            mobility_path=paths["mobility"], holidays_path=paths["holidays"])
        lines = ["anchor_date,step,target_date,value"]
        for i in range(60):
            iso = days.date(i).isoformat()
            lines.append(f"{iso},1,{iso},{float(days.counts['all'][i])!r}")
        preds = tmp_path / "perfect.csv"
        preds.write_text("\n".join(lines) + "\n")
        cfg = base_config(dataset, tmp_path / "run")
        assert main(["evaluate", "--config", str(cfg), "--predictions", str(preds),
                     "--out", str(tmp_path / "run")]) == 0
        with (tmp_path / "run" / "report.csv").open() as fh:
            rows = list(csv.reader(fh))
        est = rows[2]
        assert float(est[-2]) == pytest.approx(1.0, abs=1e-12)  # CC
        assert float(est[-1]) == 0.0  # MAE

    # A constant that is not an integer leaves its series' variance a tiny
    # positive number after rounding; it is constant all the same.
    @pytest.mark.parametrize("rows,value", [(30, "100.0"), (60, "0.1")], ids=["integer", "non_integer"])
    def test_constant_predictions_numerical_failure(self, dataset, tmp_path, rows, value):
        root, paths = dataset
        days = load_dataset(paths["weather"], paths["ead"],
                            mobility_path=paths["mobility"], holidays_path=paths["holidays"])
        lines = ["anchor_date,step,target_date,value"]
        for i in range(rows):
            iso = days.date(i).isoformat()
            lines.append(f"{iso},1,{iso},{value}")
        preds = tmp_path / "flat.csv"
        preds.write_text("\n".join(lines) + "\n")
        cfg = base_config(dataset, tmp_path / "run")
        assert main(["evaluate", "--config", str(cfg), "--predictions", str(preds),
                     "--out", str(tmp_path / "run")]) == 3

    def test_refused_cubic_fit_writes_nothing(self, dataset, tmp_path, capsys):
        # Three days have at most three distinct temperatures, too few for
        # the scatter's cubic fit; every chart is drawn before the first
        # file is written, so the refusal leaves no --out directory.
        preds = tmp_path / "preds.csv"
        preds.write_text("\n".join(["anchor_date,step,target_date,value",
                                    *prediction_lines(dt.date(2020, 1, 1), 3, 1)]) + "\n")
        cfg = base_config(dataset, tmp_path / "run")
        assert main(["evaluate", "--config", str(cfg), "--predictions", str(preds),
                     "--out", str(tmp_path / "ev")]) == 3
        assert "cubic fit needs at least 4 distinct x values" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_one_day_exits_3_and_writes_nothing(self, dataset, tmp_path, capsys):
        # No correlation of one day's counts: a numerical failure, as for a
        # constant series, found before any file is written.
        preds = tmp_path / "preds.csv"
        preds.write_text("\n".join(["anchor_date,step,target_date,value",
                                    *prediction_lines(dt.date(2020, 1, 1), 1, 1)]) + "\n")
        cfg = base_config(dataset, tmp_path / "run")
        assert main(["evaluate", "--config", str(cfg), "--predictions", str(preds),
                     "--out", str(tmp_path / "ev")]) == 3
        assert "correlation undefined" in capsys.readouterr().err
        assert not (tmp_path / "ev").exists()

    def test_predictions_without_rows_exit_2_naming_the_file(self, dataset, tmp_path, capsys):
        # What the writer writes for a table of no anchors.
        preds = tmp_path / "empty.csv"
        write_predictions_csv(preds, Forecasts(dt.date(2019, 3, 1), np.empty((0, 3))))
        cfg = base_config(dataset, tmp_path / "run")
        assert main(["evaluate", "--config", str(cfg), "--predictions", str(preds),
                     "--out", str(tmp_path / "run")]) == 2
        assert f"{preds}: the file has no rows after its header" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_predictions_numerical_failure(self, dataset, tmp_path, capsys, value):
        # The reader takes any float; evaluate refuses to score a non-finite
        # one before it writes anything.
        lines = prediction_lines(dt.date(2019, 3, 1), 10, 3)
        lines[13] = lines[13].rsplit(",", 1)[0] + "," + value
        preds = tmp_path / "preds.csv"
        preds.write_text("\n".join(["anchor_date,step,target_date,value", *lines]) + "\n")
        cfg = base_config(dataset, tmp_path / "run")
        assert main(["evaluate", "--config", str(cfg), "--predictions", str(preds),
                     "--out", str(tmp_path / "run")]) == 3
        assert "the estimated series holds a non-finite value" in capsys.readouterr().err
        assert [f.name for f in (tmp_path / "run").iterdir()] == ["config.yaml"]

    @pytest.mark.parametrize("first,count,code,message", [
        ("2017-11-01", 30, 2, "predictions and dataset do not overlap in time"),
        ("2017-12-30", 9, 2, "dates in predictions have no matching actuals: 2017-12-30, 2017-12-31"),
        ("2020-05-17", 20, 0, ""),
    ], ids=["before", "into", "past_the_end"])
    def test_dates_outside_the_dataset(self, dataset, tmp_path, capsys, first, count, code, message):
        # The dataset holds 2018-01-01 .. 2020-05-31: dates before it are
        # refused, dates after it are left out of the scores.
        start = dt.date.fromisoformat(first)
        preds = tmp_path / "preds.csv"
        preds.write_text("anchor_date,step,target_date,value\n" + "".join(
            f"{d},1,{d},{100.0 + 7 * n % 23!r}\n"
            for n, d in enumerate(start + dt.timedelta(days=i) for i in range(count))))
        cfg = base_config(dataset, tmp_path / "run")
        assert main(["evaluate", "--config", str(cfg), "--predictions", str(preds),
                     "--out", str(tmp_path / "run")]) == code
        assert message in capsys.readouterr().err
        if code == 0:
            svg = (tmp_path / "run" / "timeline.svg").read_text()
            points = re.search(r'points="([^"]*)"', svg).group(1).split()
            assert len(points) == 15  # 2020-05-17 .. 2020-05-31

    @pytest.mark.parametrize("scenario", ["a,b<c & d", 'say "x"', "two\nlines", "cr\r", "a>b"])
    def test_scenario_that_report_or_svg_cannot_hold_exits_1(self, dataset, tmp_path, capsys, scenario):
        # Unquoted in report.csv, a comma would add a field; in the
        # timeline's title, < and & would break the SVG. Refused before
        # anything is read or written.
        preds = tmp_path / "preds.csv"
        preds.write_text("\n".join(["anchor_date,step,target_date,value",
                                    *prediction_lines(dt.date(2019, 3, 1), 10, 1)]) + "\n")
        cfg = base_config(dataset, tmp_path / "run")
        assert main(["evaluate", "--config", str(cfg), "--predictions", str(preds),
                     "--out", str(tmp_path / "run"), "--scenario", scenario]) == 1
        assert "--scenario may not hold" in capsys.readouterr().err
        assert [f.name for f in (tmp_path / "run").iterdir()] == ["config.yaml"]

    def test_disjoint_predictions_data_error(self, dataset, tmp_path):
        preds = tmp_path / "early.csv"
        preds.write_text(
            "anchor_date,step,target_date,value\n2010-01-01,1,2010-01-01,100.0\n"
        )
        cfg = base_config(dataset, tmp_path / "run")
        assert main(["evaluate", "--config", str(cfg), "--predictions", str(preds),
                     "--out", str(tmp_path / "run")]) == 2


class TestAblateCommand:
    def test_variant_list_and_all_features_match_direct_run(self, dataset, tmp_path):
        out = tmp_path / "ab"
        cfg = base_config(dataset, out, training={"epochs": 2, "batch_size": 8, "seed": 3})
        assert main(["ablate", "--config", str(cfg)]) == 0
        with (out / "ablation_report.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [r["variant"] for r in rows] == [
            "all_features", "no_mobility", "no_temperature", "no_humidity", "no_day_label",
        ]
        assert (out / "ablation_box.csv").exists()

        # The all-features variant must be identical to a direct
        # train/forecast/evaluate pipeline with the same seed.
        direct = tmp_path / "direct"
        cfg2 = base_config(dataset, direct, training={"epochs": 2, "batch_size": 8, "seed": 3})
        assert main(["train", "--config", str(cfg2)]) == 0
        assert main(["forecast", "--config", str(cfg2), "--checkpoint", str(direct / "checkpoint.bin")]) == 0
        assert main(["evaluate", "--config", str(cfg2), "--predictions", str(direct / "predictions.csv"),
                     "--scenario", "all_features"]) == 0
        assert (direct / "report.csv").read_bytes() == (out / "ablate" / "all_features" / "report.csv").read_bytes()

    def test_test_span_past_the_data_is_refused_before_training(self, dataset, tmp_path, monkeypatch,
                                                                 capsys):
        # The dataset ends on 2020-05-31, so no variant can forecast 2020-06.
        trainings = []
        monkeypatch.setattr(cli_mod, "train", lambda *a: trainings.append(a) or train(*a))
        cfg = base_config(dataset, tmp_path / "ab")
        assert main(["ablate", "--config", str(cfg), "--test-end", "2020-06-15",
                     "--epochs", "1"]) == 2
        assert "not enough history before 2020-06-01" in capsys.readouterr().err
        assert trainings == [] and not (tmp_path / "ab" / "ablate").exists()

    def test_a_test_span_that_cannot_be_scored_is_refused_before_training(
            self, dataset, tmp_path, monkeypatch, capsys):
        # One test day: its actual count is constant.
        trainings = []
        monkeypatch.setattr(cli_mod, "train", lambda *a: trainings.append(a) or train(*a))
        cfg = base_config(dataset, tmp_path / "ab")
        assert main(["ablate", "--config", str(cfg), "--test-start", "2020-03-31", "--test-end", "2020-03-31",
                     "--epochs", "1"]) == 2
        assert "all_features: 1 scored test day(s) cannot be scored" in capsys.readouterr().err
        assert trainings == [] and not (tmp_path / "ab" / "ablate").exists()


class TestHorizonCommand:
    def test_per_k_outputs_and_band_ordering(self, dataset, tmp_path):
        out = tmp_path / "hz"
        cfg = base_config(dataset, out, training={"epochs": 2, "batch_size": 8, "seed": 0})
        assert main(["horizon", "--config", str(cfg), "--horizons", "1,3"]) == 0
        with (out / "horizon_report.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["horizon"]) for r in rows] == [1, 3]
        with (out / "horizon_K3.csv").open() as fh:
            agg = list(csv.DictReader(fh))
        for row in agg:
            lo, mid, hi = float(row["min"]), float(row["mean"]), float(row["max"])
            assert lo <= mid <= hi
            assert 1 <= int(row["count"]) <= 3
        assert (out / "horizon_K3.svg").exists()

    def test_every_horizon_is_checked_before_training(self, dataset, tmp_path, monkeypatch):
        trainings = []
        monkeypatch.setattr(cli_mod, "train", lambda *a: trainings.append(a) or train(*a))
        cfg = base_config(dataset, tmp_path / "hz")
        assert main(["horizon", "--config", str(cfg), "--horizons", "3,0", "--epochs", "1"]) == 1
        assert trainings == [] and not (tmp_path / "hz" / "horizon_3").exists()

    def test_a_horizon_longer_than_the_train_span_is_refused_before_training(
            self, dataset, tmp_path, monkeypatch, capsys):
        # The train span has 730 days, fewer than lookback 7 + horizon 800.
        trainings = []
        monkeypatch.setattr(cli_mod, "train", lambda *a: trainings.append(a) or train(*a))
        cfg = base_config(dataset, tmp_path / "hz")
        assert main(["horizon", "--config", str(cfg), "--horizons", "3,800", "--epochs", "1"]) == 2
        assert "span of 730 days is too short for lookback 7 + horizon 800" in capsys.readouterr().err
        assert trainings == [] and not (tmp_path / "hz" / "horizon_3").exists()

    def test_a_test_span_that_cannot_be_scored_is_refused_before_training(
            self, dataset, tmp_path, monkeypatch, capsys):
        # Three anchors on the dataset's last three days: their K=3 forecasts
        # cover five dates, of which only those three have actuals, too few
        # distinct temperatures for the charts' cubic fit.
        trainings = []
        monkeypatch.setattr(cli_mod, "train", lambda *a: trainings.append(a) or train(*a))
        cfg = base_config(dataset, tmp_path / "hz")
        assert main(["horizon", "--config", str(cfg), "--horizons", "3", "--test-start", "2020-05-29",
                     "--test-end", "2020-05-31", "--epochs", "1"]) == 2
        assert "horizon_3: 3 scored test day(s) cannot be scored" in capsys.readouterr().err
        assert trainings == [] and not (tmp_path / "hz" / "horizon_3").exists()

    @pytest.mark.parametrize("horizons", ["3,x", "3,,7", "3,3"])
    def test_malformed_horizons_exit_1(self, dataset, tmp_path, horizons):
        cfg = base_config(dataset, tmp_path / "hz")
        assert main(["horizon", "--config", str(cfg), f"--horizons={horizons}",
                     "--epochs", "1"]) == 1
        assert not list((tmp_path / "hz").glob("horizon*"))  # refused before any training


class TestUsageErrors:
    @pytest.mark.parametrize("command,flag", [
        ("horizon", "--horizons"), ("forecast", "--start"), ("forecast", "--end"),
        ("synth", "--start"), ("synth", "--end"),
    ])
    def test_empty_value_exits_1(self, trained, tmp_path, command, flag):
        # An empty value is not an absent one: none of these falls back to its default.
        cfg, out = trained
        argv = {"synth": ["--out", str(tmp_path / "synth")],
                "forecast": ["--config", str(cfg), "--checkpoint", str(out / "checkpoint.bin"),
                             "--out", str(tmp_path)],
                "horizon": ["--config", str(cfg), "--epochs", "1", "--out", str(tmp_path)]}[command]
        assert main([command, *argv, f"{flag}="]) == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("flag,code", [
        ("--weather", 1), ("--ead", 1), ("--mobility", 1), ("--holidays", 1), ("--config", 1),
        ("--checkpoint", 2), ("--predictions", 2),
    ])
    def test_a_directory_as_an_input_file_exits_without_a_traceback(self, trained, tmp_path, flag, code):
        cfg, out = trained
        command = {"--checkpoint": "forecast", "--predictions": "evaluate"}.get(flag, "train")
        required = {"forecast": ["--checkpoint", str(out / "checkpoint.bin")],
                    "evaluate": ["--predictions", str(out / "predictions.csv")]}.get(command, [])
        proc = cli_subprocess([command, "--config", str(cfg), *required, "--epochs", "1",
                               "--out", str(tmp_path / "out"), flag, str(tmp_path)])
        assert proc.returncode == code, proc.stderr
        assert ("config error:" if code == 1 else "data error:") in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_a_file"])
    @pytest.mark.parametrize("command", ["train", "ablate", "horizon", "synth"])
    def test_an_out_that_cannot_be_a_directory_exits_1_before_reading_data(
            self, dataset, tmp_path, monkeypatch, capsys, command, below):
        reads = []
        monkeypatch.setattr(cli_mod, "load_records", lambda *a: reads.append(a))
        taken = tmp_path / "taken"
        taken.write_text("a file\n")
        out = taken / "run" if below else taken
        if command == "synth":
            argv = ["--start", "2019-01-01", "--end", "2019-03-31"]
        else:
            argv = ["--config", str(base_config(dataset, tmp_path / "cfg")), "--epochs", "1"]
        assert main([command, *argv, "--out", str(out)]) == 1
        assert f"config error: out {out} cannot be a directory: {taken} is not one" in capsys.readouterr().err
        assert reads == [] and taken.read_text() == "a file\n"

    def test_unknown_command(self):
        assert main(["transmogrify"]) == 1

    def test_missing_required_flag(self):
        assert main(["forecast"]) == 1

    def test_train_test_overlap_rejected(self, dataset, tmp_path):
        cfg = base_config(
            dataset, tmp_path / "run",
            test={"start": "2019-12-01", "end": "2020-03-31"},
        )
        assert main(["train", "--config", str(cfg)]) == 1
