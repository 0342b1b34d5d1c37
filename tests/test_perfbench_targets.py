"""The package still has every function the benchmark in perfbench/ times,
and the metadata the benchmark reads off their calls.

perfbench reports a layer whose function is gone as absent instead of
failing, and it records a failure to read a call's shapes as `meta_error`
on the span instead of raising, so a rename or deletion in the package, or
a changed argument such as an LSTM layer's forward cache, would otherwise
only show as missing or zero numbers in a benchmark run.
"""

import datetime as dt
import sys
from pathlib import Path

import pytest

from eadforecast import cli
from eadforecast.data import SynthConfig, synth_generate, write_dataset

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.mark.parametrize("target", [target for target, _, _ in layers.TARGETS])
def test_benchmark_target_resolves(target):
    tracer = Tracer()
    try:
        assert tracer.wrap(target, "probe"), f"{target} is missing"
    finally:
        tracer.unwrap_all()
    assert tracer.absent == []


def test_traced_train_and_forecast_record_every_layer_shape(tmp_path):
    # One epoch at batch 2 on a small dataset, then a forecast of its
    # checkpoint, with every benchmark target wrapped.
    paths = write_dataset(
        synth_generate(SynthConfig(start=dt.date(2019, 10, 1), end=dt.date(2020, 1, 31)), seed=0),
        tmp_path / "data")
    common = [
        "--weather", str(paths["weather"]), "--ead", str(paths["ead"]),
        "--mobility", str(paths["mobility"]), "--holidays", str(paths["holidays"]),
        "--train-start", "2019-10-01", "--train-end", "2019-12-31",
        "--test-start", "2020-01-01", "--test-end", "2020-01-31",
        "--batch-size", "2", "--seed", "0", "--out", str(tmp_path / "out"),
    ]
    tracer = Tracer()
    layers.install(tracer)
    try:
        assert cli.main(["train", *common, "--epochs", "1"]) == 0
        assert cli.main(["forecast", *common, "--checkpoint", str(tmp_path / "out" / "checkpoint.bin")]) == 0
    finally:
        tracer.unwrap_all()

    assert tracer.absent == []
    assert [(s.name, s.meta["meta_error"]) for s in tracer.spans if "meta_error" in s.meta] == []
    shapes = {}
    for s in tracer.spans:
        if s.name.startswith("lstm.lstm"):
            assert {"B", "T", "I", "H"} <= s.meta.keys(), (s.name, s.meta)
            shapes.setdefault(s.name, set()).add((s.meta["I"], s.meta["H"]))
        elif s.name.startswith("lstm."):
            assert "B" in s.meta, (s.name, s.meta)
    assert shapes == {"lstm.lstm1_fwd": {(4, 50)}, "lstm.lstm2_fwd": {(50, 30)},
                      "lstm.lstm1_bwd": {(4, 50)}, "lstm.lstm2_bwd": {(50, 30)}}
    assert {s.meta["B"] for s in tracer.spans if s.name == "lstm.lstm1_bwd"} == {2}
