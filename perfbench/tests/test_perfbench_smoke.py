"""Smoke tests of the benchmark harness at tiny sizes (a few seconds in all)."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import layers  # noqa: E402
from tracer import Tracer  # noqa: E402


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake_layer")

    def inner(x):
        time.sleep(0.002)
        return x

    def outer(x):
        return mod.inner(x) + mod.inner(x)

    mod.inner, mod.outer = inner, outer
    monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return mod


def test_spans_nest_and_self_time_excludes_children(fake_module):
    tracer = Tracer()
    assert tracer.wrap("perfbench_fake_layer.inner", ("first", "second"))
    assert tracer.wrap("perfbench_fake_layer.outer", "outer")
    assert fake_module.outer(2) == 4
    tracer.unwrap_all()
    names = [s.name for s in tracer.spans]
    assert names == ["outer", "first", "second"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 0]
    self_t = tracer.self_times()
    assert self_t[0] < tracer.spans[0].duration - 0.003
    assert fake_module.outer.__name__ == "outer"  # restored


def test_missing_targets_are_reported_absent_not_raised():
    tracer = Tracer()
    assert not tracer.wrap("eadforecast_no_such_module.fn", "x")
    assert not tracer.wrap("json.no_such_function", "y")
    assert tracer.absent == ["eadforecast_no_such_module.fn", "json.no_such_function"]
    metrics = layers.layer_metrics(tracer, fwd_batch=1, bwd_batch=8)
    assert set(metrics) == set(layers.PER_LAYER) - {"trace_overhead_frac"}
    assert metrics["training.adam_ms"] == 0.0


def test_flop_counts_follow_the_shapes():
    assert layers.lstm_fwd_flop(T=1, I=4, H=50) == 8 * 50 * 54 + 19 * 50
    flop = layers.flop_per_window({"lookback": 14, "features": 4, "horizon": 1})
    assert flop["lstm1_bwd"] > flop["lstm1_fwd"] > 0


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_tiny_traced_run_reports_every_layer_and_passes_checks():
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "forecast_k28", "--seed", "3",
         "--seconds", "0.5", "--trace", "1", "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    assert set(result["metrics"]) == set(layers.PER_LAYER)
    assert result["metrics"]["lstm.lstm1_fwd_ms"]["value"] > 0
    assert result["metrics"]["cli.forecast_ms_per_anchor"]["value"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_paper", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
