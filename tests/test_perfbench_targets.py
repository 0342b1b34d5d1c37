"""The package still has every function the benchmark in perfbench/ times.

perfbench reports a layer whose function is gone as absent instead of
failing, so a rename or deletion in the package would otherwise only show
as missing numbers in a benchmark run.
"""

import sys
from pathlib import Path

import pytest

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
