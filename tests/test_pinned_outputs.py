"""The byte contract: the pinned CLI runs of bench/pinned_outputs.py write
exactly the files whose sha256 are listed in tests/data/pinned_sha256.txt.

The list holds for the numpy and OpenBLAS build named at its head; under
another build the test skips and names both. No tolerance: one flipped bit
in any output fails it. A change that moves bytes on purpose regenerates
the list (see bench/pinned_outputs.py) and says which paths changed and why.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PINNED = ROOT / "tests" / "data" / "pinned_sha256.txt"

sys.path.insert(0, str(ROOT / "bench"))

from pinned_outputs import environment_key  # noqa: E402


@pytest.mark.parametrize("threads", ["1", "2"])
def test_pinned_runs_write_the_pinned_bytes(threads):
    # The CLI runs every command on one BLAS thread, so the installed
    # thread count changes no byte.
    want = PINNED.read_text().splitlines()
    key = environment_key()
    if want[: len(key)] != key:
        pytest.skip(f"the pinned sha256 are for {want[:len(key)]}; this build is {key}")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "pinned_outputs.py"), str(ROOT)],
        env=dict(os.environ, OPENBLAS_NUM_THREADS=threads),
        capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    got = proc.stdout.splitlines()
    changed = sorted(set(got) ^ set(want))
    assert got == want, f"lines that differ (pinned or produced): {changed}"
