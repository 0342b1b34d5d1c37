"""Run the pinned CLI runs of one checkout and print one sha256 per output file.

    python bench/pinned_outputs.py CHECKOUT [--keep DIR]

CHECKOUT is the root of a checkout (it holds src/eadforecast). The runs
use the dataset of `synth --seed 0 --start 2019-07-01 --end 2020-02-29`,
train on 2019-07-01..2019-12-31 and test on 2020-01-01..2020-02-29 at
seed 0, and at batch 8 unless a run below names another:

- data: the synthetic dataset itself;
- train: `train`, `forecast` and `evaluate` at 2 epochs;
- forecast_flags: a `forecast` of the train checkpoint given, by flag,
  the settings the checkpoint fixes (features in canonical order,
  lookback 14, horizon 1, group all), which forecast checks and accepts;
- ablate: `ablate --epochs 1`;
- horizon: `horizon --horizons 3,7 --epochs 1`;
- lagged_xent: `train --eq5-lagged-m --loss xent` at 2 epochs;
- wide and wide_lagged: `train --batch-size 256` at 2 epochs, the second
  with `--eq5-lagged-m`. Each epoch is one batch of all 170 training
  windows, large enough that lstm1's backward runs in blocks of one step,
  and the lagged run reads i_{t+1} across those blocks;
- config: `train --config config/config.yaml --epochs 1`, a run that
  reads a config file (CONFIG below: data paths relative to the file, the
  `squared_error` loss alias and the file-only settings `shuffle: false`
  and `baseline_month: 2019-12`).
- sparse: `train --epochs 1`, `forecast` and `evaluate`, each given
  `--config sparse/config.yaml` (SPARSE_CONFIG below), on `sparse_data/`,
  a copy of the dataset whose `mobility.csv` keeps only the days 1, 6, 11,
  16, 21, 26 and 31 of each month from 2019-09-16 to 2020-02-11. With
  `baseline_month: 2019-08` every run fills mobility: July and August at
  the baseline (100), 2019-09-01..15 on the line from the baseline to the
  first observation, the 4-5 days between observations on the line
  between them, and 2020-02-12..29 at the last observation. The synthetic
  `mobility.csv` lists every day, so no other run fills one.
- k28: `train --horizon 28 --epochs 1`, then a `forecast` of every anchor
  the dataset has history for (2019-07-15..2020-02-29: 230 anchors, 6,440
  lines, so `predictions.csv` spans several of the writer's and the
  reader's blocks) and its `evaluate`.

The output starts with the environment key, two `# ` lines naming the
numpy version and the configuration string of numpy's bundled OpenBLAS
(the bytes are only claimed for one build). Each line after it is
`sha256  path`, the path relative to the run directory, sorted by path.
Two checkouts write the same bytes exactly when their outputs are the same
text:

    python bench/pinned_outputs.py ../parent > parent.txt
    python bench/pinned_outputs.py . > change.txt
    diff parent.txt change.txt

`tests/data/pinned_sha256.txt` is this output for the current checkout,
the same under any `OPENBLAS_NUM_THREADS` (the CLI runs every command on
one BLAS thread), and `tests/test_pinned_outputs.py` requires it under 1
and 2 threads; a change that moves bytes on purpose regenerates it with

    python bench/pinned_outputs.py . > tests/data/pinned_sha256.txt

The run directory is a temporary one, removed at the end, unless --keep
names a directory (it must not exist yet). A run that exits non-zero stops
the script with its stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SPANS = ["--train-start", "2019-07-01", "--train-end", "2019-12-31",
         "--test-start", "2020-01-01", "--test-end", "2020-02-29"]
COMMON = ["--batch-size", "8", "--seed", "0"]
CONFIG = """\
data:
  weather: ../data/weather.csv
  ead: ../data/ead.csv
  mobility: ../data/mobility.csv
  holidays: ../data/holidays.txt
train: {start: 2019-07-01, end: 2019-12-31}
test: {start: 2020-01-01, end: 2020-02-29}
training: {batch_size: 8, seed: 0, loss: squared_error, shuffle: false}
baseline_month: '2019-12'
out: .
"""
SPARSE_CONFIG = """\
data:
  weather: ../sparse_data/weather.csv
  ead: ../sparse_data/ead.csv
  mobility: ../sparse_data/mobility.csv
  holidays: ../sparse_data/holidays.txt
train: {start: 2019-07-01, end: 2019-12-31}
test: {start: 2020-01-01, end: 2020-02-29}
training: {batch_size: 8, seed: 0}
baseline_month: '2019-08'
out: .
"""


def openblas_runtime_config() -> str:
    """The configuration string numpy's bundled OpenBLAS reports at run time,
    naming the kernels it picked for this CPU ("none" without it)."""
    try:
        from numpy._core import _multiarray_umath

        config = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_config64_
    except (ImportError, OSError, AttributeError):
        return "none"
    config.argtypes, config.restype = [], ctypes.c_char_p
    return config().decode().strip()


def environment_key() -> list[str]:
    """The numpy version and openblas_runtime_config(), as the output's `# `
    lines."""
    import numpy

    return [f"# numpy {numpy.__version__}", f"# {openblas_runtime_config()}"]


def runs(work: Path) -> list[list[str]]:
    """The CLI argument lists, in the order they run."""
    data = work / "data"
    paths = ["--weather", str(data / "weather.csv"), "--ead", str(data / "ead.csv"),
             "--mobility", str(data / "mobility.csv"), "--holidays", str(data / "holidays.txt")]

    def cli(command: str, out: str, *extra: str) -> list[str]:
        return [command, *paths, *SPANS, *COMMON, "--out", str(work / out), *extra]

    train, sparse, k28 = work / "train", work / "sparse", work / "k28"
    return [
        ["synth", "--seed", "0", "--start", "2019-07-01", "--end", "2020-02-29",
         "--out", str(data)],
        cli("train", "train", "--epochs", "2"),
        cli("forecast", "train", "--checkpoint", str(train / "checkpoint.bin")),
        cli("evaluate", "train", "--predictions", str(train / "predictions.csv")),
        cli("forecast", "forecast_flags", "--checkpoint", str(train / "checkpoint.bin"),
            "--features", "temperature,humidity,day_label,mobility", "--lookback", "14",
            "--horizon", "1", "--group", "all"),
        cli("ablate", "ablate", "--epochs", "1"),
        cli("horizon", "horizon", "--horizons", "3,7", "--epochs", "1"),
        cli("train", "lagged_xent", "--epochs", "2", "--eq5-lagged-m", "--loss", "xent"),
        cli("train", "wide", "--epochs", "2", "--batch-size", "256"),
        cli("train", "wide_lagged", "--epochs", "2", "--batch-size", "256", "--eq5-lagged-m"),
        ["train", "--config", str(work / "config" / "config.yaml"), "--epochs", "1"],
        ["train", "--config", str(sparse / "config.yaml"), "--epochs", "1"],
        ["forecast", "--config", str(sparse / "config.yaml"),
         "--checkpoint", str(sparse / "checkpoint.bin")],
        ["evaluate", "--config", str(sparse / "config.yaml"),
         "--predictions", str(sparse / "predictions.csv")],
        cli("train", "k28", "--horizon", "28", "--epochs", "1"),
        cli("forecast", "k28", "--checkpoint", str(k28 / "checkpoint.bin"),
            "--start", "2019-07-15", "--end", "2020-02-29"),
        cli("evaluate", "k28", "--predictions", str(k28 / "predictions.csv")),
    ]


def write_sparse_copy(data: Path, dest: Path) -> None:
    """Copy the dataset in data to dest, its mobility.csv cut to the days
    1, 6, ..., 31 of each month from 2019-09-16 to 2020-02-11."""
    dest.mkdir()
    for name in ("weather.csv", "ead.csv", "holidays.txt"):
        shutil.copyfile(data / name, dest / name)
    header, *rows = (data / "mobility.csv").read_text().splitlines(keepends=True)
    kept = [row for row in rows
            if "2019-09-16" <= row[:10] <= "2020-02-11" and int(row[8:10]) % 5 == 1]
    (dest / "mobility.csv").write_text(header + "".join(kept))


def pinned_digests(checkout: Path, work: Path) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    for name, text in (("config", CONFIG), ("sparse", SPARSE_CONFIG)):
        (work / name).mkdir()
        (work / name / "config.yaml").write_text(text)

    def run(args: list[str]) -> None:
        proc = subprocess.run([sys.executable, "-m", "eadforecast.cli", *args],
                              env=env, capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{args[0]} exited {proc.returncode}")

    synth, *rest = runs(work)
    run(synth)
    write_sparse_copy(work / "data", work / "sparse_data")
    for args in rest:
        run(args)
    return [f"{hashlib.sha256(p.read_bytes()).hexdigest()}  {p.relative_to(work)}"
            for p in sorted(work.rglob("*")) if p.is_file()]


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkout", type=Path)
    ap.add_argument("--keep", type=Path, help="run in this new directory and keep it")
    args = ap.parse_args()
    checkout = args.checkout.resolve()
    if not (checkout / "src" / "eadforecast").is_dir():
        raise SystemExit(f"{checkout} has no src/eadforecast")
    if args.keep:
        args.keep.mkdir(parents=True)
        lines = pinned_digests(checkout, args.keep.resolve())
    else:
        with tempfile.TemporaryDirectory() as tmp:
            lines = pinned_digests(checkout, Path(tmp))
    print("\n".join(environment_key() + lines))


if __name__ == "__main__":
    main()
