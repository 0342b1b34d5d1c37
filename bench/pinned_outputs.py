"""Run the pinned CLI runs of one checkout and print one sha256 per output file.

    python bench/pinned_outputs.py CHECKOUT [--keep DIR]

CHECKOUT is the root of a checkout (it holds src/eadforecast). The runs
use the dataset of `synth --seed 0 --start 2019-07-01 --end 2020-02-29`,
train on 2019-07-01..2019-12-31 and test on 2020-01-01..2020-02-29 at
batch 8 and seed 0:

- data: the synthetic dataset itself;
- train: `train`, `forecast` and `evaluate` at 2 epochs;
- ablate: `ablate --epochs 1`;
- horizon: `horizon --horizons 3,7 --epochs 1`;
- lagged_xent: `train --eq5-lagged-m --loss xent` at 2 epochs.

Each output line is `sha256  path`, the path relative to the run
directory, sorted by path. Two checkouts write the same bytes exactly when
their outputs are the same text:

    python bench/pinned_outputs.py ../parent > parent.txt
    python bench/pinned_outputs.py . > change.txt
    diff parent.txt change.txt

The run directory is a temporary one, removed at the end, unless --keep
names a directory (it must not exist yet). A run that exits non-zero stops
the script with its stderr and exit status 1.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

SPANS = ["--train-start", "2019-07-01", "--train-end", "2019-12-31",
         "--test-start", "2020-01-01", "--test-end", "2020-02-29"]
COMMON = ["--batch-size", "8", "--seed", "0"]


def runs(work: Path) -> list[list[str]]:
    """The CLI argument lists, in the order they run."""
    data = work / "data"
    paths = ["--weather", str(data / "weather.csv"), "--ead", str(data / "ead.csv"),
             "--mobility", str(data / "mobility.csv"), "--holidays", str(data / "holidays.txt")]

    def cli(command: str, out: str, *extra: str) -> list[str]:
        return [command, *paths, *SPANS, *COMMON, "--out", str(work / out), *extra]

    train = work / "train"
    return [
        ["synth", "--seed", "0", "--start", "2019-07-01", "--end", "2020-02-29",
         "--out", str(data)],
        cli("train", "train", "--epochs", "2"),
        cli("forecast", "train", "--checkpoint", str(train / "checkpoint.bin")),
        cli("evaluate", "train", "--predictions", str(train / "predictions.csv")),
        cli("ablate", "ablate", "--epochs", "1"),
        cli("horizon", "horizon", "--horizons", "3,7", "--epochs", "1"),
        cli("train", "lagged_xent", "--epochs", "2", "--eq5-lagged-m", "--loss", "xent"),
    ]


def pinned_digests(checkout: Path, work: Path) -> list[str]:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    for args in runs(work):
        proc = subprocess.run([sys.executable, "-m", "eadforecast.cli", *args],
                              env=env, capture_output=True, text=True)
        if proc.returncode:
            sys.stderr.write(proc.stderr)
            raise SystemExit(f"{args[0]} exited {proc.returncode}")
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
    print("\n".join(lines))


if __name__ == "__main__":
    main()
