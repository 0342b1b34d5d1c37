"""Benchmark of the eadforecast package, run from the root of a checkout.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Workloads (see workloads.py): train_paper, ablate_wide, forecast_k28. The
seed generates the synthetic dataset and seeds the model; generating it is
outside every metric. The program is the checkout's src/eadforecast, run in
separate worker processes one at a time, with BLAS threading as installed.

--trace 0 measures the end-to-end metrics; --trace 1 alternates untraced and
traced repetitions of the command and reports the per-layer metrics and the
tracing overhead. Human-readable lines (environment, every metric with its
unit, the noise floor, computed flop counts) come first; the last line of
stdout is one JSON object with the keys correct, attempted, failed, metrics.
Exits 2 without a result when the checkout has no src/eadforecast, and 1
when a worker process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
DEADLINE_S = 170  # the whole run, including set-up probes

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "train_windows_per_s": "windows/s",
    "forecast_anchors_per_s": "anchors/s",
    "peak_rss_mb": "MB",
    "test_cc": "frac",
}


class WorkerFailed(Exception):
    pass


def mean(values: list[float]) -> float | None:
    return statistics.fmean(values) if values else None


def rate(samples: list[list[float]]) -> float | None:
    """Work per second over all (work, seconds) samples of the run."""
    seconds = sum(s for _, s in samples)
    return sum(w for w, _ in samples) / seconds if seconds > 0 else None


class Bench:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"

    def worker(self, mode: str, *extra: str) -> str:
        cmd = [sys.executable, str(HERE / "worker.py"), mode, "--work", str(self.work),
               "--workload", self.args.workload, "--seed", str(self.args.seed), *extra]
        if self.args.tiny:
            cmd.append("--tiny")
        timeout = max(self.deadline - time.monotonic(), 1.0)
        with open(self.work / "worker.log", "a") as log:
            try:
                proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=log, text=True,
                                      timeout=timeout, cwd=self.work)
            except subprocess.TimeoutExpired:  # run() has killed and reaped it
                raise WorkerFailed(f"worker {mode} timed out after {timeout:.0f} s") from None
        if proc.returncode != 0:
            tail = (self.work / "worker.log").read_text()[-2000:]
            raise WorkerFailed(f"worker {mode} exited {proc.returncode}\n{tail}")
        return proc.stdout

    def measure(self) -> dict:
        self.worker("measure", "--seconds", repr(self.args.seconds), "--trace", str(self.args.trace))
        return json.loads((self.work / "result.json").read_text())

    def run(self) -> dict:
        args = self.args
        (self.work / "data").mkdir(parents=True)
        workloads.write_config(self.work / "config.yaml", args.workload, args.seed, args.tiny)
        self.worker("generate")
        res = self.measure()
        if args.trace:
            metrics = dict(res["layers"])
            # The first repetition (untraced) also pays the process's warm-up.
            untraced = res["wall_s"][1:] or res["wall_s"]
            metrics["trace_overhead_frac"] = (
                statistics.median(res["wall_traced_s"]) / statistics.median(untraced) - 1.0)
            units = layers.PER_LAYER
            extra = {"absent": res["absent"],
                     "samples": {"untraced": len(res["wall_s"]), "traced": len(res["wall_traced_s"])}}
        else:
            q = res["quality"]
            metrics = {
                # Means and totals over the whole run, not medians: the
                # machine's speed switches between two levels about 1.7x
                # apart in phases of seconds, and a median of samples taken
                # across such phases jumps between the levels (README.md).
                "setup_s": mean(res["setup_s"]),
                "wall_s": mean(res["wall_s"]),
                "train_windows_per_s": rate(res["trainings"]),
                "forecast_anchors_per_s": rate(res["forecasts"]),
                "peak_rss_mb": res["peak_rss_mb"],
                "test_cc": q.get("cc"),
            }
            units = END_TO_END
            extra = {
                "samples": {k: res[k] for k in ("setup_s", "wall_s", "trainings", "forecasts")},
                # Printed, not a listed metric: across seeds its spread is too
                # wide for any bound the benchmark may set (see README.md).
                "test_mae_rel": q.get("mae_rel"),
                "noise_floor": q.get("noise_floor"),
            }
        extra["digest"] = res["digest"]
        return {
            "correct": res["failed"] == 0 and not res["failures"]
                       and all(isinstance(v, float) for v in metrics.values()),
            "attempted": res["attempted"],
            "failed": res["failed"],
            "failures": res["failures"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
            "extra": extra,
            "environment": res["environment"],
        }


def describe(args, result: dict) -> None:
    wl = workloads.settings(args.workload, args.tiny)
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print("environment " + json.dumps({**result["environment"], "seed": args.seed}, sort_keys=True))
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']!r:>24} {m['unit']}")
    floor = result["extra"].get("noise_floor")
    if floor:
        print(f"  {'test_mae_rel':32s} {result['extra']['test_mae_rel']!r:>24} frac")
        print(f"  noise floor (ground truth, 2020): mae_rel {floor['mae_rel']!r}  cc {floor['cc']!r}")
    if not args.trace:
        flop = layers.flop_per_window(
            {"lookback": workloads.LOOKBACK, "features": len(workloads.FEATURES),
             "horizon": wl["horizon"]})
        print("computed flop per window: " + json.dumps(flop))
    ops_failed_frac = result["failed"] / result["attempted"] if result["attempted"] else 1.0
    print(f"  ops_failed_frac {ops_failed_frac!r} ({result['failed']}/{result['attempted']})")
    for f in result["failures"]:
        print(f"  FAILED {f}")
    print("detail " + json.dumps(result["extra"], sort_keys=True))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="few-second smoke-test sizes")
    args = p.parse_args(argv)
    # On SIGTERM, unwind so that subprocess.run kills and reaps the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "eadforecast" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'eadforecast'} is missing", file=sys.stderr)
        return 2
    bench = Bench(args)
    try:
        result = bench.run()
    except WorkerFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass
    describe(args, result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
