"""Per-layer cost of one training step, parent against change, and the
benchmark runs behind a speed claim.

    python bench/layer_step.py --parent PATH --out FILE [--change PATH]
                               [--repeats 5] [--pairs 10] [--trace-pairs 3]
                               [--seconds 36] [--workloads NAME,...]

PATH is the root of a checkout (it holds src/eadforecast and perfbench/);
--change defaults to this checkout. For B = 8, 64 and 256 a worker process
imports one side's package, trains the paper's network (lstm 50 -> lstm 30
-> dense 300/100/1, L=14, four features) on random windows and reports:

- lstm1/lstm2 forward and backward: median ms per call of
  lstm._lstm_forward_batch / _lstm_backward_batch inside training;
- dense forward and backward: median self time per call of forward_batch /
  backward_batch (everything outside the two LSTM layers: the dense stack,
  the input transpose and the gradient bookkeeping);
- loss and Adam: median ms per call of batch_loss_and_grad and
  _adam_update_flat;
- step: wall time of an unwrapped training epoch over its step count;
- workspace_mib: the bytes of the distinct base arrays a fresh
  lstm.Workspace holds after one forward_batch + backward_batch at the
  batch size, in MiB;
- maxrss_mb: the worker's peak resident set (ru_maxrss), in MB.

The layers are timed through wrappers on the module attributes that
training calls, the boundaries perfbench/layers.py also times, so both
sides are measured the same way whatever their internals. Repeats
alternate which side runs first; each value is the median over repeats,
with the quartiles of the repeats.
--repeats 0 skips this table.

With --pairs N (default 0), it then runs perfbench/run.py --trace 0 for
each workload N times per side, alternating which side goes first, seed i
for pair i, and records each metric's samples, median and quartiles, the
test-span CC and relative MAE, and how many pairs the change won. With
--trace-pairs M (default 0) it runs perfbench/run.py --trace 1 the same way
M times per side and workload, and records every per-layer metric of the
traced runs (the BENCHMARK.json `per_layer` list: layer, phase and I/O
times) with its samples, median and quartiles. --workloads limits both to
the named workloads (default: all three).

The output holds both sides side by side and the environment: numpy, BLAS
name, version and live thread count, nproc, and the configuration string
OpenBLAS reports at run time (blas_runtime_config), which names the kernels
that ran rather than those of the build host (blas_config).
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent
BATCHES = (8, 64, 256)
STEPS = {8: 200, 64: 40, 256: 12}  # optimizer steps per timed epoch
LAYERS = ("lstm1_fwd", "lstm2_fwd", "lstm1_bwd", "lstm2_bwd", "dense_fwd", "dense_bwd",
          "loss", "adam", "step")
MEMORY = ("workspace_mib", "maxrss_mb")
# metric -> True when higher is better
E2E = {"setup_s": False, "wall_s": False, "train_windows_per_s": True,
       "forecast_anchors_per_s": True, "peak_rss_mb": False, "test_cc": True}
WORKLOADS = ("train_paper", "ablate_wide", "forecast_k28")
PER_LAYER = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]


# ---------------------------------------------------------------------------
# Worker: one side, one batch size
# ---------------------------------------------------------------------------


def workspace_bytes(ws) -> int:
    """Bytes of the distinct base arrays reachable from the workspace's
    attributes (its buffers, their dicts and cached properties), the model
    it was made for excluded."""
    import numpy as np

    bases: dict[int, np.ndarray] = {}

    def walk(obj) -> None:
        if isinstance(obj, np.ndarray):
            while isinstance(obj.base, np.ndarray):
                obj = obj.base
            bases[id(obj)] = obj
        elif isinstance(obj, dict):
            for value in obj.values():
                walk(value)
        elif hasattr(obj, "__dict__") and not isinstance(obj, type):
            walk(vars(obj))

    walk({k: v for k, v in vars(ws).items() if k != "model"})
    return sum(a.nbytes for a in bases.values())


def measure(src: str, batch: int) -> dict:
    sys.path.insert(0, src)
    import numpy as np

    from eadforecast import lstm, training

    rng = np.random.default_rng(0)
    n = batch * STEPS[batch]
    X, Y = rng.uniform(size=(n, 14, 4)), rng.uniform(size=(n, 1))
    model = lstm.init_params(lstm.ModelSpec(input_dim=4), seed=0)
    config = training.TrainConfig(epochs=1, batch_size=batch)

    training.train(model, X, Y, config)  # warm-up
    t0 = time.perf_counter()
    training.train(model, X, Y, config)
    step_ms = 1e3 * (time.perf_counter() - t0) / STEPS[batch]

    times: dict[str, list[float]] = {name: [] for name in LAYERS}
    stack: list[float] = []  # child time accumulated per open call

    def wrap(module, attr, names):
        orig = getattr(module, attr)
        calls = [0]

        def timed(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                return orig(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                times[names[calls[0] % len(names)]].append(1e3 * (elapsed - child))
                calls[0] += 1

        setattr(module, attr, timed)

    wrap(lstm, "_lstm_forward_batch", ("lstm1_fwd", "lstm2_fwd"))
    wrap(lstm, "_lstm_backward_batch", ("lstm2_bwd", "lstm1_bwd"))
    wrap(training, "forward_batch", ("dense_fwd",))
    wrap(training, "backward_batch", ("dense_bwd",))
    wrap(training, "batch_loss_and_grad", ("loss",))
    wrap(training, "_adam_update_flat", ("adam",))
    training.train(model, X, Y, config)
    out = {name: statistics.median(v) for name, v in times.items() if v}
    out["step"] = step_ms

    ws = lstm.Workspace(model, batch, X.shape[1])
    y, cache = lstm.forward_batch(model, X[:batch], ws)
    lstm.backward_batch(model, cache, np.ones_like(y))
    out["workspace_mib"] = workspace_bytes(ws) / 2**20
    out["maxrss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return out


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_worker(root: Path, batch: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE), "measure", "--src", str(root / "src"), "--batch", str(batch)],
        capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def summary(values: list[float]) -> dict:
    if len(values) < 2:
        q1 = median = q3 = values[0]
    else:
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "samples": values}


def layer_table(sides: dict[str, Path], repeats: int) -> dict:
    runs = {side: {b: [] for b in BATCHES} for side in sides}
    for r in range(repeats):
        for side in (list(sides) if r % 2 == 0 else list(sides)[::-1]):
            for b in BATCHES:
                runs[side][b].append(run_worker(sides[side], b))
                print(f"repeat {r} {side} B={b} step {runs[side][b][-1]['step']:.3f} ms",
                      file=sys.stderr)
    table = {}
    for b in BATCHES:
        row = {}
        for name in (*LAYERS, *MEMORY):
            got = {side: summary([run[name] for run in runs[side][b]]) for side in sides}
            row[name if name in MEMORY else f"{name}_ms"] = {
                **{side: got[side]["median"] for side in sides},
                **{f"{side}_q1_q3": [got[side]["q1"], got[side]["q3"]] for side in sides},
                "change_over_parent": got["change"]["median"] / got["parent"]["median"],
            }
        table[f"B={b}"] = row
    return table


def perfbench_run(root: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", repr(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=root, check=True)
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    detail = json.loads(next(l for l in lines if l.startswith("detail "))[len("detail "):])
    out = {k: m["value"] for k, m in result["metrics"].items()}
    out["test_mae_rel"] = detail.get("test_mae_rel")
    out["correct"] = result["correct"]
    out["failed"] = result["failed"]
    out["attempted"] = result["attempted"]
    return out


def alternating_runs(sides: dict[str, Path], workload: str, pairs: int, seconds: float,
                     trace: int) -> dict[str, list[dict]]:
    """`pairs` perfbench runs of the workload per side, seed i for pair i,
    alternating which side goes first."""
    runs = {side: [] for side in sides}
    for i in range(pairs):
        for side in (list(sides) if i % 2 == 0 else list(sides)[::-1]):
            runs[side].append(perfbench_run(sides[side], workload, i, seconds, trace))
            print(f"{workload} trace {trace} pair {i} {side}: {runs[side][-1]}", file=sys.stderr)
    return runs


def perfbench_pairs(sides: dict[str, Path], pairs: int, seconds: float, workloads) -> dict:
    report = {}
    for workload in workloads:
        runs = alternating_runs(sides, workload, pairs, seconds, trace=0)
        row = {}
        for metric in [*E2E, "test_mae_rel"]:
            got = {side: [run[metric] for run in runs[side]] for side in sides}
            row[metric] = {side: summary(got[side]) for side in sides}
            if metric in E2E:
                better = (lambda c, p: c > p) if E2E[metric] else (lambda c, p: c < p)
                row[metric]["change_wins"] = sum(
                    better(c, p) for c, p in zip(got["change"], got["parent"]))
        row["failed"] = {side: sum(run["failed"] for run in runs[side]) for side in sides}
        row["attempted"] = {side: sum(run["attempted"] for run in runs[side]) for side in sides}
        row["correct"] = {side: all(run["correct"] for run in runs[side]) for side in sides}
        report[workload] = row
    return report


def perfbench_trace_pairs(sides: dict[str, Path], pairs: int, seconds: float, workloads) -> dict:
    report = {}
    for workload in workloads:
        runs = alternating_runs(sides, workload, pairs, seconds, trace=1)
        metrics = [m for m in PER_LAYER if all(m in run for side in sides for run in runs[side])]
        report[workload] = {
            metric: {side: summary([run[metric] for run in runs[side]]) for side in sides}
            for metric in metrics
        }
    return report


def environment() -> dict:
    """perfbench's environment record, plus the OpenBLAS configuration of the
    kernels that ran (its blas_config is the build host's)."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import env
    from pinned_outputs import openblas_runtime_config

    return {**env.environment(), "blas_runtime_config": openblas_runtime_config()}


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", nargs="?", default="compare", choices=("compare", "measure"))
    p.add_argument("--parent", type=Path)
    p.add_argument("--change", type=Path, default=ROOT)
    p.add_argument("--src", help="measure mode: the src directory to import")
    p.add_argument("--batch", type=int, help="measure mode: the batch size")
    p.add_argument("--repeats", type=int, default=5)
    p.add_argument("--pairs", type=int, default=0)
    p.add_argument("--trace-pairs", dest="trace_pairs", type=int, default=0)
    p.add_argument("--seconds", type=float, default=36.0)
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--out", type=Path, help="the JSON file to write")
    args = p.parse_args()
    if args.mode == "measure":
        print(json.dumps(measure(args.src, args.batch)))
        return
    if args.parent is None or args.out is None:
        p.error("--parent and --out are required")
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = args.workloads.split(",")
    if not set(workloads) <= set(WORKLOADS):
        p.error(f"--workloads: choose from {','.join(WORKLOADS)}")
    doc = {"environment": environment()}
    if args.repeats:
        doc["layers_ms_median_of_repeats"] = layer_table(sides, args.repeats)
        doc["repeats"] = args.repeats
    if args.pairs:
        doc["perfbench"] = perfbench_pairs(sides, args.pairs, args.seconds, workloads)
    if args.trace_pairs:
        doc["perfbench_trace1"] = perfbench_trace_pairs(
            sides, args.trace_pairs, args.seconds, workloads)
    if args.pairs or args.trace_pairs:
        doc["perfbench_seconds"] = args.seconds
    args.out.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
