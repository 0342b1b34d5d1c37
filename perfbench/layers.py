"""What the traced run wraps, and the per-layer metrics computed from its spans.

Per-layer times are averages over every traced phase of a run (the
pre-phase that makes a checkpoint, the timed loop and the checks after each
repetition), so each layer is timed on each workload. The LSTM and dense
times and the GFLOP/s count only the calls at one batch size per workload:
forward passes at its fwd_batch, backward passes at its training batch size,
so that calls of other shapes in the same run do not dilute them. Counts are
per timed operation (one workload command), so they repeat exactly for a
given workload and change only when the program does different work; a
layer the command does not call counts 0 (on forecast_k28: lstm.bwd_calls,
training.steps and cli.variants).

Operation counts ("flop") are computed from the shapes, not measured:
a (m, k) @ (k, n) product counts 2mkn, every elementwise arithmetic
operation or transcendental function counts 1 per element.
"""

from __future__ import annotations

import statistics

# Span names the benchmark itself opens.
OP = "bench.op"


def _lstm_shape(p, x) -> dict:
    T, B, I = x.shape
    return {"T": T, "B": B, "I": I, "H": p.W_ix.shape[0]}


def _lstm_fwd_shape(args, kwargs, result):
    return _lstm_shape(args[0], args[1])


def _lstm_bwd_shape(args, kwargs, result):
    return _lstm_shape(args[0], args[1]["x"])


def _batch_fwd(args, kwargs, result):
    return {"B": len(args[1])}


def _batch_bwd(args, kwargs, result):
    return {"B": len(args[2])}


def _anchors(args, kwargs, result):
    return {"anchors": len(result)}


def _bytes(args, kwargs, result):
    return {"bytes": len(args[1])}


# (target, span name(s), metadata) in the order they are installed. The
# forward pass runs lstm1 then lstm2; the backward pass runs lstm2 first.
TARGETS = (
    ("eadforecast.lstm._lstm_forward_batch", ("lstm.lstm1_fwd", "lstm.lstm2_fwd"), _lstm_fwd_shape),
    ("eadforecast.lstm._lstm_backward_batch", ("lstm.lstm2_bwd", "lstm.lstm1_bwd"), _lstm_bwd_shape),
    ("eadforecast.lstm.forward_batch", "lstm.forward_batch", _batch_fwd),
    ("eadforecast.training.forward_batch", "lstm.forward_batch", _batch_fwd),
    ("eadforecast.training.backward_batch", "lstm.backward_batch", _batch_bwd),
    ("eadforecast.training.batch_loss_and_grad", "losses.loss", None),
    ("eadforecast.training._adam_update_flat", "training.adam", None),
    ("eadforecast.training.model_to_vector", "training.flatten", None),
    ("eadforecast.cli.train", "training.train", None),
    ("eadforecast.cli.fit_scaler", "training.scaler", None),
    ("eadforecast.cli.apply_scaler", "training.scaler", None),
    ("eadforecast.cli.run_training", "cli.run_training", None),
    ("eadforecast.cli.load_records", "data.load", None),
    ("eadforecast.data.make_windows", "data.windows", None),
    ("eadforecast.checkpoint.load_checkpoint", "checkpoint.load", None),
    ("eadforecast.checkpoint.save_checkpoint", "checkpoint.save", None),
    ("eadforecast.cli.run_forecast", "cli.run_forecast", _anchors),
    ("eadforecast.cli.write_predictions_csv", "cli.predictions_write", None),
    ("eadforecast.cli.read_predictions_csv", "cli.predictions_read", None),
    ("eadforecast.cli.run_evaluation", "cli.evaluation", None),
    ("eadforecast.cli.horizon_aggregate", "metrics.horizon_aggregate", None),
    ("eadforecast.report.render_line_chart", "report.render", None),
    ("eadforecast.report.render_scatter_fit", "report.render", None),
    ("eadforecast.report.render_band_chart", "report.render", None),
    ("eadforecast.fileio.atomic_write_bytes", "fileio.write", _bytes),
    ("eadforecast.checkpoint.atomic_write_bytes", "fileio.write", _bytes),
)

# name -> unit, in the order BENCHMARK.json lists them.
PER_LAYER = {
    "lstm.lstm1_fwd_ms": "ms", "lstm.lstm2_fwd_ms": "ms",
    "lstm.lstm1_bwd_ms": "ms", "lstm.lstm2_bwd_ms": "ms",
    "lstm.fwd_calls": "count/op", "lstm.bwd_calls": "count/op",
    "lstm.dense_fwd_ms": "ms", "lstm.dense_bwd_ms": "ms",
    "lstm.fwd_gflops": "Gflop/s", "lstm.bwd_gflops": "Gflop/s",
    "training.steps": "count/op",
    "training.step_ms_p50": "ms", "training.step_ms_p99": "ms",
    "training.adam_ms": "ms", "training.flatten_ms": "ms",
    "training.loop_self_ms": "ms", "losses.loss_ms": "ms",
    "cli.forecast_ms_per_anchor": "ms", "cli.predictions_write_ms": "ms",
    "cli.predictions_read_ms": "ms", "cli.evaluation_ms": "ms",
    "metrics.horizon_aggregate_ms": "ms", "report.render_ms": "ms",
    "fileio.write_calls": "count/op", "fileio.bytes_written": "B/op",
    "cli.variants": "count/op", "cli.variant_wall_ms": "ms",
    "data.load_ms": "ms", "data.windows_ms": "ms", "training.scaler_ms": "ms",
    "checkpoint.load_ms": "ms", "checkpoint.save_ms": "ms",
    "trace_overhead_frac": "frac",
}


# ---------------------------------------------------------------------------
# Computed operation counts
# ---------------------------------------------------------------------------


def lstm_fwd_flop(T: int, I: int, H: int) -> int:
    """One window through one LSTM layer: the [i|o|f|m] projections of x and
    s (8H(I+H)), bias (4H), three sigmoids at 3 each (9H), two tanh (2H),
    the cell update f*c + i*m (3H) and s = o*tanh(c) (H)."""
    return T * (8 * H * (I + H) + 19 * H)


def lstm_bwd_flop(T: int, I: int, H: int) -> int:
    """Backward of one window through one LSTM layer: the recurrent
    ds = da @ Ws (8H^2) and elementwise gate derivatives (~27H) per step,
    then dWx, dx (8HI each) and dWs (8H^2) over the whole sequence."""
    return T * (16 * H * H + 16 * H * I + 27 * H)


def dense_flop(shapes) -> tuple[int, int]:
    """Forward and backward flop per window through the dense stack, given
    each layer's (out, in) weight shape: matmul + bias + activation forward,
    dW and dh matmuls + db + activation mask backward."""
    fwd = sum(2 * o * i + 2 * o for o, i in shapes)
    bwd = sum(4 * o * i + 2 * o for o, i in shapes)
    return fwd, bwd


def flop_per_window(spec: dict) -> dict:
    """Computed flop per window for each layer of the default architecture."""
    T, F, H1, H2, K = spec["lookback"], spec["features"], 50, 30, spec["horizon"]
    dense_fwd, dense_bwd = dense_flop([(300, H2), (100, 300), (K, 100)])
    return {
        "lstm1_fwd": lstm_fwd_flop(T, F, H1), "lstm1_bwd": lstm_bwd_flop(T, F, H1),
        "lstm2_fwd": lstm_fwd_flop(T, H1, H2), "lstm2_bwd": lstm_bwd_flop(T, H1, H2),
        "dense_fwd": dense_fwd, "dense_bwd": dense_bwd,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------


def _mean_ms(values) -> float:
    return 1e3 * statistics.fmean(values) if values else 0.0


def _percentile_ms(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return 1e3 * ordered[min(int(q * len(ordered)), len(ordered) - 1)]


def layer_metrics(tracer, fwd_batch: int, bwd_batch: int) -> dict:
    """Per-layer values (without trace_overhead_frac) from a traced run.
    LSTM and dense times count forward calls at batch size fwd_batch and
    backward calls at bwd_batch."""
    spans = tracer.spans
    self_t = tracer.self_times()
    in_op = tracer.within(OP)
    ops = max(sum(1 for s in spans if s.name == OP), 1)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)

    def idx(name):
        return by_name.get(name, [])

    def self_ms(name, batch=None):
        return _mean_ms([self_t[i] for i in idx(name)
                         if batch is None or spans[i].meta.get("B") == batch])

    def incl_ms(name):
        return _mean_ms([spans[i].duration for i in idx(name)])

    def per_op(names, weight=lambda s: 1):
        return sum(weight(spans[i]) for n in names for i in idx(n) if in_op[i]) / ops

    def gflops(names, flop_fn, batch):
        flop = busy = 0.0
        for n in names:
            for i in idx(n):
                m = spans[i].meta
                if m.get("B") == batch:
                    flop += m["B"] * flop_fn(m["T"], m["I"], m["H"])
                    busy += self_t[i]
        return flop / busy / 1e9 if busy > 0 else 0.0

    # Step time: from one training forward to the next inside a train call
    # (the last step of a call ends with the call).
    steps_s = []
    train_idx = idx("training.train")
    fwd_starts: dict[int, list[float]] = {i: [] for i in train_idx}
    for i in idx("lstm.forward_batch"):
        p = spans[i].parent
        if p in fwd_starts:
            fwd_starts[p].append(spans[i].start)
    for t, starts in fwd_starts.items():
        bounds = starts + [spans[t].end]
        steps_s += [b - a for a, b in zip(bounds, bounds[1:])]
    n_steps = len(idx("training.adam"))
    anchors = sum(spans[i].meta.get("anchors", 0) for i in idx("cli.run_forecast"))
    forecast_s = sum(spans[i].duration for i in idx("cli.run_forecast"))
    fits = len(idx("cli.run_training"))
    scaler_s = sum(spans[i].duration for i in idx("training.scaler"))

    return {
        "lstm.lstm1_fwd_ms": self_ms("lstm.lstm1_fwd", fwd_batch),
        "lstm.lstm2_fwd_ms": self_ms("lstm.lstm2_fwd", fwd_batch),
        "lstm.lstm1_bwd_ms": self_ms("lstm.lstm1_bwd", bwd_batch),
        "lstm.lstm2_bwd_ms": self_ms("lstm.lstm2_bwd", bwd_batch),
        "lstm.fwd_calls": per_op(["lstm.lstm1_fwd", "lstm.lstm2_fwd"]),
        "lstm.bwd_calls": per_op(["lstm.lstm1_bwd", "lstm.lstm2_bwd"]),
        "lstm.dense_fwd_ms": self_ms("lstm.forward_batch", fwd_batch),
        "lstm.dense_bwd_ms": self_ms("lstm.backward_batch", bwd_batch),
        "lstm.fwd_gflops": gflops(["lstm.lstm1_fwd", "lstm.lstm2_fwd"], lstm_fwd_flop, fwd_batch),
        "lstm.bwd_gflops": gflops(["lstm.lstm1_bwd", "lstm.lstm2_bwd"], lstm_bwd_flop, bwd_batch),
        "training.steps": per_op(["training.adam"]),
        "training.step_ms_p50": _percentile_ms(steps_s, 0.50),
        "training.step_ms_p99": _percentile_ms(steps_s, 0.99),
        "training.adam_ms": self_ms("training.adam"),
        "training.flatten_ms": self_ms("training.flatten"),
        "training.loop_self_ms": (
            1e3 * sum(self_t[i] for i in train_idx) / n_steps if n_steps else 0.0
        ),
        "losses.loss_ms": self_ms("losses.loss"),
        "cli.forecast_ms_per_anchor": 1e3 * forecast_s / anchors if anchors else 0.0,
        "cli.predictions_write_ms": incl_ms("cli.predictions_write"),
        "cli.predictions_read_ms": incl_ms("cli.predictions_read"),
        "cli.evaluation_ms": incl_ms("cli.evaluation"),
        "metrics.horizon_aggregate_ms": incl_ms("metrics.horizon_aggregate"),
        "report.render_ms": incl_ms("report.render"),
        "fileio.write_calls": per_op(["fileio.write"]),
        "fileio.bytes_written": per_op(["fileio.write"], lambda s: s.meta.get("bytes", 0)),
        "cli.variants": per_op(["cli.run_training"]),
        "cli.variant_wall_ms": incl_ms("cli.run_training"),
        "data.load_ms": incl_ms("data.load"),
        "data.windows_ms": incl_ms("data.windows"),
        "training.scaler_ms": 1e3 * scaler_s / fits if fits else 0.0,
        "checkpoint.load_ms": incl_ms("checkpoint.load"),
        "checkpoint.save_ms": incl_ms("checkpoint.save"),
    }


def install(tracer) -> None:
    for target, names, meta in TARGETS:
        tracer.wrap(target, names, meta)
