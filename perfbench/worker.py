"""One process of the benchmark; run.py starts it.

    worker.py generate --work DIR --seed N [--tiny]
        Write the synthetic dataset for the seed into DIR/data.
    worker.py probe --work DIR --workload W [--tiny]
        Time one set-up from a fresh process: import + load_records +
        windowing/scaling + init_params, or + checkpoint load for
        forecast_k28. Prints {"setup_s": ...}.
    worker.py measure --work DIR --workload W --seed N --seconds S --trace 0|1 [--tiny]
        Pre-phase, then the workload's command repeated for S seconds, then
        the post-timing checks and scoring. Writes DIR/result.json.

The program is the checkout's src/eadforecast, driven in-process through
eadforecast.cli.main exactly as the console script drives it.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # before eadforecast (and numpy) are imported

import argparse  # noqa: E402
import contextlib  # noqa: E402
import datetime as dt  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import env  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
ABLATION = ["all_features", "no_mobility", "no_temperature", "no_humidity", "no_day_label"]
FORECASTS_PER_REP = {"train_paper": 8, "ablate_wide": 16}  # extra forecasts of 2020 per repetition
SETUP_PROBES = 15  # set-ups per untraced run, spread over the timed loop


def import_program():
    sys.path.insert(0, str(SRC))
    import eadforecast
    import eadforecast.checkpoint
    import eadforecast.cli

    if not Path(eadforecast.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"imported {eadforecast.__file__}, not the checkout's {SRC}")
    return eadforecast


# ---------------------------------------------------------------------------
# generate / probe
# ---------------------------------------------------------------------------


def generate(args) -> None:
    ead = import_program()
    synth = workloads.spans(args.tiny)["synth"]
    cfg = ead.data.SynthConfig(start=synth[0], end=synth[1])
    ead.data.write_dataset(ead.data.synth_generate(cfg, seed=args.seed), Path(args.work) / "data")


def probe(args) -> None:
    import_program()
    from eadforecast import checkpoint, cli, data, lstm, training

    work = Path(args.work)
    wl = workloads.settings(args.workload, args.tiny)
    cfg = cli.build_run_config(cli.build_parser().parse_args(
        ["train", "--config", str(work / "config.yaml")]))
    records = cli.load_records(cfg)
    if wl["command"] == "forecast":
        checkpoint.load_checkpoint(work / "ckpt" / "checkpoint.bin")
    else:
        windows = data.make_windows(
            cli._slice_records(records, cfg.train_start, cfg.train_end),
            cfg.lookback, cfg.horizon, cfg.mask(), cfg.group)
        X, _ = training.apply_scaler(training.fit_scaler(windows), windows)
        lstm.init_params(lstm.ModelSpec(input_dim=X.shape[2], horizon=cfg.horizon),
                         scheme=cfg.init, seed=cfg.seed)
    print(json.dumps({"setup_s": time.perf_counter() - T_START}))


# ---------------------------------------------------------------------------
# measure
# ---------------------------------------------------------------------------


class Probes:
    """Always-on timers around the two calls the end-to-end rates need:
    cli.train (duration, windows, epochs) and cli.run_forecast (duration,
    anchors). One timer per call, so the untraced run pays a few
    microseconds per command.
    """

    def __init__(self, cli):
        self.trainings: list[dict] = []
        self.forecasts: list[dict] = []
        self.recording = True
        train, run_forecast = cli.train, cli.run_forecast
        probes = self

        def timed_train(model, X, Y, config):
            start = time.perf_counter()
            out = train(model, X, Y, config)
            if probes.recording:
                probes.trainings.append({
                    "seconds": time.perf_counter() - start, "windows_trained": len(X) * config.epochs,
                    "model": out[0], "history": out[1],
                })
            return out

        def timed_forecast(*a, **kw):
            start = time.perf_counter()
            out = run_forecast(*a, **kw)
            if probes.recording:
                probes.forecasts.append(
                    {"seconds": time.perf_counter() - start, "anchors": len(out), "result": out})
            return out

        cli.train, cli.run_forecast = timed_train, timed_forecast


class Run:
    """One measured run of a workload: pre-phase, timed loop, post-phase."""

    def __init__(self, args):
        self.args = args
        self.ead = import_program()
        from eadforecast import checkpoint, cli, lstm

        self.cli, self.checkpoint, self.lstm = cli, checkpoint, lstm
        self.work = Path(args.work)
        self.wl = workloads.settings(args.workload, args.tiny)
        self.spans = workloads.spans(args.tiny)
        self.out = self.work / "out"
        self.probes = Probes(cli)
        self.tracer = Tracer()
        if args.trace:
            layers.install(self.tracer)
        self.attempted = 0
        self.failures: list[str] = []
        self.wall_s: list[float] = []
        self.wall_traced_s: list[float] = []
        self.trainings: list[list[float]] = []  # [windows x epochs, seconds] per train call
        self.forecasts: list[list[float]] = []  # [anchors, seconds] per run_forecast call
        self.setup_s: list[float] = []
        self.digests: dict[str, str] = {}
        self.quality: dict = {}
        self.peak_rss_mb = None

    # -- helpers -----------------------------------------------------------

    def main(self, *argv) -> None:
        rc = self.cli.main(list(argv))
        if rc != 0:
            raise RuntimeError(f"eadforecast {argv[0]} exited {rc}")

    def common(self) -> list[str]:
        return ["--config", str(self.work / "config.yaml"), "--out", str(self.out)]

    def fail(self, what: str, exc: BaseException, ops: int = 1) -> None:
        self.failures += [f"{what}: {exc!r}"] * ops
        traceback.print_exc(file=sys.stderr)

    @contextlib.contextmanager
    def unobserved(self):
        """Checks run with the tracer and the probes switched off."""
        state = self.tracer.enabled, self.probes.recording
        self.tracer.enabled = self.probes.recording = False
        try:
            yield
        finally:
            self.tracer.enabled, self.probes.recording = state

    def take(self) -> tuple[list[dict], list[dict]]:
        """The trainings and forecasts recorded since the last call."""
        trainings, self.probes.trainings = self.probes.trainings, []
        forecasts, self.probes.forecasts = self.probes.forecasts, []
        self.trainings += [[t["windows_trained"], t["seconds"]] for t in trainings]
        self.forecasts += [[f["anchors"], f["seconds"]] for f in forecasts]
        return trainings, forecasts

    @staticmethod
    def check_losses(training: dict, what: str) -> None:
        if not all(math.isfinite(v) for v in training["history"]):
            raise RuntimeError(f"{what}: non-finite loss in {training['history']}")

    def check_reload(self, model, path: Path) -> None:
        """A reloaded checkpoint reproduces forward outputs bit-exactly."""
        import numpy as np

        rng = np.random.default_rng(self.args.seed)
        X = rng.uniform(0.0, 1.0, size=(16, workloads.LOOKBACK, model.input_dim))
        loaded = self.checkpoint.load_checkpoint(path).model
        with self.unobserved():
            y0, _ = self.lstm.forward_batch(model, X)
            y1, _ = self.lstm.forward_batch(loaded, X)
        if y0.tobytes() != y1.tobytes():
            raise RuntimeError(f"{path.name}: reloaded model's outputs differ")

    def model_digest(self, model) -> str:
        import numpy as np

        flat = np.concatenate([a.ravel() for _, a in self.lstm.model_leaves(model)])
        return hashlib.sha256(flat.astype("<f8").tobytes()).hexdigest()

    def same_digest(self, digest: str, what: str) -> None:
        """Every repetition must produce the same bytes as the first."""
        if self.digests.setdefault(what, digest) != digest:
            raise RuntimeError(f"{what}: output differs from the first repetition's")

    def timed_loop(self, command, check, ops: int = 1) -> None:
        """Repeat the command for --seconds, at least once. With --trace 1
        the repetitions alternate untraced and traced, so that both sample
        the same stretch of time. check(trainings, forecasts) runs after each
        repetition's timer stops."""
        trace = bool(self.args.trace)
        start = time.perf_counter()
        k = 0
        while (not self.wall_s or (trace and not self.wall_traced_s)
               or time.perf_counter() - start < self.args.seconds):
            traced = trace and k % 2 == 1
            self.tracer.enabled = traced
            self.attempted += ops
            with self.tracer.span(layers.OP) if traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                try:
                    command()
                    ok = True
                except Exception as exc:
                    ok = False
                    self.fail(self.wl["command"], exc, ops)
                (self.wall_traced_s if traced else self.wall_s).append(time.perf_counter() - t0)
            self.tracer.enabled = trace
            k += 1
            trainings, forecasts = self.take()
            if ok:
                check(trainings, forecasts)
            if not trace:
                done = min((time.perf_counter() - start) / self.args.seconds, 1.0)
                while len(self.setup_s) < SETUP_PROBES * done:
                    self.probe_setup()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        while not trace and len(self.setup_s) < SETUP_PROBES:
            self.probe_setup()

    def probe_setup(self) -> None:
        """One set-up in a fresh process, between repetitions, so that the
        set-ups sample the same stretch of time as the command."""
        cmd = [sys.executable, __file__, "probe", "--work", str(self.work),
               "--workload", self.args.workload] + (["--tiny"] if self.args.tiny else [])
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        self.setup_s.append(json.loads(proc.stdout)["setup_s"])

    def score(self, est: dict) -> dict:
        """Score the 2020 forecasts, next to the noise floor of the ground truth."""
        data = self.work / "data"
        test = self.spans["test"]
        self.quality = checks.score(self.actual, est, *test)
        self.quality["noise_floor"] = checks.score(
            self.actual, checks.read_truth(data / "ground_truth.json"), *test)
        return self.quality

    @staticmethod
    def days(start: dt.date, end: dt.date) -> list[dt.date]:
        return [start + dt.timedelta(days=k) for k in range((end - start).days + 1)]

    # -- workloads ---------------------------------------------------------

    def run_train_paper(self) -> None:
        ckpt = self.out / "checkpoint.bin"
        anchors = self.days(*self.spans["test"])
        pred = self.out / "predictions.csv"

        def check(trainings, forecasts):
            try:
                (t,) = trainings
                self.check_losses(t, "train")
                self.check_reload(t["model"], ckpt)
                self.same_digest(checks.file_digest(ckpt), "checkpoint.bin")
            except Exception as exc:
                return self.fail("train checks", exc)
            # Outside the command's time: forecast 2020 with the new
            # checkpoint, which gives this workload's forecast rate.
            for _ in range(FORECASTS_PER_REP[self.args.workload]):
                self.attempted += 1
                try:
                    self.main("forecast", *self.common(), "--checkpoint", str(ckpt))
                    self.take()
                    checks.read_predictions(pred, anchors, 1)
                except Exception as exc:
                    self.fail("forecast", exc)

        self.timed_loop(lambda: self.main("train", *self.common()), check)
        try:
            self.main("evaluate", *self.common(), "--predictions", str(pred))
            own = self.score(checks.mean_per_date(checks.read_predictions(pred, anchors, 1)))
            checks.agree(checks.report_scores(self.out / "report.csv"), own, "report.csv")
        except Exception as exc:
            self.fail("evaluate", exc)

    def run_ablate_wide(self) -> None:
        # The all_features variant's inputs, built as the program builds
        # them: its scaler is fitted on the training windows only.
        cli, training, data = self.cli, self.ead.training, self.ead.data
        with self.unobserved():
            cfg = cli.build_run_config(cli.build_parser().parse_args(["ablate", *self.common()]))
            records = cli.load_records(cfg)
            scaler = training.fit_scaler(data.make_windows(
                cli._slice_records(records, cfg.train_start, cfg.train_end),
                cfg.lookback, cfg.horizon, cfg.mask(), cfg.group))
        last = {}

        def check(trainings, forecasts):
            digests = []
            for name, t in zip(ABLATION, trainings):
                try:
                    self.check_losses(t, name)
                    digests.append(self.model_digest(t["model"]))
                except Exception as exc:
                    self.fail(f"variant {name}", exc)
            try:
                if len(trainings) != len(ABLATION) or len(forecasts) != len(ABLATION):
                    raise RuntimeError(f"{len(trainings)} trainings for {len(ABLATION)} variants")
                last["scores"] = checks.read_ablation(self.out / "ablation_report.csv", ABLATION)
                last["model"], last["forecasts"] = trainings[0]["model"], forecasts[0]["result"]
                self.same_digest(",".join(digests), "ablation models")
            except Exception as exc:
                return self.fail("ablation report", exc)
            # Outside the command's time: forecast 2020 again with the
            # all_features model, which must reproduce the command's
            # forecasts and gives more samples of the forecast rate.
            expected = [(a, v.tobytes()) for a, v in last["forecasts"]]
            for _ in range(FORECASTS_PER_REP[self.args.workload]):
                self.attempted += 1
                try:
                    again = cli.run_forecast(last["model"], scaler, records, cfg, *self.spans["test"])
                    self.take()
                    if [(a, v.tobytes()) for a, v in again] != expected:
                        raise RuntimeError("forecast differs from the ablate command's")
                except Exception as exc:
                    self.fail("forecast", exc)

        self.timed_loop(lambda: self.main("ablate", *self.common()), check, ops=len(ABLATION))
        # After timing, on the all_features variant: checkpoint and
        # predictions.csv round trips through the program's own readers, and
        # an independent score of its 2020 forecasts.
        try:
            model, forecasts = last["model"], last["forecasts"]
            if model.input_dim != len(workloads.FEATURES):
                raise RuntimeError("the first ablation variant is not all_features")
            ckpt = self.out / "all_features.bin"
            self.checkpoint.save_checkpoint(ckpt, model, scaler, {})
            self.check_reload(model, ckpt)
            pred = self.out / "all_features_predictions.csv"
            self.cli.write_predictions_csv(pred, forecasts)
            back = self.cli.read_predictions_csv(pred)
            if [(a, v.tobytes()) for a, v in back] != [(a, v.tobytes()) for a, v in forecasts]:
                raise RuntimeError("predictions.csv round trip changed values")
            own = checks.read_predictions(pred, self.days(*self.spans["test"]), 1)
            self.score(checks.mean_per_date(own))
            checks.agree(last["scores"]["all_features"], self.quality, "ablation_report.csv")
        except Exception as exc:
            self.fail("all_features checks", exc)

    def run_forecast_k28(self) -> None:
        # Pre-phase: train the K=28 checkpoint. Its epochs, and one more
        # single-epoch K=28 training after each repetition, give this
        # workload's train_windows_per_s; they are outside wall_s and setup_s.
        ckpt = self.work / "ckpt" / "checkpoint.bin"
        sample = self.work / "epoch" / "checkpoint.bin"
        self.attempted += 1
        try:
            self.main("train", "--config", str(self.work / "config.yaml"), "--out", str(ckpt.parent))
            (t,), _ = self.take()
            self.check_losses(t, "checkpoint training")
            self.check_reload(t["model"], ckpt)
        except Exception as exc:
            return self.fail("checkpoint training", exc)

        first, last = self.spans["synth"]
        anchors = self.days(first + dt.timedelta(days=workloads.LOOKBACK), last)
        pred = self.out / "predictions.csv"

        def command():
            self.main("forecast", *self.common(), "--checkpoint", str(ckpt),
                      "--start", anchors[0].isoformat(), "--end", anchors[-1].isoformat())
            self.main("evaluate", *self.common(), "--predictions", str(pred))

        def check(trainings, forecasts):
            try:
                self.same_digest(checks.file_digest(pred), "predictions.csv")
            except Exception as exc:
                self.fail("forecast checks", exc)
            self.attempted += 1
            try:
                self.main("train", "--config", str(self.work / "config.yaml"),
                          "--out", str(sample.parent), "--epochs", "1")
                (t,), _ = self.take()
                self.check_losses(t, "one-epoch training")
                self.same_digest(checks.file_digest(sample), "one-epoch checkpoint.bin")
            except Exception as exc:
                self.fail("one-epoch training", exc)

        self.timed_loop(command, check)
        try:
            est = checks.mean_per_date(checks.read_predictions(pred, anchors, self.wl["horizon"]))
            self.score(est)
            whole = checks.score(self.actual, est, min(est), max(self.actual))
            checks.agree(checks.report_scores(self.out / "report.csv"), whole, "report.csv")
        except Exception as exc:
            self.fail("forecast scoring", exc)

    def run(self) -> dict:
        self.out.mkdir(parents=True, exist_ok=True)
        self.actual = checks.read_actuals(self.work / "data" / "ead.csv")
        getattr(self, f"run_{self.args.workload}")()
        self.tracer.unwrap_all()
        result = {
            "attempted": self.attempted,
            "failed": min(len(self.failures), self.attempted),
            "failures": self.failures,
            "wall_s": self.wall_s,
            "setup_s": self.setup_s,
            "trainings": self.trainings,
            "forecasts": self.forecasts,
            "digest": self.digests,
            "quality": self.quality,
            "peak_rss_mb": self.peak_rss_mb,
            "environment": env.environment(),
        }
        if self.args.trace:
            result["wall_traced_s"] = self.wall_traced_s
            result["layers"] = layers.layer_metrics(
                self.tracer, self.wl["fwd_batch"], self.wl["batch_size"])
            result["absent"] = self.tracer.absent
        return result


def measure(args) -> None:
    result = Run(args).run()
    out = Path(args.work) / "result.json"
    out.write_text(json.dumps(result))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("mode", choices=("generate", "probe", "measure"))
    p.add_argument("--work", required=True)
    p.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=1.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true")
    args = p.parse_args()
    {"generate": generate, "probe": probe, "measure": measure}[args.mode](args)


if __name__ == "__main__":
    main()
