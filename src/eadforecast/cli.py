"""Command-line entry points.

Subcommands: synth, train, forecast, evaluate, ablate, horizon. Every
command is deterministic given (config, seed) and runs on one BLAS thread;
reruns produce byte-identical outputs under any BLAS thread count.
Configuration comes from an optional YAML file plus flag overrides
(flags win). Exit codes: 0 success, 1 usage/config error, 2 data error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import datetime as dt
import importlib.resources
import logging
import sys
from dataclasses import dataclass, field, fields, replace
from itertools import chain, islice, repeat
from pathlib import Path

import numpy as np
import yaml

from . import checkpoint as ckpt_io
from . import data as data_mod
from . import lstm as lstm_mod  # called through the module, so wrappers on it (perfbench) apply
from . import report as report_mod
from .errors import ConfigError, DataError, NumericalError
from .fileio import atomic_write_chunks, atomic_write_text, write_table
from .losses import LOSS_KINDS
from .lstm import INIT_SCHEMES, ModelSpec, init_params
from .metrics import EvalReport, Forecasts, HorizonSeries, evaluate_series, horizon_aggregate, relative_errors
from .training import TrainConfig, apply_scaler, fit_scaler, train

log = logging.getLogger("eadforecast")

ABLATION_VARIANTS = (
    ("all_features", None),
    ("no_mobility", "mobility"),
    ("no_temperature", "temperature"),
    ("no_humidity", "humidity"),
    ("no_day_label", "day_label"),
)
DEFAULT_HORIZONS = (3, 7, 14, 28)
# The RunConfig settings train records in a checkpoint's meta and forecast
# takes from it; the horizon comes from the model itself.
CHECKPOINT_SETTINGS = ("features", "lookback", "group", "baseline_month")
# Anchors per forward pass in run_forecast. A forecast makes no backward
# arrays; a chunk bounds the workspace's per-step forward buffers ([x; s; 1],
# gates, c and tanh(c) of all 14 steps of both layers, and the dense outputs:
# ~77 KB per anchor by their shapes, ~180 MB for all 2,319 anchors of the
# default dataset) and fixes the matrix shapes BLAS sees. On the default
# dataset, 32 anchors ran ~2x the anchors/s of 6 at the same peak RSS (57.0
# vs 56.8 MB in a forecast+evaluate process); 64 were ~10% faster again but
# peaked at 59.6 MB.
FORECAST_CHUNK = 32


def _coerce_date(value, label: str) -> dt.date:
    # type(), not isinstance: a YAML timestamp is a datetime, a date subclass.
    if value is None or type(value) is dt.date:
        return value
    try:
        return dt.date.fromisoformat(str(value))
    except ValueError:
        raise ConfigError(f"bad date for {label}: {value!r}") from None


def _of_type(what: str, *kinds, ok=None, rule: str = ""):
    """The check of a value of one of these types (type() rather than
    isinstance, because a YAML true is a bool and bool is a subclass of int)
    for which ok, if given, holds: a value `rule` describes."""
    def check(value, name):
        if type(value) not in kinds:
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        if ok is not None and not ok(value):
            raise ConfigError(f"{name} must be {rule}, got {value!r}")
        return value
    return check


def _one_of(choices):
    return _of_type("a string", str, ok=choices.__contains__, rule=f"one of {list(choices)}")


_BOOL = _of_type("true or false", bool)
_COUNT = _of_type("an integer", int, ok=lambda v: v >= 1, rule=">= 1")


def _as_path(value, name) -> Path:
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a path, got {value!r}")
    return Path(value)


def _check_out_dir(out) -> None:
    """Refuse an output directory that cannot be made, because its nearest
    existing ancestor (or itself) is not a directory."""
    for path in (Path(out), *Path(out).parents):
        if path.exists():
            if not path.is_dir():
                raise ConfigError(f"out {out} cannot be a directory: {path} is not one")
            return


def _as_features(value, name) -> tuple[str, ...]:
    """A feature list in the canonical order (data.FEATURE_ORDER), so that two
    orders of the same names make the same run; unknown, repeated or no names
    are refused."""
    if not (isinstance(value, list) and all(isinstance(f, str) for f in value)):
        raise ConfigError(f"{name} must be a list of names, got {value!r}")
    return data_mod.feature_names(value)


LOSS_ALIASES = {"squared_error": "mse", "cross_entropy": "xent", "normalized_cross_entropy": "xent"}


def _as_loss(value, name) -> str:
    value = _one_of((*LOSS_KINDS, *LOSS_ALIASES))(value, name)
    return LOSS_ALIASES.get(value, value)


def _setting(value, key: str, check, *, flag: bool = True, **kwargs):
    """A RunConfig field: its default value, its config-file key (dotted for
    an entry of a section), check(value, name) -> the field's value, which
    judges it from the file, the flag (after the flag's type) or a checkpoint,
    and unless flag is False its flag's add_argument keywords (see _flag_dest)."""
    return field(default=value, metadata={"key": key, "check": check, "flag": kwargs if flag else None})


def _flag_dest(f) -> str:
    """A setting's flag is named after its key, or after the field for a key
    in a section (train.start: --train-start)."""
    return f.name if "." in f.metadata["key"] else f.metadata["key"]


@dataclass
class RunConfig:
    """A run's settings (see _setting), in the order of their flags in
    --help. The config file, the flags and the run digest read this table."""

    weather: Path = _setting(None, "data.weather", _as_path)
    ead: Path = _setting(None, "data.ead", _as_path)
    mobility: Path = _setting(None, "data.mobility", _as_path)
    holidays: Path = _setting(None, "data.holidays", _as_path)
    train_start: dt.date = _setting(None, "train.start", _coerce_date)
    train_end: dt.date = _setting(None, "train.end", _coerce_date)
    test_start: dt.date = _setting(None, "test.start", _coerce_date)
    test_end: dt.date = _setting(None, "test.end", _coerce_date)
    seed: int = _setting(0, "training.seed", _of_type("an integer", int, ok=lambda v: v >= 0, rule=">= 0"),
                         type=int)
    out: Path = _setting(Path("out"), "out", _as_path)
    group: str = _setting("all", "group", _one_of(data_mod.GROUPS), help=", ".join(data_mod.GROUPS))
    lookback: int = _setting(14, "lookback", _COUNT, type=int)
    horizon: int = _setting(1, "horizon", _COUNT, type=int)
    features: tuple[str, ...] = _setting(
        data_mod.FEATURE_ORDER, "features", _as_features, help="comma-separated feature list",
        type=lambda text: [f.strip() for f in text.split(",") if f.strip()])
    loss: str = _setting("mse", "training.loss", _as_loss, help=", ".join([*LOSS_KINDS, *LOSS_ALIASES]))
    init: str = _setting("uniform", "init", _one_of(INIT_SCHEMES), help=" or ".join(INIT_SCHEMES))
    epochs: int = _setting(500, "training.epochs", _COUNT, type=int)
    batch_size: int = _setting(8, "training.batch_size", _COUNT, type=int)
    lr: float = _setting(1e-3, "training.lr", _of_type("a number", int, float, rule="a finite number > 0",
                                                       ok=lambda v: 0 < v <= sys.float_info.max), type=float)
    # default=None: an absent flag must not override a config file's true.
    lagged_m: bool = _setting(False, "eq5_lagged_m", _BOOL, action="store_true", default=None,
                              help="use the lagged candidate-vector cell update variant")
    shuffle: bool = _setting(True, "training.shuffle", _BOOL, flag=False)
    baseline_month: str = _setting("2020-01", "baseline_month", _of_type(
        "a string", str, ok=data_mod.MONTH.fullmatch, rule="a YYYY-MM month"), flag=False)

    def validate(self, need_spans: bool = True) -> None:
        """The checks that span settings or read the file system."""
        for name in ("weather", "ead", "holidays"):
            path = getattr(self, name)
            if path is None:
                raise ConfigError(f"missing required data path: {name}")
            if not Path(path).is_file():
                raise ConfigError(f"{name} file does not exist: {path}")
        if "mobility" in self.features:
            if self.mobility is None or not Path(self.mobility).is_file():
                raise ConfigError("mobility feature enabled but mobility file is missing")
        _check_out_dir(self.out)
        if need_spans:
            for name in ("train_start", "train_end", "test_start", "test_end"):
                if getattr(self, name) is None:
                    raise ConfigError(f"missing required span field: {name}")
            if not (self.train_start <= self.train_end < self.test_start <= self.test_end):
                raise ConfigError("train span must precede and not overlap the test span")

    def mask(self) -> tuple[str, ...]:
        """cfg.features, for the benchmark (perfbench/worker.py), which passes
        cfg.mask() to make_windows."""
        return self.features

    def train_config(self) -> TrainConfig:
        return TrainConfig(epochs=self.epochs, batch_size=self.batch_size, loss=self.loss,
                           lr=self.lr, seed=self.seed, shuffle=self.shuffle)

    def digest_payload(self) -> dict:
        """What the run digest covers: every setting but the paths, with
        each span as "train"/"test": [start, end]."""
        payload = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if f.metadata["check"] is _coerce_date:
                payload.setdefault(f.metadata["key"].split(".")[0], []).append(str(value))
            elif f.metadata["check"] is not _as_path:
                payload[f.name] = value
        return payload


_CHECKS = {f.name: f.metadata["check"] for f in fields(RunConfig)}  # check(value, name) by field


def load_config_file(path) -> dict:
    """The config file's values by RunConfig key, dotted for an entry of a
    section. A key that is no setting's, or a section that is not a mapping,
    is refused."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    try:
        doc = yaml.safe_load(path.read_text())
    except yaml.YAMLError as exc:
        raise ConfigError(f"{path}: invalid YAML: {exc}") from None
    if doc is None:
        return {}
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: config root must be a mapping")
    keys = {f.metadata["key"] for f in fields(RunConfig)}
    values = {}
    for name, value in doc.items():
        if not any(key.startswith(f"{name}.") for key in keys):
            values[name] = value
        elif isinstance(value, dict):
            values.update((f"{name}.{sub}", v) for sub, v in value.items())
        else:
            raise ConfigError(f"{name} must be a mapping, got {value!r}")
    unknown = [key for key in values if key not in keys]
    if unknown:
        raise ConfigError(f"{path}: unknown config key(s) {unknown}; known: {sorted(keys)}")
    return values


def build_run_config(args, cfg: RunConfig | None = None) -> RunConfig:
    """Merge the YAML config file and the flags into cfg (a default RunConfig
    if None); flags win over file values. Paths in the file are relative to
    its directory."""
    cfg = RunConfig() if cfg is None else cfg
    config = getattr(args, "config", None)
    values = load_config_file(config) if config else {}
    for f in fields(RunConfig):
        key, flag, check = f.metadata["key"], f.metadata["flag"], f.metadata["check"]
        if key in values:
            value = check(values[key], f.name)
            setattr(cfg, f.name, Path(config).parent / value if isinstance(value, Path) else value)
        value = None if flag is None else getattr(args, _flag_dest(f), None)
        if value is not None:
            setattr(cfg, f.name, check(value, f.name))
    return cfg


# ---------------------------------------------------------------------------
# Shared pipeline pieces
# ---------------------------------------------------------------------------


def load_records(cfg: RunConfig) -> data_mod.Days:
    """The configured dataset as a day table, its mobility filled when the
    mobility feature is on."""
    days = data_mod.load_dataset(
        cfg.weather, cfg.ead,
        mobility_path=cfg.mobility if "mobility" in cfg.features else None,
        holidays_path=cfg.holidays,
    )
    if "mobility" in cfg.features:
        days = data_mod.fill_mobility(days, baseline_month=cfg.baseline_month)
    return days


def _slice_records(days: data_mod.Days, start: dt.date, end: dt.date) -> data_mod.Days:
    return days.between(start, end)


def train_windows(cfg: RunConfig, days: data_mod.Days) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """make_windows' windows of cfg's train span."""
    return data_mod.make_windows(
        _slice_records(days, cfg.train_start, cfg.train_end),
        cfg.lookback, cfg.horizon, cfg.features, cfg.group,
    )


def run_training(cfg: RunConfig, windows) -> tuple[object, object, list[float]]:
    """Fit the scaler on the training windows (train_windows) only, then
    train the network."""
    scaler = fit_scaler(windows)
    X, Y = apply_scaler(scaler, windows)
    spec = ModelSpec(
        input_dim=X.shape[2],
        horizon=cfg.horizon,
        head_activation="sigmoid" if cfg.loss == "xent" else "identity",
        lagged_m=cfg.lagged_m,
    )
    model = init_params(spec, scheme=cfg.init, seed=cfg.seed)
    model, history = train(model, X, Y, cfg.train_config())
    return model, scaler, history


def anchor_rows(days: data_mod.Days, lookback: int, start: dt.date, end: dt.date) -> tuple[int, int]:
    """The day-table rows of the first and last anchor day from start to
    end, each of which must have its lookback days before it in the table."""
    if start > end:
        raise ConfigError("forecast span is empty")
    first, last = days.offset(start), days.offset(end)
    if first < lookback or last >= len(days):
        # The first anchor short of history, or the first past the last day.
        day = days.date(first if first < lookback else max(first, len(days)))
        raise DataError(
            f"not enough history before {day.isoformat()}: "
            f"need {lookback} prior days in the dataset"
        )
    return first, last


def run_forecast(model, scaler, days, cfg: RunConfig, start: dt.date, end: dt.date) -> Forecasts:
    """The K-day predictions, on the count scale, made at each anchor day
    from start to end.

    An anchor is the first predicted day; its window covers the L preceding
    days, which must all be in the day table. Anchors go through the
    network FORECAST_CHUNK at a time, through one workspace.
    """
    first, last = anchor_rows(days, cfg.lookback, start, end)
    # Scaled once and gathered by row, as training's apply_scaler does.
    features = scaler.transform_features(data_mod.feature_matrix(days, cfg.features))
    rows = data_mod.window_rows(first, last + 1, cfg.lookback)
    n = last - first + 1
    y = np.empty((n, model.horizon))
    # Full chunks, then the tail one anchor at a time, so that whatever the
    # span length only two batch shapes (FORECAST_CHUNK and 1) reach BLAS.
    n_full = n - n % FORECAST_CHUNK
    starts = [*range(0, n_full, FORECAST_CHUNK), *range(n_full, n)]
    ws = lstm_mod.Workspace(model, FORECAST_CHUNK, cfg.lookback)
    for lo, hi in zip(starts, [*starts[1:], n]):
        y[lo:hi], _ = lstm_mod.forward_batch(model, features[rows[lo:hi]], ws)
    return Forecasts(start, scaler.invert_target(y))


PREDICTIONS_HEADER = "anchor_date,step,target_date,value"
# Lines of predictions.csv per block, rounded down to whole anchors (one at
# least), that write_predictions_csv formats and streams and
# read_predictions_csv checks at a time. For 2,319 anchors at K=28 (the
# default dataset's forecast_k28 span), Python allocations (tracemalloc)
# peak at 0.24 MB writing and 1.23 MB reading with 1,024-line blocks,
# against 1.87 and 5.97 MB with 8,192 (9.23 MB writing when the whole text
# was joined before the write). Smaller blocks barely lower the reader's
# peak, which is then its values, and cost time: 256-line blocks wrote
# ~12% slower than 1,024.
PREDICTIONS_BLOCK = 1 << 10


def _prediction_columns(first: dt.date, a0: int, a1: int, k: int) -> tuple[list, list, list]:
    """The anchor, step and target columns of the lines of anchors a0..a1-1,
    anchor a being the day first + a: K lines per anchor, steps 1..K, the
    target anchor + step - 1. Each date is formatted once."""
    iso = data_mod.iso_days(first + dt.timedelta(days=a0), a1 - a0 + k - 1)
    anchors = [*chain.from_iterable(map(repeat, iso[: a1 - a0], repeat(k)))]
    targets = [*chain.from_iterable(iso[a : a + k] for a in range(a1 - a0))]
    return anchors, [str(step) for step in range(1, k + 1)] * (a1 - a0), targets


def write_predictions_csv(path, forecasts: Forecasts) -> None:
    """One line per anchor and step, `anchor_date,step,target_date,value`,
    the value as repr(float), streamed to the file a block at a time."""
    n, k = forecasts.values.shape
    size = max(1, PREDICTIONS_BLOCK // k)  # anchors per block
    comma, newline = repeat(","), repeat("\n")

    def blocks():
        yield (PREDICTIONS_HEADER + "\n").encode()
        for a0 in range(0, n, size):
            anchors, steps, targets = _prediction_columns(forecasts.start, a0, min(a0 + size, n), k)
            values = [*map(repr, forecasts.values[a0 : a0 + size].ravel().tolist())]
            lines = zip(anchors, comma, steps, comma, targets, comma, values, newline)
            yield "".join(chain.from_iterable(lines)).encode()

    atomic_write_chunks(path, blocks())


def read_predictions_csv(path) -> Forecasts:
    """Forecasts as written by write_predictions_csv.

    The rows must come in written order: K rows per anchor with steps 1..K
    and target date anchor + step - 1, K taken from the first anchor, and
    each anchor the day after the one before. The first line that departs
    from it, or has a value that is not a number, is a DataError that names
    it; so is a file with no rows, or one that is not UTF-8 text. A value
    is a number as in the input files (data.cell_fault): a digit-group
    underscore or a non-ASCII digit is refused. The file is read in blocks
    of whole anchors, each checked against the columns the writer joins
    (_prediction_columns).
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"predictions file not found: {path}")
    try:
        with path.open(encoding="utf-8") as fh:  # universal newlines: a CRLF file reads as LF
            return _read_predictions(path, fh)
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text: {exc}") from None


def _read_predictions(path: Path, fh) -> Forecasts:
    header = fh.readline()
    if header.rstrip("\n") != PREDICTIONS_HEADER:
        raise DataError(f"{path}: bad predictions header {header.rstrip()!r}")
    block = [fh.readline()]
    if not block[0]:
        raise DataError(f"{path}: the file has no rows after its header")
    anchor = block[0].split(",", 1)[0].rstrip("\n")
    try:
        first = dt.date.fromisoformat(anchor)
    except ValueError as exc:
        raise DataError(f"{path}:2: {exc}") from None
    # K is the number of lines of the first anchor.
    while (line := fh.readline()).startswith(anchor + ","):
        block.append(line)
    k = len(block)
    lines = chain(block, [line] if line else [], fh)
    values = []  # one float64 array per block
    row = 0  # lines before the block
    # Blocks of whole anchors: only the file's last block can end inside one.
    while block := [*islice(lines, k * max(1, PREDICTIONS_BLOCK // k))]:
        n = len(block)
        # The block's cells. Only the value cells may end in a newline, so
        # 4n cells whose other columns are the writer's are n lines of 4.
        text = ",".join(block)
        fields = text.split(",")
        columns = _prediction_columns(first, row // k, (row + n + k - 1) // k, k)
        columns = [column[:n] for column in columns]
        if not (len(fields) == 4 * n and all(fields[i::4] == col for i, col in enumerate(columns))):
            _refuse_prediction_lines(path, block, row, first, k, columns)
        try:
            if "_" in text or not text.isascii():
                raise ValueError
            values.append(np.fromiter(map(float, fields[3::4]), np.float64, n))
        except ValueError:
            _refuse_prediction_lines(path, block, row, first, k, columns)
        row += n
    if row % k:
        raise DataError(
            f"{path}:{row + 2}: the file ends at step {row % k} of anchor "
            f"{first + dt.timedelta(days=row // k)}; every anchor has steps 1..{k}"
        )
    return Forecasts(first, np.concatenate(values).reshape(-1, k))


def _refuse_prediction_lines(path, lines: list[str], row: int, first: dt.date, k: int, columns):
    """Raise the DataError for the first of these lines (the first is data
    row `row`) that is not the line of the columns."""
    for i, (line, *want) in enumerate(zip(lines, *columns), start=row):
        fields = line.rstrip("\n").split(",")
        where = f"{path}:{i + 2}"
        if len(fields) != 4:
            raise DataError(f"{where}: expected 4 fields, got {len(fields)}")
        if fields[:3] != want:
            raise DataError(
                f"{where}: row {','.join(fields[:3])} is out of written order; expected "
                f"{','.join(want)} (anchors one day apart from {first}, steps 1..{k})"
            )
        if fault := data_mod.cell_fault(fields[3], float, "value"):
            raise DataError(f"{where}: {fault}")
    raise AssertionError("a refused block has no bad line")


def write_horizon_csv(path, agg: HorizonSeries) -> None:
    columns = (agg.mean.tolist(), agg.min.tolist(), agg.max.tolist(), agg.count.tolist())
    write_table(path, ["date", "mean", "min", "max", "count"],
                zip(data_mod.iso_days(agg.start, len(agg.mean)), *columns))


@dataclass
class Evaluation:
    """What run_evaluation scored: the per-date aggregate of the forecasts,
    and the actual and estimated (aggregate mean) counts of its first days,
    those that have actuals."""

    report: EvalReport
    agg: HorizonSeries
    actual: np.ndarray
    estimate: np.ndarray


def scored_rows(days, start: dt.date, n: int) -> slice:
    """The day-table rows that evaluation scores for a per-date series of n
    days from start: its first days, those that have actuals. Days after
    the table's last day are left out; a day before its first day, or no
    day in it, is a DataError."""
    first = days.offset(start)
    lo, hi = max(-first, 0), min(len(days) - first, n)
    if lo >= hi:
        raise DataError("predictions and dataset do not overlap in time")
    if lo:
        shown = ", ".join(data_mod.iso_days(start, min(lo, 10)))
        raise DataError(f"dates in predictions have no matching actuals: {shown}")
    return slice(first, first + hi)


def run_evaluation(days, forecasts: Forecasts, group: str, scenario: str, out_dir: Path) -> Evaluation:
    """Aggregate forecasts per date, compare the dates scored_rows selects
    with actuals, emit report + charts. Every chart is drawn before the
    first file is written, so a refused score or chart leaves no file
    behind."""
    agg = horizon_aggregate(forecasts)
    rows = scored_rows(days, agg.start, len(agg.mean))
    est = agg.mean[: rows.stop - rows.start]
    act = days.counts[group][rows]
    rep = evaluate_series(act, est, group=group, scenario=scenario)
    series = {"actual": act, "estimated": est}
    charts = {
        "timeline.svg": report_mod.render_line_chart(
            agg.start, series,
            f"Daily dispatch counts ({group}, {scenario})" if scenario else f"Daily dispatch counts ({group})",
        ),
        "fit_temperature.svg": report_mod.render_scatter_fit(
            days.tmax[rows], series,
            "Dispatch counts vs daily maximum temperature", "max temperature (degC)",
        ),
        "fit_humidity.svg": report_mod.render_scatter_fit(
            days.humidity[rows], series,
            "Dispatch counts vs daily average humidity", "relative humidity (%)",
        ),
    }
    report_mod.write_report_csv(out_dir / "report.csv", rep)
    reference = importlib.resources.files("eadforecast").joinpath("reference_metrics.csv")
    atomic_write_text(out_dir / "reference_metrics.csv", reference.read_text(encoding="utf-8"))
    for name, svg in charts.items():
        atomic_write_text(out_dir / name, svg)
    return Evaluation(rep, agg, act, est)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_synth(args) -> None:
    cfg = data_mod.SynthConfig()
    if args.start is not None:
        cfg = replace(cfg, start=_coerce_date(args.start, "start"))
    if args.end is not None:
        cfg = replace(cfg, end=_coerce_date(args.end, "end"))
    if args.base_rate is not None:
        cfg = replace(cfg, base_rate=args.base_rate)
    out = args.out or Path("out")
    _check_out_dir(out)
    result = data_mod.synth_generate(cfg, seed=args.seed if args.seed is not None else 0)
    paths = data_mod.write_dataset(result, out)
    log.info("wrote synthetic dataset: %s", ", ".join(str(p) for p in paths.values()))


def cmd_train(args) -> None:
    cfg = build_run_config(args)
    cfg.validate()
    days = load_records(cfg)
    out = Path(cfg.out)
    model, scaler, history = run_training(cfg, train_windows(cfg, days))
    write_table(out / "loss_history.csv", ["epoch", "loss"], enumerate(history, 1))
    meta = {name: getattr(cfg, name) for name in (*CHECKPOINT_SETTINGS, "seed", "loss", "init")}
    meta["train_span"] = [cfg.train_start.isoformat(), cfg.train_end.isoformat()]
    meta["run_digest"] = ckpt_io.config_digest(cfg.digest_payload())
    ckpt_io.save_checkpoint(out / "checkpoint.bin", model, scaler, meta)
    log.info("checkpoint written to %s", out / "checkpoint.bin")


def checkpoint_settings(ckpt, path) -> dict:
    """The settings ckpt fixes, by RunConfig field: those of
    CHECKPOINT_SETTINGS its meta records (group "all" when it records none),
    each judged by its field's check, and the model's horizon. A meta that
    does not record them as train writes them is a DataError."""
    meta = {"group": "all", **ckpt.meta}
    try:
        fixed = {name: _CHECKS[name](meta[name], name) for name in CHECKPOINT_SETTINGS if name in meta}
    except ConfigError as exc:
        raise DataError(f"{path}: checkpoint meta: {exc}") from None
    if "lookback" not in fixed or len(fixed.get("features", ())) != ckpt.model.input_dim:
        raise DataError(f"{path}: the checkpoint meta must record its lookback and one feature per input")
    return {**fixed, "horizon": ckpt.model.horizon}


def cmd_forecast(args) -> None:
    # A setting the checkpoint fixes starts as None, so that a value given in
    # the config file or by a flag is checked against the checkpoint (exit 1
    # if they disagree) and a missing one is taken from it.
    ckpt = ckpt_io.load_checkpoint(args.checkpoint)
    fixed = checkpoint_settings(ckpt, args.checkpoint)
    cfg = build_run_config(args, RunConfig(**dict.fromkeys(fixed)))
    for name, value in fixed.items():
        if getattr(cfg, name) not in (None, value):
            raise ConfigError(f"checkpoint {name} is {value!r}, got {getattr(cfg, name)!r}")
        setattr(cfg, name, value)
    cfg.validate(need_spans=False)
    start = _coerce_date(args.start, "start") if args.start is not None else cfg.test_start
    end = _coerce_date(args.end, "end") if args.end is not None else cfg.test_end
    if start is None or end is None:
        raise ConfigError("forecast span is not configured; pass --start/--end")
    days = load_records(cfg)
    forecasts = run_forecast(ckpt.model, ckpt.scaler, days, cfg, start, end)
    out = Path(cfg.out)
    write_predictions_csv(out / "predictions.csv", forecasts)
    write_horizon_csv(out / "horizon.csv", horizon_aggregate(forecasts))
    log.info("wrote %s", out / "predictions.csv")


def cmd_evaluate(args) -> None:
    if unsafe := sorted(set(args.scenario or "") & set(',"\n\r<>&')):
        raise ConfigError(f"--scenario may not hold {unsafe}: it is written unquoted into "
                          "report.csv and as text into timeline.svg")
    cfg = build_run_config(args)
    cfg.validate(need_spans=False)
    days = load_records(cfg)
    forecasts = read_predictions_csv(args.predictions)
    rep = run_evaluation(days, forecasts, cfg.group, args.scenario or "", Path(cfg.out)).report
    log.info("group=%s cc=%.4f mae=%.4f", rep.group, rep.cc, rep.mae)


def run_study(cfg: RunConfig, variants: list[tuple[RunConfig, Path]]) -> list[Evaluation]:
    """Train each variant (its settings, its output directory) on its train
    span, forecast its test span and evaluate the forecasts into its
    directory, as the scenario named after the directory: the step of each
    ablation variant and each horizon of the horizon study. cfg's dataset,
    loaded once, serves them all. Every variant's settings, training windows
    and test anchors are checked before the first one trains, and each
    trains on the windows built for that check. A variant whose scored days
    (scored_rows of its forecasts' dates) run_evaluation could not score or
    chart, because their actual counts are constant or they hold fewer than
    4 distinct temperatures or humidities for the cubic fits, is a
    DataError."""
    for vcfg, _ in variants:
        vcfg.validate()
    days = load_records(cfg)
    windows = []
    for vcfg, out_dir in variants:
        windows.append(train_windows(vcfg, days))
        first, last = anchor_rows(days, vcfg.lookback, vcfg.test_start, vcfg.test_end)
        rows = scored_rows(days, vcfg.test_start, last - first + vcfg.horizon)
        actual = days.counts[vcfg.group][rows]
        if actual.min() == actual.max() or min(np.unique(days.tmax[rows]).size,
                                               np.unique(days.humidity[rows]).size) < 4:
            raise DataError(
                f"{out_dir.name}: {rows.stop - rows.start} scored test day(s) cannot be scored; "
                "scoring needs actual counts that are not all equal and at least 4 distinct "
                "temperatures and humidities"
            )
    evaluations = []
    for (vcfg, out_dir), train_set in zip(variants, windows):
        model, scaler, _ = run_training(vcfg, train_set)
        forecasts = run_forecast(model, scaler, days, vcfg, vcfg.test_start, vcfg.test_end)
        ev = run_evaluation(days, forecasts, vcfg.group, out_dir.name, out_dir)
        log.info("%-16s cc=%.4f mae=%.4f", out_dir.name, ev.report.cc, ev.report.mae)
        evaluations.append(ev)
    return evaluations


def cmd_ablate(args) -> None:
    """Train one variant per excluded feature and score each on the test span."""
    cfg = build_run_config(args)
    if set(cfg.features) != set(data_mod.FEATURE_ORDER):
        raise ConfigError("ablation requires all four features to be available")
    out = Path(cfg.out)
    evaluations = run_study(cfg, [
        (replace(cfg, features=tuple(f for f in cfg.features if f != excluded)), out / "ablate" / name)
        for name, excluded in ABLATION_VARIANTS
    ])
    write_table(out / "ablation_report.csv", ["variant", "cc", "mae", "mae_skipped"],
                ([ev.report.scenario, ev.report.cc, ev.report.mae, ev.report.mae_skipped]
                 for ev in evaluations))
    write_table(out / "ablation_box.csv", ["variant", "min", "q1", "median", "q3", "max"],
                ([ev.report.scenario, *np.percentile(relative_errors(ev.actual, ev.estimate)[0],
                                                     [0, 25, 50, 75, 100])]
                 for ev in evaluations))


def cmd_horizon(args) -> None:
    """Train and score one model per horizon K on the test span."""
    cfg = build_run_config(args)
    try:
        horizons = DEFAULT_HORIZONS if args.horizons is None else [
            _CHECKS["horizon"](int(v), "horizon") for v in args.horizons.split(",")]
    except ValueError:
        raise ConfigError(f"--horizons takes integers such as 3,7,14; got {args.horizons!r}") from None
    if len(set(horizons)) < len(horizons):
        raise ConfigError(f"horizons repeat in {args.horizons!r}")
    out = Path(cfg.out)
    evaluations = run_study(cfg, [(replace(cfg, horizon=k), out / f"horizon_{k}") for k in horizons])
    for k, ev in zip(horizons, evaluations):
        write_horizon_csv(out / f"horizon_K{k}.csv", ev.agg)
        n = len(ev.actual)
        atomic_write_text(out / f"horizon_K{k}.svg", report_mod.render_band_chart(
            ev.agg.start, ev.actual, ev.estimate, ev.agg.min[:n], ev.agg.max[:n],
            f"{k}-day-ahead forecasts (mean with min/max band)",
        ))
    write_table(out / "horizon_report.csv", ["horizon", "cc", "mae"],
                ([k, ev.report.cc, ev.report.mae] for k, ev in zip(horizons, evaluations)))


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit code 1 for usage errors
        raise ConfigError(message)


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="YAML config file; flags override file values")
    for f in fields(RunConfig):
        flag = f.metadata["flag"]
        if flag is not None:
            p.add_argument("--" + _flag_dest(f).replace("_", "-"), **flag)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="eadforecast", description=__doc__)
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", type=Path)
    p.add_argument("--seed", type=int)
    p.add_argument("--start")
    p.add_argument("--end")
    p.add_argument("--base-rate", dest="base_rate", type=float)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train a model and write a checkpoint")
    _add_common(p)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("forecast", help="predict K-day dispatch counts per anchor day")
    _add_common(p)
    p.add_argument("--checkpoint", required=True, type=Path)
    p.add_argument("--start")
    p.add_argument("--end")
    p.set_defaults(func=cmd_forecast)

    p = sub.add_parser("evaluate", help="score predictions against actuals")
    _add_common(p)
    p.add_argument("--predictions", required=True, type=Path)
    p.add_argument("--scenario", default="")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("ablate", help="retrain with single-feature exclusions")
    _add_common(p)
    p.set_defaults(func=cmd_ablate)

    p = sub.add_parser("horizon", help="train and score multiple forecast horizons")
    _add_common(p)
    p.add_argument("--horizons", help="comma-separated K list (default 3,7,14,28)")
    p.set_defaults(func=cmd_horizon)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        logging.basicConfig(
            level=logging.DEBUG if getattr(args, "verbose", False) else logging.INFO,
            format="%(levelname)s %(message)s",
            stream=sys.stderr,
        )
        # Every command runs on one BLAS thread, so that no output depends on
        # the installed thread count.
        with lstm_mod.single_blas_thread():
            args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    return 0


def cli_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    cli_entry()
