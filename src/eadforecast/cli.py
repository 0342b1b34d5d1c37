"""Command-line entry points.

Subcommands: synth, train, forecast, evaluate, ablate, horizon. Every
command is deterministic given (config, seed); reruns produce byte-identical
outputs. Configuration comes from an optional YAML file plus flag overrides
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
from .fileio import atomic_write_text
from .lstm import ModelSpec, init_params
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
# Anchors per forward pass in run_forecast. A chunk bounds the memory the
# forward pass keeps for its backward cache (all 2,319 anchors of the default
# dataset at once hold ~160 MB) and fixes the matrix shapes BLAS sees. The
# passes run on one pinned BLAS thread (lstm.single_blas_thread), so no chunk
# size splits a product over two threads, a forecast's speed does not hinge
# on a second free CPU, and predictions.csv is the same under any installed
# thread count. On the default dataset, 32 anchors ran ~2x the anchors/s of 6
# at the same peak RSS (57.0 vs 56.8 MB in a forecast+evaluate process); 64
# were ~10% faster again but peaked at 59.6 MB.
FORECAST_CHUNK = 32


def _coerce_date(value, label: str) -> dt.date:
    if value is None or isinstance(value, dt.date):
        return value
    try:
        return dt.date.fromisoformat(str(value))
    except ValueError:
        raise ConfigError(f"bad date for {label}: {value!r}") from None


def _of_type(what: str, *kinds):
    """The check of a config-file value of one of these YAML types; type()
    rather than isinstance, because a YAML true is a bool and bool is a
    subclass of int."""
    def check(value, key):
        if type(value) not in kinds:
            raise ConfigError(f"{key} must be {what}, got {value!r}")
        return value
    return check


_INT, _BOOL, _STR = _of_type("an integer", int), _of_type("true or false", bool), _of_type("a string", str)


def _as_path(value, key) -> Path:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a path, got {value!r}")
    return Path(value)


def _as_features(value, key) -> tuple[str, ...]:
    """A feature list in the canonical order (data.FEATURE_ORDER), so that two
    orders of the same names make the same run; unknown, repeated or no names
    are refused."""
    if not (isinstance(value, list) and all(isinstance(f, str) for f in value)):
        raise ConfigError(f"{key} must be a list of names, got {value!r}")
    return data_mod.feature_names(value)


def _split_features(text: str, name) -> tuple[str, ...]:
    return _as_features([f.strip() for f in text.split(",") if f.strip()], name)


LOSS_ALIASES = {"squared_error": "mse", "cross_entropy": "xent", "normalized_cross_entropy": "xent"}


def _as_loss(value, key) -> str:
    value = _STR(value, key)
    return LOSS_ALIASES.get(value, value)


def _setting(value, key: str, check, *, parse=None, flag: bool = True, **kwargs):
    """A RunConfig field: its default value, its config-file key (dotted for
    an entry of a section), check(file_value, key) -> the field's value, and
    unless flag is False the add_argument keywords of its flag (see
    _flag_dest; parse(text, name) converts a flag argparse leaves as text)."""
    return field(default=value, metadata={
        "key": key, "check": check, "parse": parse, "flag": kwargs if flag else None})


def _flag_dest(f) -> str:
    """A setting's flag is named after its key, or after the field for a key
    in a section (train.start: --train-start)."""
    return f.name if "." in f.metadata["key"] else f.metadata["key"]


@dataclass
class RunConfig:
    """A run's settings (see _setting), in the order of their flags in
    --help. The config file, the flags and the run digest read this table."""

    weather: Path = _setting(None, "data.weather", _as_path, type=Path)
    ead: Path = _setting(None, "data.ead", _as_path, type=Path)
    mobility: Path = _setting(None, "data.mobility", _as_path, type=Path)
    holidays: Path = _setting(None, "data.holidays", _as_path, type=Path)
    train_start: dt.date = _setting(None, "train.start", _coerce_date, parse=_coerce_date)
    train_end: dt.date = _setting(None, "train.end", _coerce_date, parse=_coerce_date)
    test_start: dt.date = _setting(None, "test.start", _coerce_date, parse=_coerce_date)
    test_end: dt.date = _setting(None, "test.end", _coerce_date, parse=_coerce_date)
    seed: int = _setting(0, "training.seed", _INT, type=int)
    out: Path = _setting(Path("out"), "out", _as_path, type=Path)
    group: str = _setting("all", "group", _STR, choices=data_mod.GROUPS)
    lookback: int = _setting(14, "lookback", _INT, type=int)
    horizon: int = _setting(1, "horizon", _INT, type=int)
    features: tuple[str, ...] = _setting(data_mod.FEATURE_ORDER, "features", _as_features,
                                         parse=_split_features, help="comma-separated feature list")
    loss: str = _setting("mse", "training.loss", _as_loss, choices=("mse", "xent"))
    init: str = _setting("uniform", "init", _STR, choices=("zeros", "uniform"))
    epochs: int = _setting(500, "training.epochs", _INT, type=int)
    batch_size: int = _setting(8, "training.batch_size", _INT, type=int)
    lr: float = _setting(1e-3, "training.lr", _of_type("a number", int, float), type=float)
    # default=None: an absent flag must not override a config file's true.
    lagged_m: bool = _setting(False, "eq5_lagged_m", _BOOL, action="store_true", default=None,
                              help="use the lagged candidate-vector cell update variant")
    shuffle: bool = _setting(True, "training.shuffle", _BOOL, flag=False)
    baseline_month: str = _setting("2020-01", "baseline_month",
                                   _of_type("a YYYY-MM string", str), flag=False)

    def validate(self, need_spans: bool = True) -> None:
        for name in ("weather", "ead", "holidays"):
            path = getattr(self, name)
            if path is None:
                raise ConfigError(f"missing required data path: {name}")
            if not Path(path).exists():
                raise ConfigError(f"{name} file does not exist: {path}")
        if "mobility" in self.features:
            if self.mobility is None or not Path(self.mobility).exists():
                raise ConfigError("mobility feature enabled but mobility file is missing")
        if need_spans:
            for name in ("train_start", "train_end", "test_start", "test_end"):
                if getattr(self, name) is None:
                    raise ConfigError(f"missing required span field: {name}")
            if not (self.train_start <= self.train_end < self.test_start <= self.test_end):
                raise ConfigError("train span must precede and not overlap the test span")
        if self.group not in data_mod.GROUPS:
            raise ConfigError(f"unknown group {self.group!r}; valid: {list(data_mod.GROUPS)}")
        if self.lookback < 1 or self.horizon < 1:
            raise ConfigError("lookback and horizon must be >= 1")

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


def load_config_file(path) -> dict:
    """The config file's values by RunConfig key, dotted for an entry of a
    section. A key that is no setting's, or a section that is not a mapping,
    is refused."""
    path = Path(path)
    if not path.exists():
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
        key, flag = f.metadata["key"], f.metadata["flag"]
        if key in values:
            value = f.metadata["check"](values[key], key)
            setattr(cfg, f.name, Path(config).parent / value if isinstance(value, Path) else value)
        value = None if flag is None else getattr(args, _flag_dest(f), None)
        if value is not None:
            setattr(cfg, f.name, f.metadata["parse"](value, f.name) if f.metadata["parse"] else value)
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


def run_training(cfg: RunConfig, days) -> tuple[object, object, list[float]]:
    """Fit the scaler on training windows only, then train the network."""
    windows = data_mod.make_windows(
        _slice_records(days, cfg.train_start, cfg.train_end),
        cfg.lookback, cfg.horizon, cfg.features, cfg.group,
    )
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


def run_forecast(model, scaler, days, cfg: RunConfig, start: dt.date, end: dt.date) -> Forecasts:
    """The K-day predictions, on the count scale, made at each anchor day
    from start to end.

    An anchor is the first predicted day; its window covers the L preceding
    days, which must all be in the day table. Anchors go through the
    network FORECAST_CHUNK at a time on one BLAS thread, through one
    workspace.
    """
    if start > end:
        raise ConfigError("forecast span is empty")
    first, last = days.offset(start), days.offset(end)
    if first < cfg.lookback or last >= len(days):
        # The first anchor short of history, or the first past the last day.
        day = days.date(first if first < cfg.lookback else max(first, len(days)))
        raise DataError(
            f"not enough history before {day.isoformat()}: "
            f"need {cfg.lookback} prior days in the dataset"
        )
    # Scaled once and gathered by row, as training's apply_scaler does.
    features = scaler.transform_features(data_mod.feature_matrix(days, cfg.features))
    window_rows = data_mod.window_rows(np.arange(first, last + 1), cfg.lookback)
    n = last - first + 1
    y = np.empty((n, model.horizon))
    # Full chunks, then the tail one anchor at a time, so that whatever the
    # span length only two batch shapes (FORECAST_CHUNK and 1) reach BLAS.
    n_full = n - n % FORECAST_CHUNK
    starts = [*range(0, n_full, FORECAST_CHUNK), *range(n_full, n)]
    ws = lstm_mod.Workspace(model, FORECAST_CHUNK, cfg.lookback)
    with lstm_mod.single_blas_thread():
        for lo, hi in zip(starts, [*starts[1:], n]):
            y[lo:hi], _ = lstm_mod.forward_batch(model, features[window_rows[lo:hi]], ws)
    return Forecasts(start, scaler.invert_target(y))


PREDICTIONS_HEADER = "anchor_date,step,target_date,value"
# Lines of predictions.csv per block, rounded down to whole anchors (one at
# least), that write_predictions_csv formats and read_predictions_csv checks
# at a time. Blocks keep the per-line temporaries small beside the file's
# text: writing 2,319 anchors at K=28 (the default dataset's forecast_k28
# span) peaked at 13.7 MB of Python allocations (tracemalloc) when formatted
# whole and at 9.2 MB in blocks.
PREDICTIONS_BLOCK = 1 << 13


def _prediction_columns(first: dt.date, a0: int, a1: int, k: int) -> tuple[list, list, list]:
    """The anchor, step and target columns of the lines of anchors a0..a1-1,
    anchor a being the day first + a: K lines per anchor, steps 1..K, the
    target anchor + step - 1. Each date is formatted once."""
    iso = [(first + dt.timedelta(days=d)).isoformat() for d in range(a0, a1 + k - 1)]
    anchors = [*chain.from_iterable(map(repeat, iso[: a1 - a0], repeat(k)))]
    targets = [*chain.from_iterable(iso[a : a + k] for a in range(a1 - a0))]
    return anchors, [str(step) for step in range(1, k + 1)] * (a1 - a0), targets


def write_predictions_csv(path, forecasts: Forecasts) -> None:
    """One line per anchor and step, `anchor_date,step,target_date,value`,
    the value as repr(float)."""
    n, k = forecasts.values.shape
    size = max(1, PREDICTIONS_BLOCK // k)  # anchors per block
    comma, newline = repeat(","), repeat("\n")
    blocks = [PREDICTIONS_HEADER + "\n"]
    for a0 in range(0, n, size):
        anchors, steps, targets = _prediction_columns(forecasts.start, a0, min(a0 + size, n), k)
        values = [*map(repr, forecasts.values[a0 : a0 + size].ravel().tolist())]
        lines = zip(anchors, comma, steps, comma, targets, comma, values, newline)
        blocks.append("".join(chain.from_iterable(lines)))
    atomic_write_text(path, "".join(blocks))


def read_predictions_csv(path) -> Forecasts:
    """Forecasts as written by write_predictions_csv.

    The rows must come in written order: K rows per anchor with steps 1..K
    and target date anchor + step - 1, K taken from the first anchor, and
    each anchor the day after the one before. The first line that departs
    from it, or has a value that is not a number, is a DataError that names
    it; so is a file with no rows, or one that is not UTF-8 text. The file
    is read in blocks of whole anchors, each checked against the columns
    the writer joins (_prediction_columns).
    """
    path = Path(path)
    if not path.exists():
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
        fields = ",".join(block).split(",")
        columns = _prediction_columns(first, row // k, (row + n + k - 1) // k, k)
        columns = [column[:n] for column in columns]
        if not (len(fields) == 4 * n and all(fields[i::4] == col for i, col in enumerate(columns))):
            _refuse_prediction_lines(path, block, row, first, k, columns)
        try:
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
        try:
            float(fields[3])
        except ValueError as exc:
            raise DataError(f"{where}: {exc}") from None
    raise AssertionError("a refused block has no bad line")


def write_horizon_csv(path, agg) -> None:
    lines = ["date,mean,min,max,count"]
    for i, day in enumerate(agg.dates):
        lines.append(
            f"{day.isoformat()},{float(agg.mean[i])!r},{float(agg.min[i])!r},"
            f"{float(agg.max[i])!r},{int(agg.count[i])}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def write_history_csv(path, history) -> None:
    lines = ["epoch,loss"] + [f"{i + 1},{loss!r}" for i, loss in enumerate(history)]
    atomic_write_text(path, "\n".join(lines) + "\n")


@dataclass
class Evaluation:
    """What run_evaluation scored: the per-date aggregate of the forecasts,
    and the dates that have actuals (the first len(dates) of agg.dates) with
    their actual and estimated (aggregate mean) counts."""

    report: EvalReport
    agg: HorizonSeries
    dates: list[dt.date]
    actual: np.ndarray
    estimate: np.ndarray


def run_evaluation(days, forecasts: Forecasts, group: str, scenario: str, out_dir: Path) -> Evaluation:
    """Aggregate forecasts per date, compare with actuals, emit report + charts.
    Dates after the table's last day are left out; dates before its first
    day are a DataError."""
    agg = horizon_aggregate(forecasts)
    # agg.dates are consecutive: those with actuals are positions lo..hi-1.
    first = days.offset(agg.dates[0])
    lo, hi = max(-first, 0), min(len(days) - first, len(agg.dates))
    if lo >= hi:
        raise DataError("predictions and dataset do not overlap in time")
    if lo:
        shown = ", ".join(d.isoformat() for d in agg.dates[: min(lo, 10)])
        raise DataError(f"dates in predictions have no matching actuals: {shown}")

    rows = slice(first, first + hi)
    actual_dates = agg.dates[:hi]
    est = agg.mean[:hi]
    act = days.counts[group][rows]
    rep = evaluate_series(act, est, group=group, scenario=scenario)

    out_dir.mkdir(parents=True, exist_ok=True)
    report_mod.write_report_csv(out_dir / "report.csv", [rep])
    copy_reference_metrics(out_dir / "reference_metrics.csv")
    report_mod.render_line_chart(
        out_dir / "timeline.svg", actual_dates,
        {"actual": act, "estimated": est},
        f"Daily dispatch counts ({group}, {scenario})" if scenario else f"Daily dispatch counts ({group})",
    )
    report_mod.render_scatter_fit(
        out_dir / "fit_temperature.svg", days.tmax[rows],
        {"actual": act, "estimated": est},
        "Dispatch counts vs daily maximum temperature", "max temperature (degC)",
    )
    report_mod.render_scatter_fit(
        out_dir / "fit_humidity.svg", days.humidity[rows],
        {"actual": act, "estimated": est},
        "Dispatch counts vs daily average humidity", "relative humidity (%)",
    )
    return Evaluation(rep, agg, actual_dates, act, est)


def copy_reference_metrics(dest: Path) -> None:
    text = (
        importlib.resources.files("eadforecast")
        .joinpath("reference_metrics.csv")
        .read_text(encoding="utf-8")
    )
    atomic_write_text(dest, text)


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
    result = data_mod.synth_generate(cfg, seed=args.seed if args.seed is not None else 0)
    paths = data_mod.write_dataset(result, args.out or "out")
    log.info("wrote synthetic dataset: %s", ", ".join(str(p) for p in paths.values()))


def cmd_train(args) -> None:
    cfg = build_run_config(args)
    cfg.validate()
    days = load_records(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    model, scaler, history = run_training(cfg, days)
    write_history_csv(out / "loss_history.csv", history)
    meta = {name: getattr(cfg, name) for name in (*CHECKPOINT_SETTINGS, "seed", "loss", "init")}
    meta["train_span"] = [cfg.train_start.isoformat(), cfg.train_end.isoformat()]
    meta["run_digest"] = ckpt_io.config_digest(cfg.digest_payload())
    ckpt_io.save_checkpoint(out / "checkpoint.bin", model, scaler, meta)
    log.info("checkpoint written to %s", out / "checkpoint.bin")


def checkpoint_settings(ckpt, path) -> dict:
    """The settings ckpt fixes, by RunConfig field: those of
    CHECKPOINT_SETTINGS its meta records (group "all" when it records none)
    and the model's horizon. A meta that does not record them as train
    writes them is a DataError."""
    fixed = {"group": "all", **{k: ckpt.meta[k] for k in CHECKPOINT_SETTINGS if k in ckpt.meta}}
    try:
        fixed["features"] = _as_features(fixed.get("features"), "features")
        if "baseline_month" in fixed:
            data_mod.month_end(_STR(fixed["baseline_month"], "baseline_month"))
        valid = (len(fixed["features"]) == ckpt.model.input_dim
                 and type(fixed.get("lookback")) is int and fixed["lookback"] >= 1
                 and fixed["group"] in data_mod.GROUPS)
    except (ConfigError, ValueError):
        valid = False
    if not valid:
        raise DataError(f"{path}: the checkpoint meta must record its features (one "
                        "known name per input) and lookback (an integer >= 1); a group must be "
                        "a known one and a baseline month a YYYY-MM string")
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
    out.mkdir(parents=True, exist_ok=True)
    write_predictions_csv(out / "predictions.csv", forecasts)
    write_horizon_csv(out / "horizon.csv", horizon_aggregate(forecasts))
    log.info("wrote %s", out / "predictions.csv")


def cmd_evaluate(args) -> None:
    cfg = build_run_config(args)
    cfg.validate(need_spans=False)
    days = load_records(cfg)
    forecasts = read_predictions_csv(args.predictions)
    rep = run_evaluation(days, forecasts, cfg.group, args.scenario or "", Path(cfg.out)).report
    log.info("group=%s cc=%.4f mae=%.4f", rep.group, rep.cc, rep.mae)


def run_variant(cfg: RunConfig, days, scenario: str, out_dir: Path) -> Evaluation:
    """Train on cfg's train span, forecast its test span and evaluate the
    forecasts into out_dir: the step each ablation variant and each horizon
    of the horizon study runs."""
    model, scaler, _ = run_training(cfg, days)
    forecasts = run_forecast(model, scaler, days, cfg, cfg.test_start, cfg.test_end)
    ev = run_evaluation(days, forecasts, cfg.group, scenario, out_dir)
    log.info("%-16s cc=%.4f mae=%.4f", scenario, ev.report.cc, ev.report.mae)
    return ev


def run_ablation(cfg: RunConfig):
    """Train one variant per excluded feature and score each on the test span."""
    if set(cfg.features) != set(data_mod.FEATURE_ORDER):
        raise ConfigError("ablation requires all four features to be available")
    days = load_records(cfg)
    results = []
    for name, excluded in ABLATION_VARIANTS:
        vcfg = replace(cfg, features=tuple(f for f in cfg.features if f != excluded))
        ev = run_variant(vcfg, days, name, Path(cfg.out) / "ablate" / name)
        results.append((name, ev.report, relative_errors(ev.actual, ev.estimate)[0]))
    return results


def cmd_ablate(args) -> None:
    cfg = build_run_config(args)
    cfg.validate()
    results = run_ablation(cfg)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["variant,cc,mae,mae_skipped"]
    box_lines = ["variant,min,q1,median,q3,max"]
    for name, rep, errors in results:
        lines.append(f"{name},{rep.cc!r},{rep.mae!r},{rep.mae_skipped}")
        q = np.percentile(errors, [0, 25, 50, 75, 100])
        box_lines.append(name + "," + ",".join(repr(float(v)) for v in q))
    atomic_write_text(out / "ablation_report.csv", "\n".join(lines) + "\n")
    atomic_write_text(out / "ablation_box.csv", "\n".join(box_lines) + "\n")


def run_horizon_study(cfg: RunConfig, horizons):
    """Train and score one model per horizon K on the test span."""
    days = load_records(cfg)
    return [
        (int(k), run_variant(replace(cfg, horizon=int(k)), days, f"horizon_{k}",
                             Path(cfg.out) / f"horizon_{k}"))
        for k in horizons
    ]


def cmd_horizon(args) -> None:
    cfg = build_run_config(args)
    cfg.validate()
    try:
        horizons = DEFAULT_HORIZONS if args.horizons is None else [
            int(v) for v in args.horizons.split(",")]
    except ValueError:
        raise ConfigError(f"--horizons takes integers such as 3,7,14; got {args.horizons!r}") from None
    if len(set(horizons)) < len(horizons):
        raise ConfigError(f"horizons repeat in {args.horizons!r}")
    results = run_horizon_study(cfg, horizons)
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    lines = ["horizon,cc,mae"]
    for k, ev in results:
        lines.append(f"{k},{ev.report.cc!r},{ev.report.mae!r}")
        write_horizon_csv(out / f"horizon_K{k}.csv", ev.agg)
        report_mod.render_band_chart(
            out / f"horizon_K{k}.svg", ev.dates, ev.actual,
            ev.estimate, ev.agg.min[: len(ev.dates)], ev.agg.max[: len(ev.dates)],
            f"{k}-day-ahead forecasts (mean with min/max band)",
        )
    atomic_write_text(out / "horizon_report.csv", "\n".join(lines) + "\n")


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
