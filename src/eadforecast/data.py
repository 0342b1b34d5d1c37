"""Dataset ingestion and preparation.

Handles the four on-disk formats (weather.csv, ead.csv, mobility.csv,
holidays.txt), merges them into a gap-free daily record list, fills sparse
mobility coverage, slices lookback windows, and generates desk-scale
synthetic datasets with a known ground truth.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

GROUPS = ("all", "children", "adult", "elderly", "outdoor", "indoor")
FEATURE_ORDER = ("temperature", "humidity", "day_label", "mobility")


@dataclass
class DailyRecord:
    """One calendar day of fused covariates and dispatch counts."""

    date: dt.date
    tmax: float
    humidity: float
    day_label: int  # 1 = working day, 0 = weekend or holiday
    ead: dict[str, int]
    mobility: float | None = None  # percent of baseline; None until filled


@dataclass(frozen=True)
class FeatureMask:
    temperature: bool = True
    humidity: bool = True
    day_label: bool = True
    mobility: bool = True

    def columns(self) -> tuple[str, ...]:
        cols = tuple(name for name in FEATURE_ORDER if getattr(self, name))
        if not cols:
            raise ConfigError("feature mask must enable at least one feature")
        return cols

    @classmethod
    def from_names(cls, names) -> "FeatureMask":
        names = list(names)
        unknown = [n for n in names if n not in FEATURE_ORDER]
        if unknown:
            raise ConfigError(f"unknown feature(s) {unknown}; valid: {list(FEATURE_ORDER)}")
        if not names:
            raise ConfigError("feature mask must enable at least one feature")
        if len(set(names)) < len(names):
            raise ConfigError(f"feature names repeat in {names}")
        return cls(**{name: name in names for name in FEATURE_ORDER})


# ---------------------------------------------------------------------------
# CSV loaders
# ---------------------------------------------------------------------------


def _parse_date(text: str, path: Path, line_no: int) -> dt.date:
    try:
        return dt.date.fromisoformat(text.strip())
    except ValueError as exc:
        raise DataError(f"{path}:{line_no}: bad date {text!r}: {exc}") from None


def _number(cell: str, kind, path: Path, line_no: int, what: str):
    """kind(cell), kind being float or int, or a DataError. Python reads
    more numerals than a CSV file should hold: the digit-group underscores
    of 1_0 and non-ASCII digits such as full-width ５０ are refused too."""
    if "_" not in cell and cell.isascii():
        try:
            return kind(cell)
        except ValueError:
            pass
    raise DataError(f"{path}:{line_no}: bad {what} {cell!r}")


def _open_rows(path: Path, expected_header: list[str]):
    path = Path(path)
    if not path.exists():
        raise DataError(f"input file not found: {path}")
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from None
        if [h.strip() for h in header] != expected_header:
            raise DataError(
                f"{path}: bad header {header}; expected {expected_header}"
            )
        try:
            yield from ((line_no, row) for line_no, row in enumerate(reader, start=2))
        except UnicodeDecodeError as exc:
            raise DataError(f"{path}: {exc}") from None


def load_weather_csv(path) -> dict[dt.date, tuple[float, float]]:
    """date -> (tmax_c, humidity_pct)."""
    path = Path(path)
    out: dict[dt.date, tuple[float, float]] = {}
    for line_no, row in _open_rows(path, ["date", "tmax_c", "humidity_pct"]):
        if len(row) != 3:
            raise DataError(f"{path}:{line_no}: expected 3 fields, got {len(row)}")
        day = _parse_date(row[0], path, line_no)
        tmax = _number(row[1], float, path, line_no, "tmax_c")
        humidity = _number(row[2], float, path, line_no, "humidity_pct")
        if not (math.isfinite(tmax) and math.isfinite(humidity)):
            raise DataError(f"{path}:{line_no}: non-finite value")
        if not 0.0 <= humidity <= 100.0:
            raise DataError(f"{path}:{line_no}: humidity {humidity} outside [0, 100]")
        if day in out:
            raise DataError(f"{path}:{line_no}: duplicate date {day.isoformat()}")
        out[day] = (tmax, humidity)
    if not out:
        raise DataError(f"{path}: no data rows")
    return out


def load_ead_csv(path) -> dict[dt.date, dict[str, int]]:
    """date -> group counts for all six groups."""
    path = Path(path)
    header = ["date"] + list(GROUPS)
    out: dict[dt.date, dict[str, int]] = {}
    for line_no, row in _open_rows(path, header):
        if len(row) != len(header):
            raise DataError(f"{path}:{line_no}: expected {len(header)} fields, got {len(row)}")
        day = _parse_date(row[0], path, line_no)
        counts: dict[str, int] = {}
        for name, cell in zip(GROUPS, row[1:]):
            value = _number(cell, int, path, line_no, f"count for {name}")
            if value < 0:
                raise DataError(f"{path}:{line_no}: negative count for {name}")
            counts[name] = value
        if day in out:
            raise DataError(f"{path}:{line_no}: duplicate date {day.isoformat()}")
        out[day] = counts
    if not out:
        raise DataError(f"{path}: no data rows")
    return out


def load_mobility_csv(path) -> dict[dt.date, float]:
    """Sparse date -> mobility percent; missing dates are allowed."""
    path = Path(path)
    out: dict[dt.date, float] = {}
    for line_no, row in _open_rows(path, ["date", "mobility_pct"]):
        if len(row) != 2:
            raise DataError(f"{path}:{line_no}: expected 2 fields, got {len(row)}")
        day = _parse_date(row[0], path, line_no)
        value = _number(row[1], float, path, line_no, "mobility_pct")
        if not math.isfinite(value) or value <= 0.0:
            raise DataError(f"{path}:{line_no}: mobility must be a positive number")
        if day in out:
            raise DataError(f"{path}:{line_no}: duplicate date {day.isoformat()}")
        out[day] = value
    return out


def load_holidays(path) -> set[dt.date]:
    """One ISO date per line; '#' starts a comment."""
    path = Path(path)
    if not path.exists():
        raise DataError(f"holiday file not found: {path}")
    try:
        text = path.read_text()
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    out: set[dt.date] = set()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        text = raw.split("#", 1)[0].strip()
        if not text:
            continue
        out.add(_parse_date(text, path, line_no))
    return out


def day_label(day: dt.date, holidays: set[dt.date]) -> int:
    """1 for a working day, 0 for a Saturday, a Sunday or a listed holiday."""
    return 0 if day.weekday() >= 5 or day in holidays else 1


def merge(
    weather: dict[dt.date, tuple[float, float]],
    ead: dict[dt.date, dict[str, int]],
    mobility: dict[dt.date, float] | None,
    holidays: set[dt.date],
) -> list[DailyRecord]:
    """Date-join the sources over the intersection span of weather and EAD.

    Every date in the intersection must be present in both; gaps are reported
    explicitly. Mobility stays sparse (None where unobserved) until
    fill_mobility completes it.
    """
    start = max(min(weather), min(ead))
    end = min(max(weather), max(ead))
    if start > end:
        raise DataError("weather and EAD files do not overlap in time")
    mobility = mobility or {}
    missing: list[str] = []
    records: list[DailyRecord] = []
    day, one_day = start, dt.timedelta(days=1)
    while day <= end:
        sky, counts = weather.get(day), ead.get(day)
        if sky is None or counts is None:
            gaps = [name for name, got in (("weather", sky), ("ead", counts)) if got is None]
            missing.append(f"{day.isoformat()} ({'/'.join(gaps)})")
        else:
            # The record takes the loader's count dict as it is, not a copy.
            tmax, humidity = sky
            records.append(DailyRecord(
                day, tmax, humidity, day_label(day, holidays), counts, mobility.get(day)))
        day += one_day
    if missing:
        shown = ", ".join(missing[:10])
        more = f" and {len(missing) - 10} more" if len(missing) > 10 else ""
        raise DataError(f"date gaps in the merged span: {shown}{more}")
    return records


# ---------------------------------------------------------------------------
# Mobility gap filling
# ---------------------------------------------------------------------------


def month_end(month: str) -> dt.date:
    """The last day of a YYYY-MM month; ValueError if month is not one."""
    year, number = (int(part) for part in month.split("-"))
    if number == 12:
        return dt.date(year, 12, 31)
    return dt.date(year, number + 1, 1) - dt.timedelta(days=1)


def fill_mobility(
    records: list[DailyRecord], baseline_month: str | None = None
) -> list[DailyRecord]:
    """Complete the sparse mobility series.

    Policy: every date up to the end of the baseline month that precedes the
    first observation is at baseline (100.0); the stretch from the baseline
    month's end to the first observation is linearly interpolated; interior
    gaps interpolate between their observed neighbors; trailing gaps hold the
    last observed value. Without a baseline month, leading gaps hold the
    first observation backward.
    """
    if not records:
        raise DataError("fill_mobility called with no records")
    anchors: list[tuple[dt.date, float]] = [
        (r.date, float(r.mobility)) for r in records if r.mobility is not None
    ]
    baseline_end: dt.date | None = None
    if baseline_month is not None:
        try:
            baseline_end = month_end(baseline_month)
        except ValueError:
            raise ConfigError(f"bad baseline month {baseline_month!r}; expected YYYY-MM") from None
    if not anchors:
        if baseline_end is None:
            raise DataError("no mobility observations and no baseline month configured")
        anchors = [(baseline_end, 100.0)]
    elif baseline_end is not None and anchors[0][0] > baseline_end:
        anchors.insert(0, (baseline_end, 100.0))

    def value_at(day: dt.date) -> float:
        if day <= anchors[0][0]:
            # Leading region: baseline if configured, else hold backward.
            if baseline_end is not None and day <= baseline_end:
                return 100.0
            return anchors[0][1]
        for (d0, v0), (d1, v1) in zip(anchors, anchors[1:]):
            if d0 < day <= d1:
                frac = (day - d0).days / (d1 - d0).days
                return v0 + (v1 - v0) * frac
        return anchors[-1][1]  # trailing hold

    # Observed days keep their records; a filled day gets a new one.
    filled = []
    for r in records:
        if r.mobility is None:
            r = DailyRecord(r.date, r.tmax, r.humidity, r.day_label, r.ead, value_at(r.date))
        if r.mobility <= 0:
            raise DataError(f"{r.date.isoformat()}: filled mobility is not positive")
        filled.append(r)
    return filled


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------


def feature_matrix(records: list[DailyRecord], mask: FeatureMask) -> np.ndarray:
    """Per-day feature rows in canonical column order filtered by mask."""
    cols = mask.columns()
    rows = np.empty((len(records), len(cols)))
    for j, name in enumerate(cols):
        if name == "temperature":
            rows[:, j] = [r.tmax for r in records]
        elif name == "humidity":
            rows[:, j] = [r.humidity for r in records]
        elif name == "day_label":
            rows[:, j] = [r.day_label for r in records]
        else:
            values = [r.mobility for r in records]
            if any(v is None for v in values):
                raise DataError("mobility feature requested but series has gaps; run fill_mobility")
            rows[:, j] = values
    return rows


def window_rows(anchor_rows, L: int) -> np.ndarray:
    """(N, L) indices of the L days before each anchor row: indexing a
    (days, F) feature matrix with them gathers the (N, L, F) windows."""
    return np.asarray(anchor_rows)[:, None] + np.arange(-L, 0)


def make_windows(
    records: list[DailyRecord], L: int, K: int, mask: FeatureMask, group: str = "all"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stride-1 lookback windows as (features, rows, targets): the (days, F)
    feature matrix, the (N, L) rows of each window's inputs (days [a-L, a-1]
    for anchor a) and the (N, K) group counts of days [a, a+K-1]."""
    if group not in GROUPS:
        raise ConfigError(f"unknown group {group!r}; valid: {list(GROUPS)}")
    if L < 1 or K < 1:
        raise ConfigError("lookback and horizon must be >= 1")
    n = len(records)
    if n < L + K:
        raise DataError(f"span of {n} days is too short for lookback {L} + horizon {K}")
    counts = np.array([r.ead[group] for r in records], dtype=np.float64)
    targets = np.lib.stride_tricks.sliding_window_view(counts[L:], K)
    return feature_matrix(records, mask), window_rows(np.arange(L, n - K + 1), L), targets


# ---------------------------------------------------------------------------
# Synthetic dataset generator
# ---------------------------------------------------------------------------


@dataclass
class SynthConfig:
    """Knobs for the synthetic desk-scale dataset.

    Daily dispatch intensity is a product of a temperature U-curve, a
    working-day factor, a mild humidity bump, and a monotone mobility factor
    normalized to 1 at the 100% baseline. Mobility sits near baseline with
    weekly/seasonal texture and rare disruption episodes until
    pandemic_start, collapses during the emergency window, then partially
    recovers.
    """

    start: dt.date = dt.date(2014, 4, 1)
    end: dt.date = dt.date(2020, 8, 19)
    base_rate: float = 180.0
    comfort_temp: float = 22.0
    temp_curvature: float = 0.0024  # per degC^2 around comfort_temp
    offday_factor: float = 0.93
    humidity_bump: float = 0.06
    humidity_center: float = 66.0
    humidity_width: float = 12.0
    mobility_gamma: float = 0.30  # dispatch ~ (mobility/100)^gamma
    temp_mean: float = 16.0
    temp_amplitude: float = 11.0
    temp_peak_doy: int = 218  # early August
    temp_ar: float = 0.88
    temp_noise: float = 0.8
    humidity_mean: float = 66.0
    humidity_amplitude: float = 12.0
    humidity_peak_doy: int = 170
    humidity_noise: float = 3.0
    pandemic_start: dt.date = dt.date(2020, 1, 15)
    soe_start: dt.date = dt.date(2020, 4, 18)
    soe_end: dt.date = dt.date(2020, 5, 25)
    soe_level: float = 0.38  # mobility multiplier during the emergency window
    pre_soe_level: float = 0.78  # reached just before the emergency window
    recovery_level: float = 0.80  # reached by `end`
    # Storm/closure-style disruptions in the pre-pandemic years, each
    # multiplying mobility by its depth (overlapping episodes compound). The
    # mix of short hits and multi-week episodes lets the count/mobility
    # response be observed across its whole range, including persistent
    # suppression (windows that sit entirely inside a long episode). A few a
    # year at most, so pre-pandemic mobility still averages near baseline
    # (above 90).
    events_per_year: tuple[int, int] = (1, 3)
    event_days: tuple[int, int] = (4, 28)
    event_depth: tuple[float, float] = (0.28, 0.80)
    age_fractions: tuple[float, float] = (0.08, 0.38)  # children, adult; elderly = rest
    outdoor_fraction: float = 0.16

    def validate(self) -> None:
        if self.start >= self.end:
            raise ConfigError("synthetic span must have start < end")
        if self.base_rate <= 0:
            raise ConfigError("base_rate must be positive")


# Fixed civic holiday calendar (month, day), applied every year.
HOLIDAY_RULES = (
    (1, 1), (1, 2), (1, 3), (5, 3), (5, 4), (5, 5),
    (8, 11), (9, 22), (11, 3), (11, 23), (12, 30), (12, 31),
)


@dataclass
class SynthResult:
    records: list[DailyRecord]
    holidays: set[dt.date]
    truth: dict = field(repr=False, default=None)


def _seasonal(doy: np.ndarray, mean: float, amp: float, peak: int) -> np.ndarray:
    return mean + amp * np.cos(2.0 * np.pi * (doy - peak) / 365.25)


def _dispatch_factors(cfg: SynthConfig, tmax, humidity, day_label, mobility):
    u = 1.0 + cfg.temp_curvature * (np.asarray(tmax) - cfg.comfort_temp) ** 2
    w = np.where(np.asarray(day_label) == 1, 1.0, cfg.offday_factor)
    h = 1.0 + cfg.humidity_bump * np.exp(
        -(((np.asarray(humidity) - cfg.humidity_center) / cfg.humidity_width) ** 2)
    )
    g = (np.asarray(mobility) / 100.0) ** cfg.mobility_gamma
    return u, w, h, g


def synth_generate(config: SynthConfig, seed: int = 0) -> SynthResult:
    """Generate a complete daily dataset plus its ground-truth intensity."""
    config.validate()
    dates = []
    day = config.start
    while day <= config.end:
        dates.append(day)
        day += dt.timedelta(days=1)
    n = len(dates)
    doy = np.array([d.timetuple().tm_yday for d in dates], dtype=np.float64)

    holidays = {
        dt.date(year, m, d)
        for year in range(config.start.year, config.end.year + 1)
        for (m, d) in HOLIDAY_RULES
        if config.start <= dt.date(year, m, d) <= config.end
    }
    labels = np.array([day_label(d, holidays) for d in dates], dtype=np.int64)

    rng = np.random.default_rng(seed)
    # Fixed draw order keeps the dataset reproducible per seed.
    temp_innov = rng.normal(0.0, config.temp_noise, size=n)
    hum_noise = rng.normal(0.0, config.humidity_noise, size=n)
    mob_innov = rng.normal(0.0, 1.2, size=n)
    count_noise = rng.normal(0.0, 1.0, size=n)

    # Temperature: seasonal cosine plus AR(1) anomaly.
    anomaly = np.empty(n)
    a = 0.0
    for t in range(n):
        a = config.temp_ar * a + temp_innov[t]
        anomaly[t] = a
    tmax = _seasonal(doy, config.temp_mean, config.temp_amplitude, config.temp_peak_doy) + anomaly

    humidity = np.clip(
        _seasonal(doy, config.humidity_mean, config.humidity_amplitude, config.humidity_peak_doy)
        + hum_noise,
        20.0,
        98.0,
    )

    # Mobility: weekly and seasonal texture around baseline, then the
    # pandemic suppression path.
    mob_noise = np.empty(n)
    a = 0.0
    for t in range(n):
        a = 0.7 * a + mob_innov[t]
        mob_noise[t] = a
    newyear_dist = np.minimum(np.abs(doy - 1.0), 365.25 - np.abs(doy - 1.0))
    texture = (
        100.0
        - 8.0 * (labels == 0)
        - 6.0 * np.exp(-0.5 * ((doy - 227.0) / 14.0) ** 2)
        - 7.0 * np.exp(-0.5 * (newyear_dist / 10.0) ** 2)
        + mob_noise
    )
    # Disruption episodes (pre-pandemic only; see SynthConfig.events_per_year);
    # dispatch follows through the mobility factor. Drawn after all other
    # noise, so their settings leave weather and the noise series unchanged.
    date_index = {d: t for t, d in enumerate(dates)}
    events = []
    for year in range(config.start.year, min(config.end.year, config.pandemic_start.year) + 1):
        for _ in range(int(rng.integers(config.events_per_year[0], config.events_per_year[1] + 1))):
            start_doy = int(rng.integers(1, 340))
            duration = int(rng.integers(config.event_days[0], config.event_days[1] + 1))
            depth = float(rng.uniform(*config.event_depth))
            try:
                first = dt.date(year, 1, 1) + dt.timedelta(days=start_doy - 1)
            except OverflowError:
                continue
            days = [first + dt.timedelta(days=j) for j in range(duration)]
            if any(d >= config.pandemic_start for d in days):
                continue
            hit = [date_index[d] for d in days if d in date_index]
            if hit:
                texture[hit] *= depth
                events.append([days[0].isoformat(), duration, depth])
    suppression = np.ones(n)
    for t, d in enumerate(dates):
        if d < config.pandemic_start:
            continue
        if d < config.soe_start:
            span = (config.soe_start - config.pandemic_start).days
            frac = (d - config.pandemic_start).days / span
            suppression[t] = 1.0 + (config.pre_soe_level - 1.0) * frac
        elif d <= config.soe_end:
            suppression[t] = config.soe_level
        else:
            span = max((config.end - config.soe_end).days, 1)
            frac = (d - config.soe_end).days / span
            level = config.soe_level + (config.recovery_level - config.soe_level) * min(frac * 2.0, 1.0)
            suppression[t] = level
    mobility = np.maximum(texture * suppression, 12.0)

    u, w, h, g = _dispatch_factors(config, tmax, humidity, labels, mobility)
    lam = config.base_rate * u * w * h * g
    counts_all = np.maximum(np.rint(lam + count_noise * np.sqrt(lam)), 0.0).astype(np.int64)

    child_frac, adult_frac = config.age_fractions
    records = []
    for t, d in enumerate(dates):
        total = int(counts_all[t])
        children = int(round(child_frac * total))
        adult = int(round(adult_frac * total))
        elderly = total - children - adult
        outdoor = int(round(config.outdoor_fraction * total))
        indoor = total - outdoor
        ead = {
            "all": total, "children": children, "adult": adult,
            "elderly": elderly, "outdoor": outdoor, "indoor": indoor,
        }
        if elderly < 0 or indoor < 0:
            raise ConfigError("group fractions produce negative counts")
        records.append(
            DailyRecord(
                date=d, tmax=float(tmax[t]), humidity=float(humidity[t]),
                day_label=int(labels[t]), ead=ead, mobility=float(mobility[t]),
            )
        )

    truth = {
        "seed": seed,
        "base_rate": config.base_rate,
        "comfort_temp": config.comfort_temp,
        "temp_curvature": config.temp_curvature,
        "offday_factor": config.offday_factor,
        "mobility_gamma": config.mobility_gamma,
        "age_fractions": list(config.age_fractions),
        "outdoor_fraction": config.outdoor_fraction,
        "events": events,
        "dates": [d.isoformat() for d in dates],
        "lambda_all": [float(v) for v in lam],
        "mobility": [float(v) for v in mobility],
    }
    return SynthResult(records=records, holidays=holidays, truth=truth)


# ---------------------------------------------------------------------------
# Dataset writers (formats mirrored by the loaders above)
# ---------------------------------------------------------------------------


def write_dataset(result: SynthResult, out_dir) -> dict[str, Path]:
    """Write weather/ead/mobility/holidays files plus the ground-truth JSON."""
    from .fileio import atomic_write_text

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "weather": out / "weather.csv",
        "ead": out / "ead.csv",
        "mobility": out / "mobility.csv",
        "holidays": out / "holidays.txt",
        "truth": out / "ground_truth.json",
    }
    weather_lines = ["date,tmax_c,humidity_pct"]
    ead_lines = ["date," + ",".join(GROUPS)]
    mobility_lines = ["date,mobility_pct"]
    for r in result.records:
        iso = r.date.isoformat()
        weather_lines.append(f"{iso},{r.tmax!r},{r.humidity!r}")
        ead_lines.append(iso + "," + ",".join(str(r.ead[g]) for g in GROUPS))
        if r.mobility is not None:
            mobility_lines.append(f"{iso},{r.mobility!r}")
    atomic_write_text(paths["weather"], "\n".join(weather_lines) + "\n")
    atomic_write_text(paths["ead"], "\n".join(ead_lines) + "\n")
    atomic_write_text(paths["mobility"], "\n".join(mobility_lines) + "\n")
    atomic_write_text(
        paths["holidays"],
        "\n".join(d.isoformat() for d in sorted(result.holidays)) + "\n",
    )
    atomic_write_text(paths["truth"], json.dumps(result.truth, indent=1, sort_keys=True) + "\n")
    return paths


def load_dataset(
    weather_path, ead_path, mobility_path=None, holidays_path=None
) -> list[DailyRecord]:
    """Load and merge the on-disk dataset; mobility stays sparse."""
    weather = load_weather_csv(weather_path)
    ead = load_ead_csv(ead_path)
    mobility = load_mobility_csv(mobility_path) if mobility_path else None
    holidays = load_holidays(holidays_path) if holidays_path else set()
    return merge(weather, ead, mobility, holidays)
