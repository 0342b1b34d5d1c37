"""Dataset ingestion and preparation.

Reads the four on-disk formats (weather.csv, ead.csv, mobility.csv,
holidays.txt) into one day table (`Days`): a first day and one array per
column, day i being start + i, so the days are consecutive by
construction and a gap in the sources is refused, never represented. The
three CSV files go through one reader, `read_dated_csv`, declared once
per file by a `DatedCsv`. `fill_mobility` completes the table's sparse
mobility column, `make_windows` slices lookback windows from it by day
offset, and `synth_generate` builds a desk-scale synthetic table with a
known ground truth.
"""

from __future__ import annotations

import csv
import datetime as dt
import json
import re
from dataclasses import dataclass, field, replace
from itertools import compress
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError
from .fileio import atomic_write_text, write_table

GROUPS = ("all", "children", "adult", "elderly", "outdoor", "indoor")
FEATURE_ORDER = ("temperature", "humidity", "day_label", "mobility")
MONTH = re.compile(r"(?!0000)[0-9]{4}-(0[1-9]|1[0-2])")  # a YYYY-MM month (two-digit month 01-12)
# Feature name -> the Days column it reads.
_FEATURE_COLUMNS = {"temperature": "tmax", "humidity": "humidity", "day_label": "day_label",
                   "mobility": "mobility"}


@dataclass(frozen=True, eq=False)
class Days:
    """Consecutive calendar days of fused covariates and dispatch counts,
    one float64 array per column; day i is start + i."""

    start: dt.date
    tmax: np.ndarray  # daily maximum temperature, degC
    humidity: np.ndarray  # daily average relative humidity, percent
    day_label: np.ndarray  # 1 = working day, 0 = weekend or holiday
    mobility: np.ndarray  # percent of baseline; NaN until fill_mobility
    counts: dict[str, np.ndarray]  # dispatch counts of each of GROUPS

    def __len__(self) -> int:
        return len(self.tmax)

    def date(self, i) -> dt.date:
        return self.start + dt.timedelta(days=int(i))

    def offset(self, day: dt.date) -> int:
        """The index day has, or would have, in the table."""
        return (day - self.start).days

    def between(self, first: dt.date, last: dt.date) -> "Days":
        """The table's days from first to last (none if it holds none)."""
        lo = max(self.offset(first), 0)
        cut = slice(lo, max(self.offset(last) + 1, lo))
        return Days(self.date(lo), self.tmax[cut], self.humidity[cut], self.day_label[cut],
                    self.mobility[cut], {g: c[cut] for g, c in self.counts.items()})


def feature_names(names) -> tuple[str, ...]:
    """The feature set named by names, in the canonical order FEATURE_ORDER;
    unknown, repeated or no names are a ConfigError."""
    names = list(names)
    unknown = [n for n in names if n not in FEATURE_ORDER]
    if unknown:
        raise ConfigError(f"unknown feature(s) {unknown}; valid: {list(FEATURE_ORDER)}")
    if not names:
        raise ConfigError("the feature list must name at least one feature")
    if len(set(names)) < len(names):
        raise ConfigError(f"feature names repeat in {names}")
    return tuple(name for name in FEATURE_ORDER if name in names)


# ---------------------------------------------------------------------------
# Input files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DatedCsv:
    """A date-keyed CSV input: a `date` column of ISO dates, one row per day
    in any order, then value columns whose cells are all of one kind, float
    or int (a count, 0 to 2**53, which float64 holds exactly). checks are
    the row checks in the order they apply, each (bad-row mask of the (rows,
    columns) values, message formatted with the row's values); label names
    a column in a message about one of its cells."""

    columns: tuple[str, ...]
    kind: type
    checks: tuple = ()
    label: str = "{}"

    @property
    def header(self) -> list[str]:
        return ["date", *self.columns]


WEATHER_CSV = DatedCsv(("tmax_c", "humidity_pct"), float, (
    (lambda v: ~np.isfinite(v).all(axis=1), "non-finite value"),
    (lambda v: ~((v[:, 1] >= 0.0) & (v[:, 1] <= 100.0)), "humidity {1} outside [0, 100]"),
))
EAD_CSV = DatedCsv(GROUPS, int, label="count for {}")
MOBILITY_CSV = DatedCsv(("mobility_pct",), float, (
    (lambda v: ~(np.isfinite(v) & (v > 0.0))[:, 0], "mobility must be a positive number"),
))


def cell_fault(cell: str, kind, what: str) -> str | None:
    """What is wrong with a value cell of a DatedCsv kind in the column named
    what, or None. Python reads more numerals than a CSV file should hold:
    the digit-group underscores of 1_0 and non-ASCII digits such as
    full-width ５０ are refused too."""
    try:
        value = kind(cell)
    except ValueError:
        value = None
    if value is None or "_" in cell or not cell.isascii():
        return f"bad {what} {cell!r}"
    if kind is int and value < 0:
        return f"negative {what}"
    if kind is int and value > 2**53:
        return f"{what} above 2**53"
    return None


def _read_rows(path: Path, header: list[str]) -> list[list[str]]:
    """The rows after the first, which must be header."""
    if not path.is_file():
        raise DataError(f"input file not found: {path}")
    try:
        with path.open(newline="") as fh:
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: {exc}") from None
    if not rows:
        raise DataError(f"{path}: empty file")
    if [h.strip() for h in rows[0]] != header:
        raise DataError(f"{path}: bad header {rows[0]}; expected {header}")
    return rows[1:]


def read_dated_csv(path, spec: DatedCsv) -> tuple[np.ndarray, np.ndarray]:
    """The rows of a spec file as their dates' day numbers (proleptic
    ordinals, in file order) and their values, a float64 (rows, columns)
    array. A malformed file is a DataError that names the line of its first
    faulty row, as a row-by-row reader would: within a row, its width and
    date are checked first, then its cells in order, then spec.checks, then
    whether its date repeats an earlier row's."""
    path = Path(path)
    rows = _read_rows(path, spec.header)
    cols, days, cells = len(spec.columns), [], []
    n, fault = len(rows), None  # the first faulty row (or the row count) and its fault
    for i, row in enumerate(rows):
        if len(row) != cols + 1:
            n, fault = i, f"expected {cols + 1} fields, got {len(row)}"
            break
        try:
            days.append(dt.date.fromisoformat(row[0].strip()).toordinal())
        except ValueError as exc:
            n, fault = i, f"bad date {row[0]!r}: {exc}"
            break
        cells += row[1:]
    # All cells at once; a fault is then found cell by cell.
    text = "".join(cells)
    try:
        if "_" in text or not text.isascii():
            raise ValueError
        values = list(map(spec.kind, cells))
        faulty = spec.kind is int and not 0 <= min(values, default=0) <= max(values, default=0) <= 2**53
    except ValueError:
        faulty = True
    if faulty:
        for i, cell in enumerate(cells):
            if found := cell_fault(cell, spec.kind, spec.label.format(spec.columns[i % cols])):
                n, fault = i // cols, found
                break
        values = list(map(spec.kind, cells[: n * cols]))
    values = np.array(values, dtype=np.float64).reshape(n, cols)
    bad = np.array([refused(values) for refused, _ in spec.checks], bool).reshape(len(spec.checks), n)
    if (bad_rows := np.flatnonzero(bad.any(axis=0))).size:
        n = bad_rows[0]
        fault = spec.checks[bad[:, n].argmax()][1].format(*values[n].tolist())
    days = np.array(days[:n], dtype=np.int64)
    order = np.argsort(days, kind="stable")
    repeats = order[1:][days[order[1:]] == days[order[:-1]]]
    if repeats.size:
        n = repeats.min()
        fault = f"duplicate date {dt.date.fromordinal(days[n]).isoformat()}"
    if fault is not None:
        raise DataError(f"{path}:{n + 2}: {fault}")
    return days, values


def load_holidays(path) -> set[dt.date]:
    """One ISO date per line; '#' starts a comment."""
    path = Path(path)
    if not path.is_file():
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
        try:
            out.add(dt.date.fromisoformat(text))
        except ValueError as exc:
            raise DataError(f"{path}:{line_no}: bad date {text!r}: {exc}") from None
    return out


def _day_range(start: dt.date, n: int) -> np.ndarray:
    """The n days from start as datetime64[D]."""
    return np.datetime64(start, "D") + np.arange(n)


def iso_days(start: dt.date, n: int) -> list[str]:
    """The n days from start as ISO text, YYYY-MM-DD."""
    return np.datetime_as_string(_day_range(start, n)).tolist()


def day_labels(start: dt.date, n: int, holidays) -> np.ndarray:
    """The labels of the n days from start: 1.0 for a working day, 0.0 for
    a Saturday, a Sunday or a listed holiday."""
    return np.is_busday(_day_range(start, n), holidays=sorted(holidays)).astype(np.float64)


# ---------------------------------------------------------------------------
# Mobility gap filling
# ---------------------------------------------------------------------------


def month_end(month: str) -> dt.date:
    """The last day of a YYYY-MM month (two-digit month 01-12); ValueError
    if month is not one."""
    if not MONTH.fullmatch(month):
        raise ValueError(f"not a YYYY-MM month: {month!r}")
    year, number = int(month[:4]), int(month[5:])
    if number == 12:
        return dt.date(year, 12, 31)
    return dt.date(year, number + 1, 1) - dt.timedelta(days=1)


def fill_mobility(days: Days, baseline_month: str) -> Days:
    """Complete the sparse mobility column.

    Policy: every date up to the end of the baseline month (YYYY-MM) that
    precedes the first observation is at baseline (100.0); the stretch from
    the baseline month's end to the first observation is linearly
    interpolated; interior gaps interpolate between their observed
    neighbors; trailing gaps hold the last observed value. Observed days
    keep their values.
    """
    if not len(days):
        raise DataError("fill_mobility called with no days")
    try:
        baseline_end = days.offset(month_end(baseline_month))  # the baseline month's last day
    except ValueError:
        raise ConfigError(f"bad baseline month {baseline_month!r}; expected YYYY-MM") from None
    gap = np.isnan(days.mobility)
    # The known points (day offset, value) the filled days are read from.
    at = np.flatnonzero(~gap)
    value = days.mobility[at]
    if not at.size or at[0] > baseline_end:
        at, value = np.r_[baseline_end, at], np.r_[100.0, value]

    t = np.arange(len(days))
    j = np.searchsorted(at, t)  # at[j - 1] < t <= at[j]
    filled = np.full(len(days), value[-1])  # trailing hold
    # Days up to the first known point: the baseline month's end, or an
    # observation on or before it.
    filled[j == 0] = 100.0
    mid = np.flatnonzero((j > 0) & (j < len(at)))
    t0, t1, v0, v1 = at[j[mid] - 1], at[j[mid]], value[j[mid] - 1], value[j[mid]]
    filled[mid] = v0 + (v1 - v0) * ((mid - t0) / (t1 - t0))
    filled = np.where(gap, filled, days.mobility)
    bad = np.flatnonzero(filled <= 0)
    if bad.size:
        raise DataError(f"{days.date(bad[0]).isoformat()}: filled mobility is not positive")
    return replace(days, mobility=filled)


# ---------------------------------------------------------------------------
# Windowing
# ---------------------------------------------------------------------------


def feature_matrix(days: Days, features) -> np.ndarray:
    """Per-day rows of the named features, in canonical column order."""
    features = feature_names(features)
    if "mobility" in features and np.isnan(days.mobility).any():
        raise DataError("mobility feature requested but series has gaps; run fill_mobility")
    return np.column_stack([getattr(days, _FEATURE_COLUMNS[name]) for name in features])


def window_rows(start: int, stop: int, L: int) -> np.ndarray:
    """(N, L) indices of the L days before each anchor row start..stop-1:
    indexing a (days, F) feature matrix with them gathers the (N, L, F)
    windows. The rows overlap, so they are a read-only strided view of one
    arange of N + L - 1 indices."""
    return np.lib.stride_tricks.sliding_window_view(np.arange(start - L, stop - 1), L)


def make_windows(
    days: Days, L: int, K: int, features, group: str = "all"
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stride-1 lookback windows as (features, rows, targets): the (days, F)
    matrix of the named features, the (N, L) rows of each window's inputs
    (days [a-L, a-1] for anchor a) and the (N, K) group counts of days
    [a, a+K-1]."""
    if group not in GROUPS:
        raise ConfigError(f"unknown group {group!r}; valid: {list(GROUPS)}")
    if L < 1 or K < 1:
        raise ConfigError("lookback and horizon must be >= 1")
    n = len(days)
    if n < L + K:
        raise DataError(f"span of {n} days is too short for lookback {L} + horizon {K}")
    targets = np.lib.stride_tricks.sliding_window_view(days.counts[group][L:], K)
    return feature_matrix(days, features), window_rows(L, n - K + 1, L), targets


# ---------------------------------------------------------------------------
# Synthetic dataset generator
# ---------------------------------------------------------------------------
#
# Daily dispatch intensity is a product of a temperature U-curve, a
# working-day factor, a mild humidity bump, and a monotone mobility factor
# normalized to 1 at the 100% baseline. Mobility sits near baseline with
# weekly/seasonal texture and rare disruption episodes until
# PANDEMIC_START, collapses during the emergency window, then partially
# recovers.

COMFORT_TEMP = 22.0
TEMP_CURVATURE = 0.0024  # per degC^2 around COMFORT_TEMP
OFFDAY_FACTOR = 0.93
HUMIDITY_BUMP = 0.06
HUMIDITY_CENTER = 66.0
HUMIDITY_WIDTH = 12.0
MOBILITY_GAMMA = 0.30  # dispatch ~ (mobility/100)^gamma
TEMP_MEAN = 16.0
TEMP_AMPLITUDE = 11.0
TEMP_PEAK_DOY = 218  # early August
TEMP_AR = 0.88
TEMP_NOISE = 0.8
HUMIDITY_MEAN = 66.0
HUMIDITY_AMPLITUDE = 12.0
HUMIDITY_PEAK_DOY = 170
HUMIDITY_NOISE = 3.0
PANDEMIC_START = dt.date(2020, 1, 15)
SOE_START = dt.date(2020, 4, 18)
SOE_END = dt.date(2020, 5, 25)
SOE_LEVEL = 0.38  # mobility multiplier during the emergency window
PRE_SOE_LEVEL = 0.78  # reached just before the emergency window
RECOVERY_LEVEL = 0.80  # reached by the last day
# Storm/closure-style disruptions in the pre-pandemic years, each
# multiplying mobility by its depth (overlapping episodes compound). The
# mix of short hits and multi-week episodes lets the count/mobility
# response be observed across its whole range, including persistent
# suppression (windows that sit entirely inside a long episode). A few a
# year at most, so pre-pandemic mobility still averages near baseline
# (above 90).
EVENTS_PER_YEAR = (1, 3)
EVENT_DAYS = (4, 28)
EVENT_DEPTH = (0.28, 0.80)
AGE_FRACTIONS = (0.08, 0.38)  # children, adult; elderly = rest
OUTDOOR_FRACTION = 0.16


@dataclass
class SynthConfig:
    """The synthetic dataset's span and mean daily dispatch rate; the rest
    of the generator is fixed by the module constants above."""

    start: dt.date = dt.date(2014, 4, 1)
    end: dt.date = dt.date(2020, 8, 19)
    base_rate: float = 180.0

    def validate(self) -> None:
        if self.start >= self.end:
            raise ConfigError("synthetic span must have start < end")
        if not (np.isfinite(self.base_rate) and self.base_rate > 0):
            raise ConfigError(f"base_rate must be a finite number > 0, got {self.base_rate!r}")


# Fixed civic holiday calendar (month, day), applied every year.
HOLIDAY_RULES = (
    (1, 1), (1, 2), (1, 3), (5, 3), (5, 4), (5, 5),
    (8, 11), (9, 22), (11, 3), (11, 23), (12, 30), (12, 31),
)


@dataclass
class SynthResult:
    days: Days
    holidays: set[dt.date]
    truth: dict = field(repr=False, default=None)


def _seasonal(doy: np.ndarray, mean: float, amp: float, peak: int) -> np.ndarray:
    return mean + amp * np.cos(2.0 * np.pi * (doy - peak) / 365.25)


def _dispatch_factors(tmax, humidity, day_label, mobility):
    u = 1.0 + TEMP_CURVATURE * (np.asarray(tmax) - COMFORT_TEMP) ** 2
    w = np.where(np.asarray(day_label) == 1, 1.0, OFFDAY_FACTOR)
    h = 1.0 + HUMIDITY_BUMP * np.exp(
        -(((np.asarray(humidity) - HUMIDITY_CENTER) / HUMIDITY_WIDTH) ** 2)
    )
    g = (np.asarray(mobility) / 100.0) ** MOBILITY_GAMMA
    return u, w, h, g


def synth_generate(config: SynthConfig, seed: int = 0) -> SynthResult:
    """Generate a complete daily dataset plus its ground-truth intensity."""
    config.validate()
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}")
    n = (config.end - config.start).days + 1
    dates = _day_range(config.start, n)
    doy = (dates - dates.astype("datetime64[Y]")).astype(np.float64) + 1.0

    holidays = {
        dt.date(year, m, d)
        for year in range(config.start.year, config.end.year + 1)
        for (m, d) in HOLIDAY_RULES
        if config.start <= dt.date(year, m, d) <= config.end
    }
    labels = day_labels(config.start, n, holidays)

    rng = np.random.default_rng(seed)
    # Fixed draw order keeps the dataset reproducible per seed.
    temp_innov = rng.normal(0.0, TEMP_NOISE, size=n)
    hum_noise = rng.normal(0.0, HUMIDITY_NOISE, size=n)
    mob_innov = rng.normal(0.0, 1.2, size=n)
    count_noise = rng.normal(0.0, 1.0, size=n)

    # Temperature: seasonal cosine plus AR(1) anomaly.
    anomaly = np.empty(n)
    a = 0.0
    for t in range(n):
        a = TEMP_AR * a + temp_innov[t]
        anomaly[t] = a
    tmax = _seasonal(doy, TEMP_MEAN, TEMP_AMPLITUDE, TEMP_PEAK_DOY) + anomaly

    humidity = np.clip(
        _seasonal(doy, HUMIDITY_MEAN, HUMIDITY_AMPLITUDE, HUMIDITY_PEAK_DOY) + hum_noise,
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
    # Disruption episodes (pre-pandemic only; see EVENTS_PER_YEAR); dispatch
    # follows through the mobility factor. Drawn after all other noise, so
    # their settings leave weather and the noise series unchanged.
    events = []
    for year in range(config.start.year, min(config.end.year, PANDEMIC_START.year) + 1):
        for _ in range(int(rng.integers(EVENTS_PER_YEAR[0], EVENTS_PER_YEAR[1] + 1))):
            start_doy = int(rng.integers(1, 340))
            duration = int(rng.integers(EVENT_DAYS[0], EVENT_DAYS[1] + 1))
            depth = float(rng.uniform(*EVENT_DEPTH))
            first = dt.date(year, 1, 1) + dt.timedelta(days=start_doy - 1)
            if first + dt.timedelta(days=duration - 1) >= PANDEMIC_START:
                continue
            lo = (first - config.start).days
            hit = slice(max(lo, 0), min(lo + duration, n))
            if hit.start < hit.stop:
                texture[hit] *= depth
                events.append([first.isoformat(), duration, depth])
    # Suppression: 1 before PANDEMIC_START, a linear ramp down to
    # PRE_SOE_LEVEL, SOE_LEVEL through the emergency window, then a recovery
    # towards RECOVERY_LEVEL over the first half of the remaining days.
    t = np.arange(n)
    p, s0, s1 = ((day - config.start).days for day in (PANDEMIC_START, SOE_START, SOE_END))
    ramp = 1.0 + (PRE_SOE_LEVEL - 1.0) * ((t - p) / (s0 - p))
    recovery = SOE_LEVEL + (RECOVERY_LEVEL - SOE_LEVEL) * np.minimum(
        (t - s1) / max(n - 1 - s1, 1) * 2.0, 1.0)
    suppression = np.select([t < p, t < s0, t <= s1], [1.0, ramp, SOE_LEVEL], recovery)
    mobility = np.maximum(texture * suppression, 12.0)

    u, w, h, g = _dispatch_factors(tmax, humidity, labels, mobility)
    lam = config.base_rate * u * w * h * g
    total = np.maximum(np.rint(lam + count_noise * np.sqrt(lam)), 0.0)
    children, adult = (np.rint(frac * total) for frac in AGE_FRACTIONS)
    outdoor = np.rint(OUTDOOR_FRACTION * total)
    counts = {
        "all": total, "children": children, "adult": adult,
        "elderly": total - children - adult, "outdoor": outdoor, "indoor": total - outdoor,
    }

    truth = {
        "seed": seed,
        "base_rate": config.base_rate,
        "comfort_temp": COMFORT_TEMP,
        "temp_curvature": TEMP_CURVATURE,
        "offday_factor": OFFDAY_FACTOR,
        "mobility_gamma": MOBILITY_GAMMA,
        "age_fractions": list(AGE_FRACTIONS),
        "outdoor_fraction": OUTDOOR_FRACTION,
        "events": events,
        "dates": np.datetime_as_string(dates).tolist(),
        "lambda_all": lam.tolist(),
        "mobility": mobility.tolist(),
    }
    days = Days(config.start, tmax, humidity, labels, mobility, counts)
    return SynthResult(days=days, holidays=holidays, truth=truth)


# ---------------------------------------------------------------------------
# Dataset writers
# ---------------------------------------------------------------------------


def write_dated_csv(path, spec: DatedCsv, start: dt.date, values: np.ndarray) -> None:
    """Write the (days, columns) values of the days from start as a spec
    file that read_dated_csv reads back bit for bit: a float cell as its
    repr, a count as its digits, and no row for a day with a NaN."""
    listed = ~np.isnan(values).any(axis=1)
    rows = (values[listed].astype(np.int64) if spec.kind is int else values[listed]).tolist()
    iso = compress(iso_days(start, len(values)), listed)
    write_table(path, spec.header, ([d, *row] for d, row in zip(iso, rows)))


def write_dataset(result: SynthResult, out_dir) -> dict[str, Path]:
    """Write weather/ead/mobility/holidays files plus the ground-truth JSON."""
    out = Path(out_dir)
    paths = {
        "weather": out / "weather.csv",
        "ead": out / "ead.csv",
        "mobility": out / "mobility.csv",
        "holidays": out / "holidays.txt",
        "truth": out / "ground_truth.json",
    }
    days = result.days
    for name, spec, columns in (("weather", WEATHER_CSV, [days.tmax, days.humidity]),
                                ("ead", EAD_CSV, [days.counts[g] for g in GROUPS]),
                                ("mobility", MOBILITY_CSV, [days.mobility])):
        write_dated_csv(paths[name], spec, days.start, np.column_stack(columns))
    atomic_write_text(
        paths["holidays"],
        "\n".join(d.isoformat() for d in sorted(result.holidays)) + "\n",
    )
    atomic_write_text(paths["truth"], json.dumps(result.truth, indent=1, sort_keys=True) + "\n")
    return paths


def load_dataset(
    weather_path, ead_path, mobility_path=None, holidays_path=None
) -> Days:
    """The day table of the on-disk dataset over the span where weather and
    EAD both have days; mobility stays sparse (NaN where unobserved) until
    fill_mobility completes it, and its days outside the span are ignored.
    Each file is read and checked in turn before the span is: every day of
    the span must be in both weather and EAD, and the days missing from
    either are reported."""
    weather = read_dated_csv(weather_path, WEATHER_CSV)
    if not len(weather[0]):
        raise DataError(f"{weather_path}: no data rows")
    ead = read_dated_csv(ead_path, EAD_CSV)
    if not len(ead[0]):
        raise DataError(f"{ead_path}: no data rows")
    mobility = read_dated_csv(mobility_path, MOBILITY_CSV) if mobility_path else None
    holidays = load_holidays(holidays_path) if holidays_path else set()
    first = int(max(weather[0].min(), ead[0].min()))
    n = min(weather[0].max(), ead[0].max()) - first + 1
    if n < 1:
        raise DataError("weather and EAD files do not overlap in time")

    def on_span(days, values) -> np.ndarray:
        """The (columns, n) values of the span's days; NaN where not listed."""
        out = np.full((values.shape[1], n), np.nan)
        at = days - first
        keep = (at >= 0) & (at < n)
        out[:, at[keep]] = values[keep].T
        return out

    (tmax, humidity), counts = on_span(*weather), on_span(*ead)
    missing = np.isnan(tmax), np.isnan(counts[0])
    gaps = np.flatnonzero(missing[0] | missing[1])
    if gaps.size:
        shown = ", ".join(
            f"{dt.date.fromordinal(first + i).isoformat()} "
            f"({'/'.join(name for name, gap in zip(('weather', 'ead'), missing) if gap[i])})"
            for i in gaps[:10].tolist())
        more = f" and {gaps.size - 10} more" if gaps.size > 10 else ""
        raise DataError(f"date gaps in the merged span: {shown}{more}")
    start = dt.date.fromordinal(first)
    return Days(start, tmax, humidity, day_labels(start, n, holidays),
                np.full(n, np.nan) if mobility is None else on_span(*mobility)[0],
                dict(zip(GROUPS, counts)))
