"""Forecast quality metrics and descriptive statistics.

The two headline metrics compare an actual series u with an estimated
series v:

    cc(u, v)  = (n*sum(uv) - sum(u)sum(v)) /
                sqrt([n*sum(u^2) - sum(u)^2] [n*sum(v^2) - sum(v)^2])
    mae(u, v) = (1/n) * sum |u_i - v_i| / u_i        (relative error)

mae skips zero-actual terms and reports how many were skipped.
"""

from __future__ import annotations

import datetime as dt
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, NumericalError


def corr_coeff(u, v) -> float:
    """Pearson correlation coefficient between two equal-length series."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 2:
        raise ConfigError(f"corr_coeff needs two equal 1-d series of length >= 2, got {a.shape} and {b.shape}")
    n = a.size
    su, sv = a.sum(), b.sum()
    duu = n * (a @ a) - su * su
    dvv = n * (b @ b) - sv * sv
    if duu <= 0.0 or dvv <= 0.0:
        raise NumericalError("correlation undefined: an input series is constant")
    return float((n * (a @ b) - su * sv) / np.sqrt(duu * dvv))


def relative_errors(u, v) -> tuple[np.ndarray, int]:
    """The per-day terms |u_i - v_i| / u_i of the relative MAE over the
    nonzero actuals, and the number of zero-actual days skipped."""
    a = np.asarray(u, dtype=np.float64)
    b = np.asarray(v, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1 or a.size < 1:
        raise ConfigError(f"mae needs two equal 1-d series, got {a.shape} and {b.shape}")
    keep = a != 0.0
    return np.abs(a[keep] - b[keep]) / a[keep], int((~keep).sum())


def mae_with_skip_count(u, v) -> tuple[float, int]:
    """Relative mean absolute error and the number of zero-actual terms skipped."""
    terms, skipped = relative_errors(u, v)
    if terms.size == 0:
        raise NumericalError("relative MAE undefined: every actual value is zero")
    return float(terms.mean()), skipped


def mae(u, v) -> float:
    return mae_with_skip_count(u, v)[0]


# ---------------------------------------------------------------------------
# Descriptive statistics
# ---------------------------------------------------------------------------


@dataclass
class StatsRow:
    mean: float
    std_error: float
    median: float
    mode: float
    stdev: float
    kurtosis: float | None  # excess kurtosis; None when undefined (n < 4 or constant)
    skewness: float | None
    range: float
    min: float
    max: float
    sum: float
    n: int


def descriptive_stats(series) -> StatsRow:
    """Sample statistics with bias-corrected skewness and excess kurtosis.

    The mode is the most frequent value after rounding to the nearest
    integer (count data), ties broken toward the smallest value.
    """
    x = np.asarray(series, dtype=np.float64)
    if x.ndim != 1 or x.size < 1:
        raise ConfigError(f"descriptive_stats needs a nonempty 1-d series, got shape {x.shape}")
    n = x.size
    mean = float(x.mean())
    stdev = float(x.std(ddof=1)) if n > 1 else 0.0
    counter = Counter(np.rint(x).astype(np.int64).tolist())
    top = max(counter.values())
    mode = float(min(value for value, cnt in counter.items() if cnt == top))

    skewness: float | None = None
    kurtosis: float | None = None
    if n >= 4 and stdev > 0.0:
        z = (x - mean) / stdev
        s3 = float((z**3).sum())
        s4 = float((z**4).sum())
        skewness = n / ((n - 1) * (n - 2)) * s3
        kurtosis = (
            n * (n + 1) / ((n - 1) * (n - 2) * (n - 3)) * s4
            - 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3))
        )
    return StatsRow(
        mean=mean,
        std_error=stdev / np.sqrt(n),
        median=float(np.median(x)),
        mode=mode,
        stdev=stdev,
        kurtosis=kurtosis,
        skewness=skewness,
        range=float(x.max() - x.min()),
        min=float(x.min()),
        max=float(x.max()),
        sum=float(x.sum()),
        n=n,
    )


# ---------------------------------------------------------------------------
# Multi-horizon aggregation
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Forecasts:
    """K-day forecasts made at consecutive anchor days: row a of the
    (anchors, K) float64 `values` is the forecast made at start + a, its
    step s (from 0) for the day start + a + s. A gap between anchors or a
    different K per anchor cannot be represented.

    len() and iteration over (anchor, row) pairs serve only the benchmark
    (perfbench/worker.py), which reads forecasts as such pairs; they go
    with the benchmark's move to this type (ROADMAP item 2).
    """

    start: dt.date
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2 or values.shape[1] < 1:
            raise ConfigError(f"forecast values must be an (anchors, K >= 1) array, got shape {values.shape}")
        object.__setattr__(self, "values", values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return ((self.start + dt.timedelta(days=a), row) for a, row in enumerate(self.values))


@dataclass
class HorizonSeries:
    """Per-date spread of all K-step forecasts covering that date."""

    dates: list[dt.date]
    mean: np.ndarray
    min: np.ndarray
    max: np.ndarray
    count: np.ndarray
    horizon: int


def horizon_aggregate(forecasts: Forecasts) -> HorizonSeries:
    """Collect overlapping K-day forecasts into per-date mean/min/max: the
    forecast anchored at day a covers days a .. a+K-1."""
    F = forecasts.values  # (N, K): F[a, step]
    n, k = F.shape
    if n == 0:
        raise ConfigError("horizon_aggregate needs at least one forecast")
    # Date d is covered by anchor a = d-K+1+j at step K-1-j, j = 0..K-1, so
    # row d of V lists its values in anchor order: V[d, j] = F[d-K+1+j, K-1-j].
    j = np.arange(k)
    a = np.arange(n + k - 1)[:, None] - (k - 1) + j
    valid = (a >= 0) & (a < n)
    V = F[np.clip(a, 0, n - 1), k - 1 - j]
    count = valid.sum(axis=1)
    # V.mean over C-contiguous rows sums each row pairwise, as np.mean does on
    # a single row, so dates covered K times get the bits a per-date mean
    # gives. The ragged first and last K-1 dates take their valid values one
    # date at a time.
    mean = np.empty(n + k - 1)
    full = count == k
    mean[full] = V[full].mean(axis=1)
    for d in np.flatnonzero(~full):
        mean[d] = np.mean(V[d, valid[d]])
    return HorizonSeries(
        dates=[forecasts.start + dt.timedelta(days=d) for d in range(n + k - 1)],
        mean=mean,
        min=np.min(V, axis=1, where=valid, initial=np.inf),
        max=np.max(V, axis=1, where=valid, initial=-np.inf),
        count=count,
        horizon=k,
    )


# ---------------------------------------------------------------------------
# Cubic fit (plotting aid)
# ---------------------------------------------------------------------------


def polyfit3(x, y) -> np.ndarray:
    """Least-squares cubic fit; returns coefficients (c0, c1, c2, c3) for
    c0 + c1 x + c2 x^2 + c3 x^3."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1:
        raise ConfigError("polyfit3 needs two equal 1-d series")
    if np.unique(xv).size < 4:
        raise NumericalError("cubic fit needs at least 4 distinct x values")
    design = np.vander(xv, 4, increasing=True)
    coef, _, rank, _ = np.linalg.lstsq(design, yv, rcond=None)
    if rank < 4:
        raise NumericalError("cubic fit design matrix is rank deficient")
    return coef


def polyval(coef, x) -> np.ndarray:
    xv = np.asarray(x, dtype=np.float64)
    out = np.zeros_like(xv)
    for power, c in enumerate(coef):
        out = out + c * xv**power
    return out


# ---------------------------------------------------------------------------
# Report row
# ---------------------------------------------------------------------------


@dataclass
class EvalReport:
    scenario: str
    group: str
    stats_real: StatsRow
    stats_est: StatsRow
    cc: float
    mae: float
    mae_skipped: int = 0


def evaluate_series(actual, estimated, group: str = "all", scenario: str = "") -> EvalReport:
    """Full comparison of an actual and an estimated daily series. A series
    holding a NaN or an infinity is a NumericalError, as a constant one is."""
    a = np.asarray(actual, dtype=np.float64)
    e = np.asarray(estimated, dtype=np.float64)
    for name, x in (("actual", a), ("estimated", e)):
        if not np.isfinite(x).all():
            raise NumericalError(f"the {name} series holds a non-finite value")
    value, skipped = mae_with_skip_count(a, e)
    return EvalReport(
        scenario=scenario,
        group=group,
        stats_real=descriptive_stats(a),
        stats_est=descriptive_stats(e),
        cc=corr_coeff(a, e),
        mae=value,
        mae_skipped=skipped,
    )
