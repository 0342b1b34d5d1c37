"""Report CSV emission and deterministic SVG charts.

The report format pairs a descriptive-statistics row for the actual and the
estimated series per (scenario, group), followed by CC and relative MAE.
Each renderer returns a chart as minimal hand-built SVG text, so identical
inputs always give identical bytes; it adds its own marks to a `_Chart`.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import fields

import numpy as np

from .fileio import write_table
from .metrics import EvalReport, StatsRow, polyfit3, polyval

STAT_COLUMNS = [
    "Mean", "Std. Error", "Median", "Mode", "StDev", "Kurtosis",
    "Skewness", "Range", "Min", "Max", "Sum", "CC", "MAE",
]
REPORT_HEADER = ["scenario", "group", "series"] + STAT_COLUMNS
# The StatsRow fields of the statistics columns, in their order.
_STAT_FIELDS = [f.name for f in fields(StatsRow) if f.name != "n"]


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(float(value))


def write_report_csv(path, rep: EvalReport) -> None:
    rows = []
    for series, stats, scores in (("Real", rep.stats_real, [None, None]),
                                  ("Est", rep.stats_est, [rep.cc, rep.mae])):
        cells = [getattr(stats, name) for name in _STAT_FIELDS] + scores
        rows.append([rep.scenario, rep.group, series, *map(_fmt, cells)])
    write_table(path, REPORT_HEADER, rows)


# ---------------------------------------------------------------------------
# SVG charts
# ---------------------------------------------------------------------------

_W, _H = 860.0, 420.0
_ML, _MR, _MT, _MB = 64.0, 16.0, 28.0, 44.0
_COLORS = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def _scale(values, lo, hi, out_lo, out_hi):
    span = hi - lo
    if span == 0:
        span = 1.0
    return out_lo + (np.asarray(values, dtype=np.float64) - lo) * (out_hi - out_lo) / span


def _ticks(lo: float, hi: float, n: int = 5) -> list[float]:
    if hi == lo:
        return [lo]
    step = (hi - lo) / (n - 1)
    return [lo + step * i for i in range(n)]


class _Chart:
    """An SVG chart bounded by x and every array of ys: the header, title,
    axes and ticks, then the marks added in data coordinates. On an x axis
    of days (day numbers) the ticks are labelled as ISO days."""

    def __init__(self, title: str, x, ys, days: bool):
        x = np.asarray(x, dtype=np.float64)
        all_y = np.concatenate([np.asarray(v, dtype=np.float64) for v in ys])
        self.xlo, self.xhi = float(x.min()), float(x.max())
        self.ylo, self.yhi = float(all_y.min()), float(all_y.max())
        self.parts = [
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W:.0f}" height="{_H:.0f}" '
            f'viewBox="0 0 {_W:.0f} {_H:.0f}" font-family="sans-serif" font-size="12">',
            f'<rect width="{_W:.0f}" height="{_H:.0f}" fill="white"/>',
            f'<text x="{_ML}" y="18" font-size="14">{title}</text>',
            f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" stroke="black"/>',
            f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" stroke="black"/>',
        ]
        for tick in _ticks(self.ylo, self.yhi):
            y = self.sy([tick])[0]
            self.parts.append(f'<line x1="{_ML - 4}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" stroke="black"/>')
            self.parts.append(f'<text x="{_ML - 8}" y="{y + 4:.2f}" text-anchor="end">{tick:.6g}</text>')
        for tick in _ticks(self.xlo, self.xhi):
            x = self.sx([tick])[0]
            label = dt.date.fromordinal(int(round(tick))).isoformat() if days else f"{tick:.6g}"
            self.parts.append(
                f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 4}" stroke="black"/>'
            )
            self.parts.append(f'<text x="{x:.2f}" y="{_H - _MB + 18}" text-anchor="middle">{label}</text>')

    def sx(self, values) -> np.ndarray:
        return _scale(values, self.xlo, self.xhi, _ML, _W - _MR)

    def sy(self, values) -> np.ndarray:
        return _scale(values, self.ylo, self.yhi, _H - _MB, _MT)

    def points(self, x, y) -> str:
        return " ".join(f"{a:.2f},{b:.2f}" for a, b in zip(self.sx(x), self.sy(y)))

    def line(self, x, y, color: str, width: str = "1.5") -> None:
        self.parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="{width}" points="{self.points(x, y)}"/>'
        )

    def legend(self, idx: int, name: str, color: str) -> None:
        self.parts.append(f'<text x="{_W - _MR - 150}" y="{_MT + 16 * idx + 10}" fill="{color}">{name}</text>')

    def text(self) -> str:
        return "\n".join(self.parts + ["</svg>"]) + "\n"


def render_line_chart(start: dt.date, series: dict[str, np.ndarray], title: str) -> str:
    """One colored line per named series over the consecutive days from start."""
    x = start.toordinal() + np.arange(len(next(iter(series.values()))), dtype=np.float64)
    chart = _Chart(title, x, series.values(), days=True)
    for idx, (name, values) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        chart.line(x, values, color)
        chart.legend(idx, name, color)
    return chart.text()


def render_scatter_fit(x, series: dict[str, np.ndarray], title: str, xlabel: str) -> str:
    """Scatter of each series against x, with its best-fitting cubic curve."""
    xv = np.asarray(x, dtype=np.float64)
    chart = _Chart(title, xv, series.values(), days=False)
    chart.parts.append(
        f'<text x="{(_ML + _W - _MR) / 2:.2f}" y="{_H - 8}" text-anchor="middle">{xlabel}</text>'
    )
    grid = np.linspace(chart.xlo, chart.xhi, 120)
    for idx, (name, values) in enumerate(series.items()):
        color = _COLORS[idx % len(_COLORS)]
        yv = np.asarray(values, dtype=np.float64)
        for px, py in zip(chart.sx(xv), chart.sy(yv)):
            chart.parts.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="2" fill="{color}" fill-opacity="0.45"/>'
            )
        chart.line(grid, polyval(polyfit3(xv, yv), grid), color, width="2")
        chart.legend(idx, name, color)
    return chart.text()


def render_band_chart(
    start: dt.date, actual: np.ndarray, mean: np.ndarray,
    low: np.ndarray, high: np.ndarray, title: str,
) -> str:
    """Actual line plus the min/max band and mean of overlapping forecasts,
    over the consecutive days from start."""
    x = start.toordinal() + np.arange(len(actual), dtype=np.float64)
    chart = _Chart(title, x, (actual, low, high), days=True)
    # The band's ring: along the highs, then back along the lows.
    ring = chart.points(np.concatenate([x, x[::-1]]), np.concatenate([high, low[::-1]]))
    chart.parts.append(f'<polygon fill="#d62728" fill-opacity="0.18" stroke="none" points="{ring}"/>')
    entries = (("actual", actual, "#1f77b4"), ("estimated mean", mean, "#d62728"))
    for _, values, color in entries:
        chart.line(x, values, color)
    for idx, (name, _, color) in enumerate(entries):
        chart.legend(idx, name, color)
    return chart.text()
