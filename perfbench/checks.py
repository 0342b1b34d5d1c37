"""Output checks and forecast scoring, written independently of the program.

Nothing here imports eadforecast: predictions, actuals and the ground truth
are read from the files the program and the generator wrote, so a defect in
the program's own readers or metrics cannot hide itself.
"""

from __future__ import annotations

import csv
import datetime as dt
import hashlib
import json
import math
from pathlib import Path

import numpy as np


class CheckFailed(Exception):
    pass


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def read_predictions(path, anchors: list[dt.date], horizon: int) -> dict[dt.date, np.ndarray]:
    """predictions.csv must hold exactly one finite row per anchor x step."""
    want = {a: np.full(horizon, np.nan) for a in anchors}
    rows = 0
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["anchor_date", "step", "target_date", "value"]:
            raise CheckFailed(f"{path}: bad header")
        for row in reader:
            rows += 1
            anchor = dt.date.fromisoformat(row[0])
            step = int(row[1])
            value = float(row[3])
            if anchor not in want or not 1 <= step <= horizon:
                raise CheckFailed(f"{path}: unexpected row {row}")
            if dt.date.fromisoformat(row[2]) != anchor + dt.timedelta(days=step - 1):
                raise CheckFailed(f"{path}: wrong target date in {row}")
            if not math.isfinite(value):
                raise CheckFailed(f"{path}: non-finite value in {row}")
            if not math.isnan(want[anchor][step - 1]):
                raise CheckFailed(f"{path}: duplicate row {row}")
            want[anchor][step - 1] = value
    if rows != len(anchors) * horizon:
        raise CheckFailed(f"{path}: {rows} rows, expected {len(anchors)} x {horizon}")
    return want


def mean_per_date(forecasts: dict[dt.date, np.ndarray]) -> dict[dt.date, float]:
    """Mean over every forecast step that targets a date."""
    acc: dict[dt.date, list[float]] = {}
    for anchor, vec in forecasts.items():
        for step, value in enumerate(vec):
            acc.setdefault(anchor + dt.timedelta(days=step), []).append(float(value))
    return {d: float(np.mean(v)) for d, v in acc.items()}


def read_actuals(ead_csv) -> dict[dt.date, float]:
    with open(ead_csv, newline="") as fh:
        return {dt.date.fromisoformat(r["date"]): float(r["all"]) for r in csv.DictReader(fh)}


def read_truth(truth_json) -> dict[dt.date, float]:
    doc = json.loads(Path(truth_json).read_text())
    return {dt.date.fromisoformat(d): float(v) for d, v in zip(doc["dates"], doc["lambda_all"])}


def score(actual: dict, estimate: dict, start: dt.date, end: dt.date) -> dict:
    """Relative MAE (zero actuals skipped) and Pearson CC over [start, end]."""
    days = sorted(d for d in estimate if start <= d <= end and d in actual)
    if len(days) < 2:
        raise CheckFailed(f"fewer than two scored days in {start}..{end}")
    a = np.array([actual[d] for d in days])
    e = np.array([estimate[d] for d in days])
    keep = a != 0
    return {
        "mae_rel": float(np.mean(np.abs(a[keep] - e[keep]) / a[keep])),
        "cc": float(np.corrcoef(a, e)[0, 1]),
        "days": len(days),
    }


def report_scores(report_csv) -> dict:
    """CC and MAE from the estimated-series row of the program's report.csv."""
    with open(report_csv, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["series"] == "Est"]
    if len(rows) != 1:
        raise CheckFailed(f"{report_csv}: expected one Est row, found {len(rows)}")
    return {"cc": float(rows[0]["CC"]), "mae_rel": float(rows[0]["MAE"])}


def agree(program: dict, own: dict, what: str, rtol: float = 1e-9) -> None:
    for key in ("cc", "mae_rel"):
        if not math.isclose(program[key], own[key], rel_tol=rtol, abs_tol=1e-12):
            raise CheckFailed(f"{what}: program {key}={program[key]!r}, benchmark {own[key]!r}")


def read_ablation(report_csv, variants: list[str]) -> dict[str, dict]:
    with open(report_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if [r["variant"] for r in rows] != variants:
        raise CheckFailed(f"{report_csv}: variants {[r['variant'] for r in rows]}")
    out = {}
    for r in rows:
        cc, mae_rel = float(r["cc"]), float(r["mae"])
        if not (math.isfinite(cc) and math.isfinite(mae_rel)):
            raise CheckFailed(f"{report_csv}: non-finite scores for {r['variant']}")
        out[r["variant"]] = {"cc": cc, "mae_rel": mae_rel}
    return out
