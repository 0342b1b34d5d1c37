"""The SVG charts: one frame for all three renderers (bounds, axes, legend),
the marks each draws, well-formed XML and the same bytes on a rerun."""

import datetime as dt
import re
import xml.dom.minidom

import numpy as np
import pytest

from eadforecast.report import render_band_chart, render_line_chart, render_scatter_fit

DAY = dt.date(2020, 2, 28)


def line_chart() -> str:
    return render_line_chart(DAY, {"actual": np.array([0.0, 1.0]), "estimated": np.array([0.5, 0.25])},
                             "Two days")


def scatter_fit() -> str:
    x = np.linspace(-2.0, 30.0, 9)
    return render_scatter_fit(x, {"actual": x**2 / 10.0, "estimated": 50.0 - x}, "Scatter", "x (unit)")


def band_chart() -> str:
    return render_band_chart(DAY, np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]),
                             np.array([0.0, 1.0, 2.0]), np.array([2.0, 3.0, 4.0]), "Band")


RENDERERS = {"line": line_chart, "scatter": scatter_fit, "band": band_chart}


def marks(svg: str, tag: str) -> list[str]:
    return re.findall(rf'<{tag} [^>]*points="([^"]*)"', svg)


@pytest.mark.parametrize("name", RENDERERS)
def test_same_bytes_twice_and_well_formed(name):
    svg = RENDERERS[name]()
    assert svg == RENDERERS[name]()
    assert xml.dom.minidom.parseString(svg).documentElement.tagName == "svg"


@pytest.mark.parametrize("name", RENDERERS)
def test_legends_sit_top_right_one_line_apart(name):
    legends = re.findall(r'<text x="694.0" y="([0-9.]+)" fill="[^"]*">([^<]*)</text>', RENDERERS[name]())
    first = "estimated mean" if name == "band" else "estimated"
    assert legends == [("38.0", "actual"), ("54.0", first)]


def test_two_day_line_runs_corner_to_corner():
    # The first series spans the y bounds (0 and 1) over both days, so it
    # runs from the plot's bottom left to its top right; the day ticks are
    # labelled as ISO days.
    svg = line_chart()
    assert marks(svg, "polyline") == ["64.00,376.00 844.00,28.00", "64.00,202.00 844.00,289.00"]
    assert ">2020-02-28</text>" in svg and ">2020-02-29</text>" in svg


def test_band_ring_runs_along_the_highs_then_back_along_the_lows():
    # Three days at x 64, 454, 844; y bounds 0..4, so y = 376 - 87 v.
    svg = band_chart()
    assert marks(svg, "polygon") == [
        "64.00,202.00 454.00,115.00 844.00,28.00 844.00,202.00 454.00,289.00 64.00,376.00"]
    assert marks(svg, "polyline") == ["64.00,289.00 454.00,202.00 844.00,115.00"] * 2


def test_scatter_draws_points_and_cubic_fit():
    svg = scatter_fit()
    assert svg.count("<circle ") == 18
    fits = marks(svg, "polyline")
    assert len(fits) == 2 and all(len(f.split()) == 120 for f in fits)
    # The first point of the first series is at the plot's left edge, on
    # its fitted curve (x**2/10 is a cubic).
    assert re.search(r'<circle cx="64.00" cy="([0-9.]+)"', svg).group(1) == fits[0].split()[0].split(",")[1]
    assert ">x (unit)</text>" in svg
