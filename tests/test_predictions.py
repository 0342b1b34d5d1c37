"""predictions.csv properties: the writer's bytes, a bit-exact round trip
through the reader (CRLF copies included), and the refusal, naming a line,
of a file edited out of written order; each property also with blocks
of one or two anchors, so that a file spans several blocks and a refused
line lies past the first. Neither the writer nor the reader holds the
whole file's text."""

import contextlib
import datetime as dt
import io
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eadforecast import cli
from eadforecast.cli import main, read_predictions_csv, write_predictions_csv
from eadforecast.data import SynthConfig, synth_generate, write_dataset
from eadforecast.metrics import Forecasts

# First anchors at month, year and leap-day boundaries, and anywhere.
FIRST_ANCHORS = st.one_of(
    st.sampled_from([
        dt.date(2019, 12, 31), dt.date(2020, 1, 31), dt.date(2020, 2, 28), dt.date(2020, 2, 29),
        dt.date(2021, 2, 28), dt.date(2023, 12, 30), dt.date(2024, 2, 29),
    ]),
    st.dates(dt.date(2000, 1, 1), dt.date(2099, 12, 31)),
)
SPECIAL_VALUES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, -1.0 / 3.0, np.inf, -np.inf]),
    st.floats(allow_nan=False),
)


@st.composite
def forecasts(draw, max_anchors=80, max_k=28):
    """Consecutive anchors with K values each: random magnitudes from a
    drawn seed, with drawn special values at drawn places."""
    first = draw(FIRST_ANCHORS)
    n, k = draw(st.integers(1, max_anchors)), draw(st.integers(1, max_k))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    y = rng.normal(200.0, 80.0, size=(n, k)) * 10.0 ** rng.integers(-20, 20, size=(n, k))
    for i, value in draw(st.lists(st.tuples(st.integers(0, n * k - 1), SPECIAL_VALUES), max_size=8)):
        y.flat[i] = value
    return Forecasts(first, y)


def as_bytes(forecasts):
    return forecasts.start, forecasts.values.shape, forecasts.values.tobytes()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("predictions")


# Lines per block in the small-block runs of each property: a block is then
# one anchor when K > 1, two when K = 1.
SMALL_BLOCK = 2


def small_blocks(test):
    """The test, run with predictions.csv written and read SMALL_BLOCK lines
    (rounded down to whole anchors, one at least) at a time."""
    def run(*args, **kwargs):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cli, "PREDICTIONS_BLOCK", SMALL_BLOCK)
            return test(*args, **kwargs)
    return run


def check_round_trip(workdir, fc):
    path = workdir / "predictions.csv"
    write_predictions_csv(path, fc)
    # One row per anchor and step: the target is anchor + step - 1 and the
    # value its repr. (Compared as lists of lines: pytest reports the first
    # line that differs, where a diff of the whole text can take minutes.)
    assert path.read_text().splitlines(keepends=True) == ["anchor_date,step,target_date,value\n"] + [
        f"{fc.start + dt.timedelta(days=a)},{n + 1},{fc.start + dt.timedelta(days=a + n)},{float(v)!r}\n"
        for a, vec in enumerate(fc.values) for n, v in enumerate(vec)
    ]
    assert as_bytes(read_predictions_csv(path)) == as_bytes(fc)
    crlf = workdir / "crlf.csv"
    crlf.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
    assert as_bytes(read_predictions_csv(crlf)) == as_bytes(fc)


@given(fc=forecasts())
def test_round_trip_is_bit_exact(workdir, fc):
    check_round_trip(workdir, fc)


@given(fc=forecasts())
def test_round_trip_is_bit_exact_in_small_blocks(workdir, fc):
    small_blocks(check_round_trip)(workdir, fc)


@pytest.fixture(scope="module")
def small_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    paths = write_dataset(synth_generate(SynthConfig(
        start=dt.date(2019, 12, 1), end=dt.date(2020, 3, 31)), seed=3), root)
    return paths


def evaluate(paths, preds, out):
    """Exit code and stderr of `evaluate` on preds."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["evaluate", "--weather", str(paths["weather"]), "--ead", str(paths["ead"]),
                     "--mobility", str(paths["mobility"]), "--holidays", str(paths["holidays"]),
                     "--predictions", str(preds), "--out", str(out)])
    return code, err.getvalue()


EDITS = st.sampled_from(["delete", "duplicate", "swap", "retarget", "restep"])


def write_edited(path, fc, edit, data):
    """fc written to path with one edit that takes it out of written order."""
    write_predictions_csv(path, fc)
    header, *rows = path.read_text().splitlines(keepends=True)
    n, k = fc.values.shape
    i = data.draw(st.integers(0, len(rows) - 1), label="row")
    if edit == "delete":
        # Dropping the first or last anchor of a K=1 file, or the last step
        # of a one-anchor file, leaves a file in written order.
        assume(not (k == 1 and i in (0, len(rows) - 1)) and not (n == 1 and i == len(rows) - 1))
        del rows[i]
    elif edit == "duplicate":
        rows.insert(i, rows[i])
    elif edit == "swap":
        j = data.draw(st.integers(0, len(rows) - 1).filter(lambda j: j != i), label="other row")
        rows[i], rows[j] = rows[j], rows[i]
    elif edit == "retarget":
        anchor, step, target, value = rows[i].split(",")
        shift = data.draw(st.integers(-400, 400).filter(bool), label="days")
        moved = dt.date.fromisoformat(target) + dt.timedelta(days=shift)
        rows[i] = ",".join([anchor, step, moved.isoformat(), value])
    else:
        anchor, step, target, value = rows[i].split(",")
        other = data.draw(st.sampled_from([str(int(step) + 1), str(int(step) - 1), "0" + step,
                                           f" {step}", "+" + step]), label="step")
        rows[i] = ",".join([anchor, other, target, value])
    path.write_text(header + "".join(rows))


@settings(max_examples=60)
@given(fc=forecasts(max_anchors=12, max_k=5), edit=EDITS, data=st.data())
def test_a_row_out_of_written_order_exits_2_naming_its_line(small_dataset, workdir, fc, edit, data):
    path = workdir / "edited.csv"
    write_edited(path, fc, edit, data)
    code, err = evaluate(small_dataset, path, workdir / "run")
    assert code == 2, err
    assert re.search(rf"{re.escape(str(path))}:\d+: ", err), err


@settings(max_examples=60)
@given(fc=forecasts(max_anchors=12, max_k=5), edit=EDITS, data=st.data())
def test_a_row_out_of_written_order_is_named_alike_in_small_blocks(small_dataset, workdir, fc, edit,
                                                                     data):
    # The refusal, line number included, does not depend on where blocks end.
    path = workdir / "edited.csv"
    write_edited(path, fc, edit, data)
    code, err = evaluate(small_dataset, path, workdir / "run")
    assert code == 2 and re.search(rf"{re.escape(str(path))}:\d+: ", err), err
    assert small_blocks(evaluate)(small_dataset, path, workdir / "run") == (code, err)


@pytest.mark.parametrize("where", ["header", "row"])
def test_a_file_that_is_not_utf8_exits_2(small_dataset, workdir, where):
    path = workdir / "latin1.csv"
    write_predictions_csv(path, Forecasts(dt.date(2020, 1, 1), [[1.0, 2.0]]))
    text = path.read_bytes()
    path.write_bytes(text.replace(b"target", b"t\xe9rget") if where == "header" else text + b"\xe9\n")
    code, err = evaluate(small_dataset, path, workdir / "run")
    assert code == 2 and "not UTF-8" in err, err


@pytest.mark.parametrize("value", ["1_000", "\u0661\u0662", "\uff15\uff10"])
def test_a_value_python_reads_but_an_input_file_may_not_hold_exits_2(small_dataset, workdir, value):
    # float() reads 1_000, Arabic-Indic 12 and full-width 50; the input
    # files refuse them (data.cell_fault), and so does predictions.csv.
    path = workdir / "numerals.csv"
    write_predictions_csv(path, Forecasts(dt.date(2020, 1, 1), [[1.0, 2.0], [3.0, 4.0]]))
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + "," + value
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code, err = evaluate(small_dataset, path, workdir / "run")
    assert code == 2 and f"{path}:4: bad value {value!r}" in err, err
    assert small_blocks(evaluate)(small_dataset, path, workdir / "run") == (code, err)


def test_the_default_forecast_is_written_and_read_in_little_memory(workdir):
    # The default dataset's 2,319 anchors at K=28 (65k lines, 2.8 MB of
    # text): the writer streams its blocks into the file and the reader
    # checks one block at a time, so neither peak is near the text's size.
    # The values alone take 0.52 MB, which the reader returns.
    fc = Forecasts(dt.date(2014, 4, 15), np.random.default_rng(0).normal(200.0, 80.0, size=(2319, 28)))
    path = workdir / "k28.csv"
    peaks = []
    for step in (lambda: write_predictions_csv(path, fc), lambda: read_predictions_csv(path)):
        tracemalloc.start()
        try:
            step()
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert path.stat().st_size > 2 << 20
    assert peaks[0] < 1 << 20 and peaks[1] < 2 << 20, peaks
