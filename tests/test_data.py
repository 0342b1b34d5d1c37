"""Ingestion, calendar labels, mobility gap filling, windowing, and the
synthetic generator."""

import bisect
import contextlib
import datetime as dt
import io
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eadforecast import data as data_mod
from eadforecast.cli import RunConfig, main
from eadforecast.data import (
    EAD_CSV,
    FEATURE_ORDER,
    GROUPS,
    Days,
    SynthConfig,
    day_labels,
    feature_names,
    fill_mobility,
    load_dataset,
    load_holidays,
    make_windows,
    month_end,
    read_dated_csv,
    synth_generate,
    write_dataset,
)
from eadforecast.errors import ConfigError, DataError
from eadforecast.training import apply_scaler, fit_scaler
from tests.oracles import fill_mobility_by_days, per_window_scaled


def write(path, text):
    path.write_text(text)
    return path


WEATHER_HEADER = "date,tmax_c,humidity_pct"
EAD_HEADER = "date,all,children,adult,elderly,outdoor,indoor"
MOBILITY_HEADER = "date,mobility_pct"


def csv_file(path, header, rows):
    return write(path, "".join(line + "\n" for line in [header, *rows]))


def weather_csv(tmp_path, rows):
    return csv_file(tmp_path / "weather.csv", WEATHER_HEADER, rows)


def ead_csv(tmp_path, rows):
    return csv_file(tmp_path / "ead.csv", EAD_HEADER, rows)


def dataset_rows(days, start=dt.date(2020, 1, 1)):
    """Weather and EAD rows of `days` consecutive days from start (a
    Wednesday): 10 degC, 60 %, and counts 100,10,40,50,20,80."""
    dates = [(start + dt.timedelta(days=n)).isoformat() for n in range(days)]
    return [f"{d},10.0,60.0" for d in dates], [f"{d},100,10,40,50,20,80" for d in dates]


def load_rows(tmp_path, weather, ead, mobility=None, holidays=None):
    """load_dataset over files of these rows; mobility and holidays are left
    out when None."""
    return load_dataset(
        weather_csv(tmp_path, weather), ead_csv(tmp_path, ead),
        None if mobility is None else csv_file(tmp_path / "mobility.csv", MOBILITY_HEADER, mobility),
        None if holidays is None else write(tmp_path / "holidays.txt", holidays),
    )


# Each case edits the rows of a valid five-day dataset from 2020-01-01
# (line 2 of a file is its first row) and names the one refusal it gives,
# {path} being the file's path.
BAD_ROWS = {
    "weather_no_rows": ("weather", lambda rows: [], "{path}: no data rows"),
    "weather_fields": ("weather", lambda rows: [rows[0], rows[1] + ",5"],
                       "{path}:3: expected 3 fields, got 4"),
    "weather_blank_line": ("weather", lambda rows: [rows[0], ""], "{path}:3: expected 3 fields, got 0"),
    "weather_bad_date": ("weather", lambda rows: ["2020-01-32,10.0,60.0"],
                         "{path}:2: bad date '2020-01-32': "),
    "weather_bad_number": ("weather", lambda rows: [rows[0], "2020-01-02,oops,71.5"],
                           "{path}:3: bad tmax_c 'oops'"),
    "weather_bad_humidity": ("weather", lambda rows: ["2020-01-01,10.0,1_0"],
                             "{path}:2: bad humidity_pct '1_0'"),
    "weather_nan": ("weather", lambda rows: [rows[0], "2020-01-02,nan,60.0"], "{path}:3: non-finite value"),
    "weather_inf_humidity": ("weather", lambda rows: ["2020-01-01,10.0,inf"], "{path}:2: non-finite value"),
    "weather_humidity_range": ("weather", lambda rows: ["2020-01-01,10.5,160.0"],
                               "{path}:2: humidity 160.0 outside [0, 100]"),
    "weather_duplicate": ("weather", lambda rows: [rows[0], rows[1], "2020-01-01,11.0,61.0"],
                          "{path}:4: duplicate date 2020-01-01"),
    "ead_no_rows": ("ead", lambda rows: [], "{path}: no data rows"),
    "ead_fields": ("ead", lambda rows: [rows[0], "2020-01-02,100,10,40,50,20"],
                   "{path}:3: expected 7 fields, got 6"),
    "ead_bad_count": ("ead", lambda rows: ["2020-01-01,100,10,4.0,50,20,80"],
                      "{path}:2: bad count for adult '4.0'"),
    "ead_negative": ("ead", lambda rows: ["2020-01-01,100,10,40,-50,20,80"],
                     "{path}:2: negative count for elderly"),
    "ead_above_2_53": ("ead", lambda rows: [f"2020-01-01,100,10,{2**53},50,20,80",
                                            f"2020-01-02,100,10,{2**53 + 1},50,20,80"],
                       "{path}:3: count for adult above 2**53"),
    "ead_duplicate": ("ead", lambda rows: [*rows, rows[2]], "{path}:7: duplicate date 2020-01-03"),
    "mobility_fields": ("mobility", lambda rows: ["2020-01-01,80.0,1"], "{path}:2: expected 2 fields, got 3"),
    "mobility_bad_number": ("mobility", lambda rows: ["2020-01-01,eighty"],
                            "{path}:2: bad mobility_pct 'eighty'"),
    "mobility_zero": ("mobility", lambda rows: ["2020-01-01,80.0", "2020-01-02,0"],
                      "{path}:3: mobility must be a positive number"),
    "mobility_negative": ("mobility", lambda rows: ["2020-01-01,-5.0"],
                          "{path}:2: mobility must be a positive number"),
    "mobility_nan": ("mobility", lambda rows: ["2020-01-01,nan"], "{path}:2: mobility must be a positive number"),
    "mobility_inf": ("mobility", lambda rows: ["2020-01-01,inf"], "{path}:2: mobility must be a positive number"),
    "mobility_duplicate": ("mobility", lambda rows: ["2020-01-01,80.0", "2020-01-01,81.0"],
                           "{path}:3: duplicate date 2020-01-01"),
    # Several faults: the first faulty row is named, and within a row the
    # width and date come first, then the cells in order, then the checks,
    # then a repeated date.
    "cell_before_width": ("weather", lambda rows: [rows[0], "2020-01-02,oops,60.0", "2020-01-03,1.0"],
                          "{path}:3: bad tmax_c 'oops'"),
    "check_before_cell": ("weather", lambda rows: ["2020-01-01,10.0,160.0", "2020-01-02,oops,60.0"],
                          "{path}:2: humidity 160.0 outside [0, 100]"),
    "repeat_before_check": ("weather", lambda rows: [rows[0], rows[0], "2020-01-02,nan,60.0"],
                            "{path}:3: duplicate date 2020-01-01"),
    "date_before_cell": ("ead", lambda rows: ["2020-13-01,x,1,1,1,1,1"], "{path}:2: bad date '2020-13-01': "),
    "cells_in_order": ("ead", lambda rows: ["2020-01-01,1,-1,x,1,1,1"], "{path}:2: negative count for children"),
    "cell_before_repeat": ("mobility", lambda rows: ["2020-01-01,80.0", "2020-01-01,0x10"],
                           "{path}:3: bad mobility_pct '0x10'"),
}


class TestLoadDataset:
    def test_three_day_table(self, tmp_path):
        w, e = dataset_rows(3)
        w[1] = "2020-01-02,-2.5,71.5"
        e[2] = "2020-01-03,7,1,2,4,3,4"
        days = load_rows(tmp_path, w, e)
        assert len(days) == 3 and days.start == dt.date(2020, 1, 1)
        assert days.tmax.tolist() == [10.0, -2.5, 10.0]
        assert days.humidity.tolist() == [60.0, 71.5, 60.0]
        assert days.day_label.tolist() == [1.0, 1.0, 1.0]  # Wednesday .. Friday
        assert np.isnan(days.mobility).all()
        assert {g: c.tolist() for g, c in days.counts.items()} == {
            "all": [100, 100, 7], "children": [10, 10, 1], "adult": [40, 40, 2],
            "elderly": [50, 50, 4], "outdoor": [20, 20, 3], "indoor": [80, 80, 4]}
        assert all(c.dtype == np.float64 for c in (days.tmax, days.mobility, *days.counts.values()))

    def test_span_is_where_weather_and_ead_overlap(self, tmp_path):
        w, _ = dataset_rows(5)
        _, e = dataset_rows(5, start=dt.date(2020, 1, 3))
        days = load_rows(tmp_path, w, e)
        assert days.start == dt.date(2020, 1, 3) and len(days) == 3

    def test_holidays_label_days_off(self, tmp_path):
        w, e = dataset_rows(5)
        days = load_rows(tmp_path, w, e, holidays="2020-01-02\n")
        assert days.day_label.tolist() == [1.0, 0.0, 1.0, 0.0, 0.0]  # Saturday, Sunday

    def test_rows_out_of_date_order_are_accepted(self, tmp_path):
        w, e = dataset_rows(5)
        w[1] = "2020-01-02,-2.5,71.5"
        e[3] = "2020-01-04,7,1,2,4,3,4"
        mobility = ["2020-01-03,60.0", "2020-01-01,80.0"]
        ordered = load_rows(tmp_path, w, e, mobility)
        shuffled = load_rows(tmp_path, w[::-1], [e[2], e[4], e[0], e[3], e[1]], mobility[::-1])
        assert shuffled.start == ordered.start
        for name in ("tmax", "humidity", "day_label", "mobility"):
            assert getattr(shuffled, name).tobytes() == getattr(ordered, name).tobytes(), name
        assert all(shuffled.counts[g].tobytes() == ordered.counts[g].tobytes() for g in GROUPS)
        assert np.array_equal(ordered.mobility, [80.0, np.nan, 60.0, np.nan, np.nan], equal_nan=True)

    def test_mobility_sparse_ok(self, tmp_path):
        w, e = dataset_rows(5)
        days = load_rows(tmp_path, w, e, ["2020-01-04,42.5"])
        assert np.array_equal(days.mobility, [np.nan, np.nan, np.nan, 42.5, np.nan], equal_nan=True)

    def test_mobility_suffix_coverage(self, tmp_path):
        # Sparse mobility covering only the end of the span loads fine and
        # leaves earlier days to fill_mobility.
        w, e = dataset_rows(5)
        days = load_rows(tmp_path, w, e, ["2020-01-04,80.0", "2020-01-05,60.0"])
        assert np.array_equal(days.mobility, [np.nan, np.nan, np.nan, 80.0, 60.0], equal_nan=True)

    def test_mobility_days_outside_the_span_are_ignored(self, tmp_path):
        w, e = dataset_rows(3)
        days = load_rows(tmp_path, w, e, ["2019-12-31,50.0", "2020-01-02,80.0", "2020-01-04,60.0",
                                          "2021-06-01,70.0"])
        assert np.array_equal(days.mobility, [np.nan, 80.0, np.nan], equal_nan=True)

    def test_empty_mobility_file_is_allowed(self, tmp_path):
        w, e = dataset_rows(3)
        assert np.isnan(load_rows(tmp_path, w, e, []).mobility).all()

    @pytest.mark.parametrize("case", BAD_ROWS)
    def test_bad_rows_are_refused_naming_the_line(self, tmp_path, case):
        name, edit, message = BAD_ROWS[case]
        rows = dict(zip(("weather", "ead"), dataset_rows(5)), mobility=["2020-01-02,80.0"])
        rows[name] = edit(rows[name])
        with pytest.raises(DataError) as err:
            load_rows(tmp_path, rows["weather"], rows["ead"], rows["mobility"])
        message, got = message.format(path=tmp_path / f"{name}.csv"), str(err.value)
        # A bad date's message ends in Python's own reason, left unchecked.
        assert got == message or message.endswith(": ") and got.startswith(message)

    @pytest.mark.parametrize("name,header", [
        ("weather", "day,tmax,rh"), ("weather", "date,tmax_c"), ("ead", EAD_HEADER.replace("all,", "")),
        ("ead", "date,all,adult,children,elderly,outdoor,indoor"), ("mobility", "date,mobility")])
    def test_bad_header_rejected(self, tmp_path, name, header):
        w, e = dataset_rows(3)
        files = {"weather": weather_csv(tmp_path, w), "ead": ead_csv(tmp_path, e),
                 "mobility": csv_file(tmp_path / "mobility.csv", MOBILITY_HEADER, [])}
        write(files[name], header + "\n")
        with pytest.raises(DataError) as err:
            load_dataset(files["weather"], files["ead"], files["mobility"])
        assert str(err.value).startswith(f"{files[name]}: bad header {header.split(',')}; expected ")

    @pytest.mark.parametrize("name", ["weather", "ead", "mobility"])
    def test_empty_file_and_missing_file(self, tmp_path, name):
        w, e = dataset_rows(3)
        files = {"weather": weather_csv(tmp_path, w), "ead": ead_csv(tmp_path, e),
                 "mobility": csv_file(tmp_path / "mobility.csv", MOBILITY_HEADER, [])}
        write(files[name], "")
        with pytest.raises(DataError, match=f"^{files[name]}: empty file$"):
            load_dataset(files["weather"], files["ead"], files["mobility"])
        files[name].unlink()
        with pytest.raises(DataError, match=f"^input file not found: {files[name]}$"):
            load_dataset(files["weather"], files["ead"], files["mobility"])

    def test_no_overlap_refused(self, tmp_path):
        w, _ = dataset_rows(3)
        _, e = dataset_rows(3, start=dt.date(2020, 1, 4))
        with pytest.raises(DataError, match="^weather and EAD files do not overlap in time$"):
            load_rows(tmp_path, w, e)

    def test_gap_reported(self, tmp_path):
        w, e = dataset_rows(3)
        del w[1]  # drop 2020-01-02 from weather
        with pytest.raises(DataError, match=r"^date gaps in the merged span: 2020-01-02 \(weather\)$"):
            load_rows(tmp_path, w, e)

    def test_gaps_name_each_file_and_stop_after_ten(self, tmp_path):
        # Day n of the 30 is missing from weather if n % 3 == 1, from EAD if
        # n % 4 == 1. EAD lacks the last day, 29, so the span ends at day 28,
        # and its gaps are days 1, 4, 5, 7, 9, 10, 13, 16, 17, 19, 21, 22, 25, 28.
        w, e = dataset_rows(30)
        days = [dt.date(2020, 1, 1) + dt.timedelta(days=n) for n in range(30)]
        w = [row for n, row in enumerate(w) if n % 3 != 1]
        e = [row for n, row in enumerate(e) if n % 4 != 1]
        with pytest.raises(DataError) as err:
            load_rows(tmp_path, w, e)
        shown = [f"{days[1]} (weather/ead)", f"{days[4]} (weather)", f"{days[5]} (ead)",
                 f"{days[7]} (weather)", f"{days[9]} (ead)", f"{days[10]} (weather)",
                 f"{days[13]} (weather/ead)", f"{days[16]} (weather)", f"{days[17]} (ead)",
                 f"{days[19]} (weather)"]
        assert str(err.value) == f"date gaps in the merged span: {', '.join(shown)} and 4 more"

    def test_ten_gaps_have_no_cut_off(self, tmp_path):
        w, e = dataset_rows(12)
        del w[1:11]
        with pytest.raises(DataError) as err:
            load_rows(tmp_path, w, e)
        assert str(err.value) == "date gaps in the merged span: " + ", ".join(
            f"2020-01-{n:02d} (weather)" for n in range(2, 12))

    def test_files_are_read_in_order_before_the_span_check(self, tmp_path):
        # Every file has one fault and weather and EAD do not overlap: the
        # first file in the order weather, EAD, mobility, holidays is named;
        # with the files mended one by one, the next.
        w, _ = dataset_rows(3)
        _, e = dataset_rows(3, start=dt.date(2020, 2, 1))
        faults = {
            "weather": (w, [w[0], "2020-01-02,oops,60.0"]),
            "ead": (e, [e[0], "2020-02-02,1,1,1,1,1"]),
            "mobility": (["2020-01-01,80.0"], ["2020-01-01,0.0"]),
            "holidays": ("2020-01-01\n", "2020-13-01\n"),
        }
        errors = []
        for mended in range(5):
            files = {name: (good if n < mended else bad) for n, (name, (good, bad)) in enumerate(faults.items())}
            with pytest.raises(DataError) as err:
                load_rows(tmp_path, files["weather"], files["ead"], files["mobility"], files["holidays"])
            errors.append(str(err.value))
        assert errors[0] == f"{tmp_path / 'weather.csv'}:3: bad tmax_c 'oops'"
        assert errors[1] == f"{tmp_path / 'ead.csv'}:3: expected 7 fields, got 6"
        assert errors[2] == f"{tmp_path / 'mobility.csv'}:2: mobility must be a positive number"
        assert errors[3].startswith(f"{tmp_path / 'holidays.txt'}:1: bad date '2020-13-01': ")
        assert errors[4] == "weather and EAD files do not overlap in time"

    def test_reader_returns_day_numbers_and_values_in_file_order(self, tmp_path):
        path = ead_csv(tmp_path, ["2020-01-02,7,1,2,4,3,4", f"2019-12-31,{2**53},10,40,50,20,0"])
        days, values = read_dated_csv(path, EAD_CSV)
        assert days.tolist() == [dt.date(2020, 1, 2).toordinal(), dt.date(2019, 12, 31).toordinal()]
        assert values.dtype == np.float64
        assert values.tolist() == [[7, 1, 2, 4, 3, 4], [2**53, 10, 40, 50, 20, 0]]

    def test_holidays_with_comments(self, tmp_path):
        path = write(tmp_path / "holidays.txt", "# new year\n2020-01-01\n\n2020-05-04 # midweek\n")
        assert load_holidays(path) == {dt.date(2020, 1, 1), dt.date(2020, 5, 4)}


class TestCalendarLabels:
    def test_saturday_is_off(self):
        assert day_labels(dt.date(2020, 1, 4), 1, set())[0] == 0

    def test_midweek_holiday_is_off(self):
        wednesday = dt.date(2020, 1, 8)
        assert day_labels(wednesday, 1, {wednesday})[0] == 0

    def test_plain_tuesday_is_working(self):
        assert day_labels(dt.date(2020, 1, 7), 1, set())[0] == 1

    def test_a_week_from_monday(self):
        monday = dt.date(2020, 1, 6)
        assert day_labels(monday, 7, {monday + dt.timedelta(days=2)}).tolist() == [
            1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 0.0]


def plain_days(start, mobility):
    """A table of len(mobility) days from start: 10 degC, 60 %, working
    days, 10 dispatches in every group, and mobility as given (None: NaN)."""
    n = len(mobility)
    return Days(start, np.full(n, 10.0), np.full(n, 60.0), np.ones(n),
                np.array([np.nan if m is None else m for m in mobility], dtype=np.float64),
                {g: np.full(n, 10.0) for g in GROUPS})


def date_range(start, days):
    return [start + dt.timedelta(days=n) for n in range(days)]


class TestDays:
    def test_between_clips_to_the_table(self):
        days = plain_days(dt.date(2020, 5, 1), [float(m) for m in range(1, 11)])
        cut = days.between(dt.date(2020, 4, 20), dt.date(2020, 5, 3))
        assert cut.start == dt.date(2020, 5, 1) and cut.mobility.tolist() == [1.0, 2.0, 3.0]
        cut = days.between(dt.date(2020, 5, 9), dt.date(2020, 6, 3))
        assert cut.start == dt.date(2020, 5, 9) and cut.mobility.tolist() == [9.0, 10.0]
        assert all(len(c) == 2 for c in (cut.tmax, cut.humidity, cut.day_label, *cut.counts.values()))
        for first, last in [(dt.date(2020, 4, 1), dt.date(2020, 4, 30)),
                            (dt.date(2020, 5, 11), dt.date(2020, 5, 20)),
                            (dt.date(2020, 5, 5), dt.date(2020, 5, 4))]:
            assert len(days.between(first, last)) == 0

    def test_date_and_offset(self):
        days = plain_days(dt.date(2020, 2, 27), [1.0] * 4)
        assert [days.date(i) for i in range(4)] == date_range(dt.date(2020, 2, 27), 4)
        assert days.offset(dt.date(2020, 3, 1)) == 3 and days.offset(dt.date(2020, 2, 25)) == -2


class TestFillMobility:
    def test_interior_gap_midpoint(self):
        filled = fill_mobility(plain_days(dt.date(2020, 5, 1), [80.0, None, 60.0]), "2020-01")
        assert filled.mobility[1] == 70.0

    def test_january_baseline_is_100(self):
        filled = fill_mobility(plain_days(dt.date(2020, 1, 1), [None] * 31), baseline_month="2020-01")
        assert (filled.mobility == 100.0).all()

    def test_baseline_to_first_observation_interpolates(self):
        # Anchor at Jan 31 (100) to Apr 18 (40): Mar 5 is 34 of 78 days in,
        # so 100 + (40-100)*34/78.
        mobility = [None] * 200
        mobility[(dt.date(2020, 4, 18) - dt.date(2020, 1, 1)).days] = 40.0
        filled = fill_mobility(plain_days(dt.date(2020, 1, 1), mobility), baseline_month="2020-01")
        idx_mar5 = (dt.date(2020, 3, 5) - dt.date(2020, 1, 1)).days
        expected = 100.0 + (40.0 - 100.0) * 34.0 / 78.0
        assert filled.mobility[idx_mar5] == pytest.approx(expected, abs=1e-12)
        assert filled.mobility[10] == 100.0  # leading January day

    def test_trailing_hold(self):
        filled = fill_mobility(plain_days(dt.date(2020, 5, 1), [70.0, None, None, None]), "2020-01")
        assert filled.mobility.tolist() == [70.0, 70.0, 70.0, 70.0]

    def test_piecewise_linear_between_observations(self):
        # Second difference vanishes strictly between observation points.
        mobility = [None] * 30
        mobility[0], mobility[12], mobility[29] = 90.0, 54.0, 71.0
        values = fill_mobility(plain_days(dt.date(2020, 2, 1), mobility), "2020-01").mobility
        for seg in (values[0:13], values[12:30]):
            assert np.allclose(np.diff(seg, n=2), 0.0, atol=1e-9)

    @given(st.data())
    def test_invariants(self, data):
        # Observed values are kept, unobserved baseline-month days before the
        # first observation are 100, every other filled day lies between its
        # known neighbours (or holds the nearest one), all are positive, and
        # each equals the day-by-day fill's value bit for bit.
        span = data.draw(st.integers(1, 60), "span")
        start = data.draw(st.dates(dt.date(2019, 10, 1), dt.date(2020, 4, 1)), "start")
        dates = date_range(start, span)
        mobility = data.draw(st.lists(
            st.none() | st.floats(1.0, 250.0), min_size=span, max_size=span), "mobility")
        month = data.draw(st.sampled_from(["2019-09", "2019-12", "2020-01", "2020-03"]), "baseline month")
        filled = fill_mobility(plain_days(start, mobility), month).mobility.tolist()
        assert filled == fill_mobility_by_days(plain_days(start, mobility), month)
        known = {d: m for d, m in zip(dates, mobility) if m is not None}
        baseline_end = month_end(month)
        if not known or min(known) > baseline_end:
            known[baseline_end] = 100.0
        known_days = sorted(known)
        for day, got, observed in zip(dates, filled, mobility):
            assert got > 0.0
            if observed is not None:
                assert got == observed
                continue
            if day <= baseline_end and day <= known_days[0]:
                assert got == 100.0
                continue
            n = bisect.bisect(known_days, day)
            neighbours = [known[d] for d in known_days[max(n - 1, 0) : n + 1]]
            if len(neighbours) == 1:
                assert got == neighbours[0]
            else:
                assert min(neighbours) <= got <= max(neighbours)

    def test_returns_a_new_table_and_leaves_its_input(self):
        days = plain_days(dt.date(2020, 5, 1), [80.0, None, 60.0])
        filled = fill_mobility(days, "2020-01")
        assert filled.mobility.tolist() == [80.0, 70.0, 60.0]
        assert np.array_equal(days.mobility, [80.0, np.nan, 60.0], equal_nan=True)
        assert filled.start == days.start and filled.tmax is days.tmax
        assert filled.counts is days.counts

    @pytest.mark.parametrize("month", ["2020-00", "2020-0", "2020-13", "2020-1", "20-01", "2020/01",
                                       "", " 2020-01", "2020-01 ", "２０２０-01", "0000-01"])
    def test_baseline_month_not_yyyy_mm_is_refused(self, month):
        with pytest.raises(ValueError):
            month_end(month)
        with pytest.raises(ConfigError, match="bad baseline month"):
            fill_mobility(plain_days(dt.date(2020, 5, 1), [80.0]), baseline_month=month)

    def test_month_end(self):
        assert [month_end(m) for m in ("2020-01", "2020-02", "2019-02", "2020-12", "9999-12")] == [
            dt.date(2020, 1, 31), dt.date(2020, 2, 29), dt.date(2019, 2, 28), dt.date(2020, 12, 31),
            dt.date(9999, 12, 31)]


# Cells of fuzzed dataset rows: arbitrary text, near-misses of valid values
# and numbers.
FUZZ_CELLS = st.one_of(
    st.text(max_size=10),
    st.sampled_from([
        "", " ", "nan", "inf", "-inf", "1e999", "-1", "0", "1_000", "0x10", "\uff11\uff12", '"', '""',
        "'", "\r", "\x00", "2020-01-05", "2020-02-30", "20200105", "2020-01-05T00:00", " 2020-01-06",
    ]),
    st.integers(-10**6, 10**6).map(str),
    st.floats().map(repr),
)


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    """A three-month dataset and a valid K=1 predictions file for January."""
    root = tmp_path_factory.mktemp("fuzz")
    paths = write_dataset(synth_generate(SynthConfig(
        start=dt.date(2019, 12, 1), end=dt.date(2020, 2, 29)), seed=4), root)
    preds = root / "predictions.csv"
    preds.write_text("anchor_date,step,target_date,value\n" + "".join(
        f"{d},1,{d},{100.0 + 7 * n % 23!r}\n" for n, d in enumerate(date_range(dt.date(2020, 1, 1), 31))))
    paths = {name: paths[name] for name in ("weather", "ead", "mobility", "holidays")}
    args = [arg for key, path in paths.items() for arg in (f"--{key}", str(path))]
    assert main(["evaluate", *args, "--predictions", str(preds), "--out", str(root / "run")]) == 0
    return paths, preds


class TestFuzzedRows:
    @settings(max_examples=120)
    @given(name=st.sampled_from(["weather", "ead", "mobility", "holidays"]),
           edit=st.sampled_from(["cell", "cell", "cell", "drop cell", "add cell", "row", "insert row"]),
           data=st.data())
    def test_load_or_exit_2(self, fuzz_dataset, tmp_path_factory, name, edit, data):
        # One line of one dataset file gets a fuzzed cell, loses or gains a
        # cell, or is replaced or joined by a fuzzed row: evaluate runs
        # (exit 0) or refuses the data (exit 2); nothing else escapes main.
        paths, preds = fuzz_dataset
        lines = paths[name].read_text().splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 1), "line")
        cells = lines[i].rstrip("\n").split(",")
        if edit == "row" or edit == "insert row":
            row = data.draw(st.lists(FUZZ_CELLS, max_size=8), "row")
            lines[i : i if edit == "insert row" else i + 1] = [",".join(row) + "\n"]
        else:
            j = data.draw(st.integers(0, len(cells) - (0 if edit == "add cell" else 1)), "cell")
            cells[j : j if edit == "add cell" else j + 1] = (
                [] if edit == "drop cell" else [data.draw(FUZZ_CELLS, "fuzzed cell")])
            lines[i] = ",".join(cells) + "\n"
        work = tmp_path_factory.mktemp("fuzzed")
        files = {key: work / path.name for key, path in paths.items()}
        for key, path in paths.items():
            files[key].write_bytes(
                "".join(lines).encode("utf-8") if key == name else path.read_bytes())
        args = [arg for key, path in files.items() for arg in (f"--{key}", str(path))]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["evaluate", *args, "--predictions", str(preds), "--out", str(work / "run")])
        assert code in (0, 2), err.getvalue()


    @pytest.mark.parametrize("name", ["weather", "ead", "mobility", "holidays"])
    @pytest.mark.parametrize("line", [0, -1])
    def test_bytes_that_are_not_utf8_exit_2(self, fuzz_dataset, tmp_path, name, line):
        paths, preds = fuzz_dataset
        files = {key: tmp_path / path.name for key, path in paths.items()}
        for key, path in paths.items():
            lines = path.read_bytes().splitlines(keepends=True)
            if key == name:
                lines[line] = lines[line].replace(b",", b"\xe9,", 1) if b"," in lines[line] else b"\xe9\n"
            files[key].write_bytes(b"".join(lines))
        args = [arg for key, path in files.items() for arg in (f"--{key}", str(path))]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["evaluate", *args, "--predictions", str(preds), "--out", str(tmp_path / "run")])
        assert code == 2, err.getvalue()


class TestFeatureNames:
    def test_canonical_order(self):
        assert feature_names(["mobility", "temperature"]) == ("temperature", "mobility")
        assert feature_names(reversed(FEATURE_ORDER)) == FEATURE_ORDER

    @pytest.mark.parametrize("names,message", [
        (["temperature", "wind"], r"unknown feature\(s\) \['wind'\]"),
        ([], "at least one feature"),
        (["humidity", "humidity"], "feature names repeat"),
    ])
    def test_refused(self, names, message):
        with pytest.raises(ConfigError, match=message):
            feature_names(names)
        with pytest.raises(ConfigError, match=message):
            make_windows(plain_days(dt.date(2020, 1, 1), [100.0] * 10), 7, 1, names)


class TestMakeWindows:
    def table(self, days):
        return plain_days(dt.date(2020, 1, 1), [100.0] * days)

    def test_count_span10_l7_k1(self):
        _, rows, targets = make_windows(self.table(10), 7, 1, FEATURE_ORDER)
        assert rows.shape == (3, 7) and targets.shape == (3, 1)

    def test_count_span10_l7_k3(self):
        _, rows, targets = make_windows(self.table(10), 7, 3, FEATURE_ORDER)
        assert rows.shape == (1, 7) and targets.shape == (1, 3)

    def test_count_formula_property(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            span = int(rng.integers(2, 40))
            L = int(rng.integers(1, span))
            K = int(rng.integers(1, span - L + 1))
            _, rows, targets = make_windows(self.table(span), L, K, FEATURE_ORDER)
            assert len(rows) == len(targets) == span - L - K + 1

    def test_features_pick_columns_in_canonical_order(self):
        days = replace(self.table(10), tmax=np.full(10, 1.0), humidity=np.full(10, 2.0),
                       day_label=np.full(10, 3.0), mobility=np.full(10, 4.0))
        features, rows, _ = make_windows(days, 7, 1, ("mobility", "temperature", "day_label"))
        assert features[rows][0].shape == (7, 3) and features[0].tolist() == [1.0, 3.0, 4.0]

    def test_span_too_short(self):
        with pytest.raises(DataError):
            make_windows(self.table(5), 7, 1, FEATURE_ORDER)

    def test_rows_are_one_read_only_arange(self):
        # Row a holds days a..a+L-1; the overlapping rows are strided views
        # of N + L - 1 indices, not N * L of their own.
        _, rows, _ = make_windows(self.table(2101), 14, 1, FEATURE_ORDER)
        assert np.array_equal(rows, np.arange(2087)[:, None] + np.arange(14))
        lo, hi = np.lib.array_utils.byte_bounds(rows)
        assert hi - lo == 8 * (2087 + 14 - 1)
        assert not rows.flags.writeable

    def test_targets_follow_inputs(self):
        days = self.table(12)
        days = replace(days, counts={**days.counts, "all": np.arange(12.0)})
        _, rows, targets = make_windows(days, 7, 3, FEATURE_ORDER)
        assert np.array_equal(targets[0], [7.0, 8.0, 9.0])
        assert np.array_equal(rows[0], np.arange(7))

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(1)
        days = replace(self.table(12), tmax=rng.normal(15, 9, 12), humidity=rng.uniform(30, 90, 12))
        features, rows, _ = make_windows(days, 7, 1, FEATURE_ORDER)
        assert features[rows][0][0, 0] == days.tmax[0]
        assert features[rows][-1][-1, 1] == days.humidity[-2]

    @given(st.data())
    def test_scaled_windows_match_the_per_window_path(self, data):
        # Random spans, L, K, feature sets and groups, with few distinct values per
        # column so constant columns, ties and signed zeros come up.
        span = data.draw(st.integers(2, 30), "span")
        L = data.draw(st.integers(1, span - 1), "L")
        K = data.draw(st.integers(1, span - L), "K")
        features = feature_names(data.draw(
            st.lists(st.sampled_from(FEATURE_ORDER), min_size=1, max_size=4, unique=True), "features"))
        group = data.draw(st.sampled_from(GROUPS), "group")
        levels = st.sampled_from(data.draw(st.lists(
            st.sampled_from([0.0, -0.0]) | st.floats(-40.0, 110.0), min_size=1, max_size=4),
            "levels"))

        def column(values):
            return np.array(data.draw(st.lists(values, min_size=span, max_size=span)), dtype=np.float64)

        days = self.table(span)
        days = replace(days, tmax=column(levels), humidity=column(levels), mobility=column(levels),
                       day_label=column(st.integers(0, 1)),
                       counts={**days.counts, group: column(st.integers(0, 3))})
        windows = make_windows(days, L, K, features, group)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # constant columns
            scaler = fit_scaler(windows)
            want_X, want_Y, want_bounds = per_window_scaled(days, L, K, features, group)
        X, Y = apply_scaler(scaler, windows)
        bounds = (scaler.feature_min, scaler.feature_max, scaler.target_min, scaler.target_max)
        for got, want in zip((X, Y, *bounds), (want_X, want_Y, *want_bounds)):
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSynthGenerate:
    SEEDS = range(6)

    def test_deterministic(self):
        a = synth_generate(SynthConfig(end=dt.date(2015, 3, 31)), seed=3).days
        b = synth_generate(SynthConfig(end=dt.date(2015, 3, 31)), seed=3).days
        assert np.array_equal(a.tmax, b.tmax) and np.array_equal(a.mobility, b.mobility)
        assert all(np.array_equal(a.counts[g], b.counts[g]) for g in GROUPS)

    def test_group_sums(self):
        counts = synth_generate(SynthConfig(end=dt.date(2015, 3, 31)), seed=0).days.counts
        assert np.array_equal(counts["children"] + counts["adult"] + counts["elderly"], counts["all"])
        assert np.array_equal(counts["outdoor"] + counts["indoor"], counts["all"])
        assert all((c >= 0).all() and (c == np.rint(c)).all() for c in counts.values())

    def test_mobility_factor_normalized_at_baseline(self):
        _, _, _, g = data_mod._dispatch_factors(20.0, 60.0, 1, 100.0)
        assert g == pytest.approx(1.0, abs=1e-15)

    def test_u_shape_present_pre_pandemic(self):
        # Counts correlate positively with distance from the comfort
        # temperature before the pandemic regime starts.
        days = synth_generate(SynthConfig(), seed=0).days
        pre = slice(0, days.offset(data_mod.PANDEMIC_START))
        dist = np.abs(days.tmax[pre] - data_mod.COMFORT_TEMP)
        corr = np.corrcoef(dist, days.counts["all"][pre])[0, 1]
        assert corr > 0.3

    def test_pandemic_mobility_is_suppressed(self):
        for seed in self.SEEDS:
            days = synth_generate(SynthConfig(), seed=seed).days
            soe = days.between(data_mod.SOE_START, data_mod.SOE_END).mobility
            pre = days.mobility[: days.offset(data_mod.PANDEMIC_START)]
            assert 15.0 < np.mean(soe) < 45.0, f"seed {seed}"
            assert np.mean(pre) > 90.0, f"seed {seed}"

    def test_a_pre_pandemic_episode_covers_a_lookback_window(self):
        # The disruption episodes exist so that some lookback windows sit
        # entirely inside a suppressed stretch: at least one episode must
        # span the default lookback within the generated days.
        cfg = SynthConfig()
        lookback = RunConfig().lookback
        for seed in self.SEEDS:
            spans = []
            for first_iso, duration, _ in synth_generate(cfg, seed=seed).truth["events"]:
                first = dt.date.fromisoformat(first_iso)
                last = first + dt.timedelta(days=duration - 1)
                assert last < data_mod.PANDEMIC_START
                spans.append((last - max(first, cfg.start)).days + 1)
            assert max(spans, default=0) >= lookback, f"seed {seed}: episode days {spans}"

    def test_default_span(self):
        days = synth_generate(SynthConfig(), seed=0).days
        assert days.start == dt.date(2014, 4, 1)
        assert days.date(len(days) - 1) == dt.date(2020, 8, 19)

    def test_invalid_span(self):
        with pytest.raises(ConfigError):
            synth_generate(SynthConfig(start=dt.date(2020, 1, 1), end=dt.date(2019, 1, 1)))


class TestWriteReadRoundTrip:
    def test_values_survive_bit_exactly(self, tmp_path):
        result = synth_generate(SynthConfig(end=dt.date(2014, 12, 31)), seed=5)
        paths, original = write_dataset(result, tmp_path), result.days
        loaded = load_dataset(
            paths["weather"], paths["ead"],
            mobility_path=paths["mobility"], holidays_path=paths["holidays"],
        )
        assert loaded.start == original.start and len(loaded) == len(original)
        for name in ("tmax", "humidity", "mobility", "day_label"):
            got, want = getattr(loaded, name), getattr(original, name)
            assert got.dtype == want.dtype == np.float64 and got.tobytes() == want.tobytes(), name
        assert all(loaded.counts[g].tobytes() == original.counts[g].tobytes() for g in GROUPS)

    def test_one_year_row_count(self, tmp_path):
        result = synth_generate(
            SynthConfig(start=dt.date(2016, 1, 1), end=dt.date(2016, 12, 31)), seed=0
        )
        assert len(result.days) == 366  # leap year


class TestStrictNumerals:
    # float() and int() read Python numerals: 1_0 as 10 and full-width or
    # Arabic-Indic digits as their values. In a dataset cell those are typos.
    @pytest.mark.parametrize("name,column,cell", [
        ("weather", 1, "1_0"), ("weather", 2, "５０"), ("ead", 1, " 1_00 "),
        ("ead", 4, "５０"), ("mobility", 1, "9_0.5"), ("mobility", 1, "٩٠"),
    ])
    def test_underscores_and_non_ascii_digits_exit_2_naming_the_line(
            self, fuzz_dataset, tmp_path, name, column, cell):
        paths, preds = fuzz_dataset
        files = {key: tmp_path / path.name for key, path in paths.items()}
        for key, path in paths.items():
            lines = path.read_text().splitlines(keepends=True)
            if key == name:
                cells = lines[5].rstrip("\n").split(",")
                cells[column] = cell
                lines[5] = ",".join(cells) + "\n"
            files[key].write_bytes("".join(lines).encode("utf-8"))
        args = [arg for key, path in files.items() for arg in (f"--{key}", str(path))]
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["evaluate", *args, "--predictions", str(preds), "--out", str(tmp_path / "run")])
        assert code == 2, err.getvalue()
        assert f"{files[name]}:6: bad " in err.getvalue()
