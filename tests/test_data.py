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
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eadforecast import data as data_mod
from eadforecast.cli import RunConfig, main
from eadforecast.data import (
    FEATURE_ORDER,
    GROUPS,
    Days,
    FeatureMask,
    SynthConfig,
    day_labels,
    fill_mobility,
    load_dataset,
    load_ead_csv,
    load_holidays,
    load_mobility_csv,
    load_weather_csv,
    make_windows,
    merge,
    month_end,
    synth_generate,
    write_dataset,
)
from eadforecast.errors import ConfigError, DataError
from eadforecast.training import apply_scaler, fit_scaler
from tests.oracles import fill_mobility_by_days, per_window_scaled


def write(path, text):
    path.write_text(text)
    return path


def weather_csv(tmp_path, rows):
    return write(tmp_path / "weather.csv", "date,tmax_c,humidity_pct\n" + "\n".join(rows) + "\n")


def ead_csv(tmp_path, rows):
    header = "date,all,children,adult,elderly,outdoor,indoor\n"
    return write(tmp_path / "ead.csv", header + "\n".join(rows) + "\n")


class TestLoaders:
    def test_weather_roundtrip(self, tmp_path):
        path = weather_csv(tmp_path, ["2020-01-01,10.5,60.0", "2020-01-02,-2.25,71.5"])
        out = load_weather_csv(path)
        assert out[dt.date(2020, 1, 2)] == (-2.25, 71.5)

    def test_weather_bad_row_reports_line(self, tmp_path):
        path = weather_csv(tmp_path, ["2020-01-01,10.5,60.0", "2020-01-02,oops,71.5"])
        with pytest.raises(DataError, match=":3:"):
            load_weather_csv(path)

    def test_weather_humidity_range(self, tmp_path):
        path = weather_csv(tmp_path, ["2020-01-01,10.5,160.0"])
        with pytest.raises(DataError, match="humidity"):
            load_weather_csv(path)

    def test_duplicate_date_rejected(self, tmp_path):
        path = weather_csv(tmp_path, ["2020-01-01,10.5,60.0", "2020-01-01,11.0,61.0"])
        with pytest.raises(DataError, match="duplicate"):
            load_weather_csv(path)

    def test_bad_header_rejected(self, tmp_path):
        path = write(tmp_path / "weather.csv", "day,tmax,rh\n2020-01-01,1,2\n")
        with pytest.raises(DataError, match="header"):
            load_weather_csv(path)

    def test_ead_counts(self, tmp_path):
        path = ead_csv(tmp_path, ["2020-01-01,100,10,40,50,20,80"])
        out = load_ead_csv(path)
        assert out[dt.date(2020, 1, 1)]["elderly"] == 50

    def test_ead_negative_rejected(self, tmp_path):
        path = ead_csv(tmp_path, ["2020-01-01,100,10,40,-50,20,80"])
        with pytest.raises(DataError, match="negative"):
            load_ead_csv(path)

    def test_ead_count_above_2_53_rejected(self, tmp_path):
        path = ead_csv(tmp_path, [f"2020-01-01,100,10,{2**53},50,20,80",
                                  f"2020-01-02,100,10,{2**53 + 1},50,20,80"])
        with pytest.raises(DataError, match=":3: count for adult above"):
            load_ead_csv(path)

    def test_mobility_sparse_ok(self, tmp_path):
        path = write(tmp_path / "mobility.csv", "date,mobility_pct\n2020-04-18,42.5\n")
        out = load_mobility_csv(path)
        assert out == {dt.date(2020, 4, 18): 42.5}

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


class TestMerge:
    def rows(self, days, start=dt.date(2020, 1, 1)):
        w, e = [], []
        for n in range(days):
            d = (start + dt.timedelta(days=n)).isoformat()
            w.append(f"{d},10.0,60.0")
            e.append(f"{d},100,10,40,50,20,80")
        return w, e

    def test_three_day_merge(self, tmp_path):
        w, e = self.rows(3)
        w[1] = "2020-01-02,-2.5,71.5"
        e[2] = "2020-01-03,7,1,2,4,3,4"
        days = load_dataset(weather_csv(tmp_path, w), ead_csv(tmp_path, e))
        assert len(days) == 3 and days.start == dt.date(2020, 1, 1)
        assert days.tmax.tolist() == [10.0, -2.5, 10.0]
        assert days.humidity.tolist() == [60.0, 71.5, 60.0]
        assert days.day_label.tolist() == [1.0, 1.0, 1.0]  # Wednesday .. Friday
        assert np.isnan(days.mobility).all()
        assert {g: c.tolist() for g, c in days.counts.items()} == {
            "all": [100, 100, 7], "children": [10, 10, 1], "adult": [40, 40, 2],
            "elderly": [50, 50, 4], "outdoor": [20, 20, 3], "indoor": [80, 80, 4]}

    def test_gap_reported(self, tmp_path):
        w, e = self.rows(3)
        del w[1]  # drop 2020-01-02 from weather
        with pytest.raises(DataError, match="2020-01-02"):
            merge(load_weather_csv(weather_csv(tmp_path, w)), load_ead_csv(ead_csv(tmp_path, e)), None, set())

    def test_mobility_suffix_coverage(self, tmp_path):
        # Sparse mobility covering only the end of the span merges fine and
        # leaves earlier days to fill_mobility.
        w, e = self.rows(5)
        mob = write(tmp_path / "mobility.csv", "date,mobility_pct\n2020-01-04,80.0\n2020-01-05,60.0\n")
        days = load_dataset(weather_csv(tmp_path, w), ead_csv(tmp_path, e), mobility_path=mob)
        assert np.array_equal(days.mobility, [np.nan, np.nan, np.nan, 80.0, 60.0], equal_nan=True)


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
        filled = fill_mobility(plain_days(dt.date(2020, 5, 1), [80.0, None, 60.0]))
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
        filled = fill_mobility(plain_days(dt.date(2020, 5, 1), [70.0, None, None, None]))
        assert filled.mobility.tolist() == [70.0, 70.0, 70.0, 70.0]

    def test_no_observations_no_baseline_rejected(self):
        with pytest.raises(DataError):
            fill_mobility(plain_days(dt.date(2020, 5, 1), [None, None, None]))

    def test_piecewise_linear_between_observations(self):
        # Second difference vanishes strictly between observation points.
        mobility = [None] * 30
        mobility[0], mobility[12], mobility[29] = 90.0, 54.0, 71.0
        values = fill_mobility(plain_days(dt.date(2020, 2, 1), mobility)).mobility
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
        month = data.draw(st.none() | st.sampled_from(["2019-09", "2019-12", "2020-01", "2020-03"]),
                          "baseline month")
        assume(month is not None or any(m is not None for m in mobility))
        filled = fill_mobility(plain_days(start, mobility), month).mobility.tolist()
        assert filled == fill_mobility_by_days(plain_days(start, mobility), month)
        known = {d: m for d, m in zip(dates, mobility) if m is not None}
        baseline_end = None if month is None else month_end(month)
        if baseline_end is not None and (not known or min(known) > baseline_end):
            known[baseline_end] = 100.0
        known_days = sorted(known)
        for day, got, observed in zip(dates, filled, mobility):
            assert got > 0.0
            if observed is not None:
                assert got == observed
                continue
            if baseline_end is not None and day <= baseline_end and day <= known_days[0]:
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
        filled = fill_mobility(days)
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


class TestMakeWindows:
    def table(self, days):
        return plain_days(dt.date(2020, 1, 1), [100.0] * days)

    def test_count_span10_l7_k1(self):
        _, rows, targets = make_windows(self.table(10), 7, 1, FeatureMask())
        assert rows.shape == (3, 7) and targets.shape == (3, 1)

    def test_count_span10_l7_k3(self):
        _, rows, targets = make_windows(self.table(10), 7, 3, FeatureMask())
        assert rows.shape == (1, 7) and targets.shape == (1, 3)

    def test_count_formula_property(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            span = int(rng.integers(2, 40))
            L = int(rng.integers(1, span))
            K = int(rng.integers(1, span - L + 1))
            _, rows, targets = make_windows(self.table(span), L, K, FeatureMask())
            assert len(rows) == len(targets) == span - L - K + 1

    def test_mask_drops_column(self):
        mask = FeatureMask(temperature=True, humidity=True, day_label=True, mobility=False)
        features, rows, _ = make_windows(self.table(10), 7, 1, mask)
        assert features[rows][0].shape == (7, 3)

    def test_span_too_short(self):
        with pytest.raises(DataError):
            make_windows(self.table(5), 7, 1, FeatureMask())

    def test_targets_follow_inputs(self):
        days = self.table(12)
        days = replace(days, counts={**days.counts, "all": np.arange(12.0)})
        _, rows, targets = make_windows(days, 7, 3, FeatureMask())
        assert np.array_equal(targets[0], [7.0, 8.0, 9.0])
        assert np.array_equal(rows[0], np.arange(7))

    def test_round_trip_bit_exact(self):
        rng = np.random.default_rng(1)
        days = replace(self.table(12), tmax=rng.normal(15, 9, 12), humidity=rng.uniform(30, 90, 12))
        features, rows, _ = make_windows(days, 7, 1, FeatureMask())
        assert features[rows][0][0, 0] == days.tmax[0]
        assert features[rows][-1][-1, 1] == days.humidity[-2]

    @given(st.data())
    def test_scaled_windows_match_the_per_window_path(self, data):
        # Random spans, L, K, masks and groups, with few distinct values per
        # column so constant columns, ties and signed zeros come up.
        span = data.draw(st.integers(2, 30), "span")
        L = data.draw(st.integers(1, span - 1), "L")
        K = data.draw(st.integers(1, span - L), "K")
        mask = FeatureMask.from_names(data.draw(
            st.lists(st.sampled_from(FEATURE_ORDER), min_size=1, max_size=4, unique=True), "mask"))
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
        windows = make_windows(days, L, K, mask, group)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # constant columns
            scaler = fit_scaler(windows)
            want_X, want_Y, want_bounds = per_window_scaled(days, L, K, mask.columns(), group)
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
