"""Ingestion, calendar labels, mobility gap filling, windowing, and the
synthetic generator."""

import bisect
import contextlib
import datetime as dt
import io
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from eadforecast.cli import RunConfig, main
from eadforecast.data import (
    FEATURE_ORDER,
    GROUPS,
    DailyRecord,
    FeatureMask,
    SynthConfig,
    day_label,
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
from tests.oracles import per_window_scaled


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

    def test_mobility_sparse_ok(self, tmp_path):
        path = write(tmp_path / "mobility.csv", "date,mobility_pct\n2020-04-18,42.5\n")
        out = load_mobility_csv(path)
        assert out == {dt.date(2020, 4, 18): 42.5}

    def test_holidays_with_comments(self, tmp_path):
        path = write(tmp_path / "holidays.txt", "# new year\n2020-01-01\n\n2020-05-04 # midweek\n")
        assert load_holidays(path) == {dt.date(2020, 1, 1), dt.date(2020, 5, 4)}


class TestCalendarLabels:
    def test_saturday_is_off(self):
        assert day_label(dt.date(2020, 1, 4), set()) == 0

    def test_midweek_holiday_is_off(self):
        wednesday = dt.date(2020, 1, 8)
        assert day_label(wednesday, {wednesday}) == 0

    def test_plain_tuesday_is_working(self):
        assert day_label(dt.date(2020, 1, 7), set()) == 1


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
        records = load_dataset(weather_csv(tmp_path, w), ead_csv(tmp_path, e))
        assert len(records) == 3
        assert records[0].ead["all"] == 100

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
        records = load_dataset(weather_csv(tmp_path, w), ead_csv(tmp_path, e), mobility_path=mob)
        assert [r.mobility for r in records] == [None, None, None, 80.0, 60.0]


def plain_records(dates, mobility):
    return [
        DailyRecord(
            date=d, tmax=10.0, humidity=60.0, day_label=1,
            ead={g: 10 for g in ("all", "children", "adult", "elderly", "outdoor", "indoor")},
            mobility=m,
        )
        for d, m in zip(dates, mobility)
    ]


def date_range(start, days):
    return [start + dt.timedelta(days=n) for n in range(days)]


class TestFillMobility:
    def test_interior_gap_midpoint(self):
        dates = date_range(dt.date(2020, 5, 1), 3)
        records = plain_records(dates, [80.0, None, 60.0])
        filled = fill_mobility(records)
        assert filled[1].mobility == 70.0

    def test_january_baseline_is_100(self):
        dates = date_range(dt.date(2020, 1, 1), 31)
        records = plain_records(dates, [None] * 31)
        filled = fill_mobility(records, baseline_month="2020-01")
        assert all(r.mobility == 100.0 for r in filled)

    def test_baseline_to_first_observation_interpolates(self):
        # Anchor at Jan 31 (100) to Apr 18 (40): Mar 5 is 34 of 78 days in,
        # so 100 + (40-100)*34/78.
        dates = date_range(dt.date(2020, 1, 1), 200)
        mobility = [None] * 200
        idx_apr18 = (dt.date(2020, 4, 18) - dates[0]).days
        mobility[idx_apr18] = 40.0
        filled = fill_mobility(plain_records(dates, mobility), baseline_month="2020-01")
        idx_mar5 = (dt.date(2020, 3, 5) - dates[0]).days
        expected = 100.0 + (40.0 - 100.0) * 34.0 / 78.0
        assert filled[idx_mar5].mobility == pytest.approx(expected, abs=1e-12)
        assert filled[10].mobility == 100.0  # leading January day

    def test_trailing_hold(self):
        dates = date_range(dt.date(2020, 5, 1), 4)
        filled = fill_mobility(plain_records(dates, [70.0, None, None, None]))
        assert [r.mobility for r in filled] == [70.0, 70.0, 70.0, 70.0]

    def test_no_observations_no_baseline_rejected(self):
        dates = date_range(dt.date(2020, 5, 1), 3)
        with pytest.raises(DataError):
            fill_mobility(plain_records(dates, [None, None, None]))

    def test_piecewise_linear_between_observations(self):
        # Second difference vanishes strictly between observation points.
        dates = date_range(dt.date(2020, 2, 1), 30)
        mobility = [None] * 30
        mobility[0], mobility[12], mobility[29] = 90.0, 54.0, 71.0
        filled = fill_mobility(plain_records(dates, mobility))
        values = np.array([r.mobility for r in filled])
        for seg in (values[0:13], values[12:30]):
            assert np.allclose(np.diff(seg, n=2), 0.0, atol=1e-9)

    @given(st.data())
    def test_invariants(self, data):
        # Observed values are kept, unobserved baseline-month days before the
        # first observation are 100, every other filled day lies between its
        # known neighbours (or holds the nearest one), and all are positive.
        span = data.draw(st.integers(1, 60), "span")
        start = data.draw(st.dates(dt.date(2019, 10, 1), dt.date(2020, 4, 1)), "start")
        dates = date_range(start, span)
        mobility = data.draw(st.lists(
            st.none() | st.floats(1.0, 250.0), min_size=span, max_size=span), "mobility")
        month = data.draw(st.none() | st.sampled_from(["2019-09", "2019-12", "2020-01", "2020-03"]),
                          "baseline month")
        assume(month is not None or any(m is not None for m in mobility))
        filled = [r.mobility for r in fill_mobility(plain_records(dates, mobility), month)]
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

    def test_only_filled_days_get_new_records(self):
        records = plain_records(date_range(dt.date(2020, 5, 1), 3), [80.0, None, 60.0])
        filled = fill_mobility(records)
        assert filled[0] is records[0] and filled[2] is records[2]
        assert filled[1] is not records[1] and records[1].mobility is None
        assert filled[1].ead is records[1].ead


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
    def records(self, days):
        return plain_records(date_range(dt.date(2020, 1, 1), days), [100.0] * days)

    def test_count_span10_l7_k1(self):
        _, rows, targets = make_windows(self.records(10), 7, 1, FeatureMask())
        assert rows.shape == (3, 7) and targets.shape == (3, 1)

    def test_count_span10_l7_k3(self):
        _, rows, targets = make_windows(self.records(10), 7, 3, FeatureMask())
        assert rows.shape == (1, 7) and targets.shape == (1, 3)

    def test_count_formula_property(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            span = int(rng.integers(2, 40))
            L = int(rng.integers(1, span))
            K = int(rng.integers(1, span - L + 1))
            _, rows, targets = make_windows(self.records(span), L, K, FeatureMask())
            assert len(rows) == len(targets) == span - L - K + 1

    def test_mask_drops_column(self):
        mask = FeatureMask(temperature=True, humidity=True, day_label=True, mobility=False)
        features, rows, _ = make_windows(self.records(10), 7, 1, mask)
        assert features[rows][0].shape == (7, 3)

    def test_span_too_short(self):
        with pytest.raises(DataError):
            make_windows(self.records(5), 7, 1, FeatureMask())

    def test_targets_follow_inputs(self):
        records = self.records(12)
        for i, r in enumerate(records):
            r.ead["all"] = i
        _, rows, targets = make_windows(records, 7, 3, FeatureMask())
        assert np.array_equal(targets[0], [7.0, 8.0, 9.0])
        assert np.array_equal(rows[0], np.arange(7))

    def test_round_trip_bit_exact(self):
        records = self.records(12)
        rng = np.random.default_rng(1)
        for r in records:
            r.tmax = float(rng.normal(15, 9))
            r.humidity = float(rng.uniform(30, 90))
        features, rows, _ = make_windows(records, 7, 1, FeatureMask())
        assert features[rows][0][0, 0] == records[0].tmax
        assert features[rows][-1][-1, 1] == records[-2].humidity

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
        records = self.records(span)
        for r in records:
            r.tmax, r.humidity, r.mobility = (data.draw(levels) for _ in range(3))
            r.day_label = data.draw(st.integers(0, 1))
            r.ead[group] = data.draw(st.integers(0, 3))
        windows = make_windows(records, L, K, mask, group)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # constant columns
            scaler = fit_scaler(windows)
            want_X, want_Y, want_bounds = per_window_scaled(records, L, K, mask.columns(), group)
        X, Y = apply_scaler(scaler, windows)
        bounds = (scaler.feature_min, scaler.feature_max, scaler.target_min, scaler.target_max)
        for got, want in zip((X, Y, *bounds), (want_X, want_Y, *want_bounds)):
            got, want = np.asarray(got), np.asarray(want)
            assert got.shape == want.shape and got.tobytes() == want.tobytes()


class TestSynthGenerate:
    SEEDS = range(6)

    def test_deterministic(self):
        a = synth_generate(SynthConfig(end=dt.date(2015, 3, 31)), seed=3)
        b = synth_generate(SynthConfig(end=dt.date(2015, 3, 31)), seed=3)
        assert all(
            ra.tmax == rb.tmax and ra.ead == rb.ead and ra.mobility == rb.mobility
            for ra, rb in zip(a.records, b.records)
        )

    def test_group_sums(self):
        result = synth_generate(SynthConfig(end=dt.date(2015, 3, 31)), seed=0)
        for r in result.records:
            assert r.ead["children"] + r.ead["adult"] + r.ead["elderly"] == r.ead["all"]
            assert r.ead["outdoor"] + r.ead["indoor"] == r.ead["all"]

    def test_mobility_factor_normalized_at_baseline(self):
        from eadforecast.data import _dispatch_factors

        cfg = SynthConfig()
        _, _, _, g = _dispatch_factors(cfg, 20.0, 60.0, 1, 100.0)
        assert g == pytest.approx(1.0, abs=1e-15)

    def test_u_shape_present_pre_pandemic(self):
        # Counts correlate positively with distance from the comfort
        # temperature before the pandemic regime starts.
        cfg = SynthConfig()
        result = synth_generate(cfg, seed=0)
        pre = [r for r in result.records if r.date < cfg.pandemic_start]
        dist = np.array([abs(r.tmax - cfg.comfort_temp) for r in pre])
        counts = np.array([r.ead["all"] for r in pre], dtype=float)
        corr = np.corrcoef(dist, counts)[0, 1]
        assert corr > 0.3

    def test_pandemic_mobility_is_suppressed(self):
        cfg = SynthConfig()
        for seed in self.SEEDS:
            result = synth_generate(cfg, seed=seed)
            soe = [r.mobility for r in result.records if cfg.soe_start <= r.date <= cfg.soe_end]
            pre = [r.mobility for r in result.records if r.date < cfg.pandemic_start]
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
                assert last < cfg.pandemic_start
                spans.append((last - max(first, cfg.start)).days + 1)
            assert max(spans, default=0) >= lookback, f"seed {seed}: episode days {spans}"

    def test_default_span(self):
        result = synth_generate(SynthConfig(), seed=0)
        assert result.records[0].date == dt.date(2014, 4, 1)
        assert result.records[-1].date == dt.date(2020, 8, 19)

    def test_invalid_span(self):
        with pytest.raises(ConfigError):
            synth_generate(SynthConfig(start=dt.date(2020, 1, 1), end=dt.date(2019, 1, 1)))


class TestWriteReadRoundTrip:
    def test_values_survive_bit_exactly(self, tmp_path):
        result = synth_generate(SynthConfig(end=dt.date(2014, 12, 31)), seed=5)
        paths = write_dataset(result, tmp_path)
        records = load_dataset(
            paths["weather"], paths["ead"],
            mobility_path=paths["mobility"], holidays_path=paths["holidays"],
        )
        assert len(records) == len(result.records)
        for original, loaded in zip(result.records, records):
            assert loaded.tmax == original.tmax
            assert loaded.humidity == original.humidity
            assert loaded.mobility == original.mobility
            assert loaded.ead == original.ead
            assert loaded.day_label == original.day_label

    def test_one_year_row_count(self, tmp_path):
        result = synth_generate(
            SynthConfig(start=dt.date(2016, 1, 1), end=dt.date(2016, 12, 31)), seed=0
        )
        assert len(result.records) == 366  # leap year


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
