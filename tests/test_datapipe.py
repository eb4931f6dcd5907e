"""CSV parsing, resampling, day cleansing and normalization contracts."""
import datetime as dtmod
import zoneinfo

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gridsynth import datapipe as dp
from gridsynth.errors import DataError

from oracles import clean_days_per_day, resample_add_at


def corrupt_matrix_csv(path, how):
    """Damage a t00..t95 matrix CSV written by save_day_matrix or export."""
    lines = path.read_text(encoding="utf-8").splitlines()
    header, rows = lines[0], lines[1:]
    cells = rows[0].split(",")
    if how == "non_numeric":
        rows[0] = ",".join(["abc"] + cells[1:])
    elif how == "non_finite":
        rows[0] = ",".join(["nan"] + cells[1:])
    elif how == "ragged":
        rows[0] = ",".join(cells[:-1])
    elif how == "bad_header":
        header = header.replace("t00", "x00")
    elif how == "header_only":
        rows = []
    elif how == "empty":
        header, rows = None, []
    lines = ([header] if header else []) + rows
    path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")


MATRIX_CORRUPTIONS = ("non_numeric", "non_finite", "ragged", "bad_header", "header_only", "empty")


def insert_non_utf8(path):
    """Put the bytes ff fe, which no UTF-8 text holds, after the first line
    break past the middle of the file (at its start when there is none)."""
    data = path.read_bytes()
    at = data.find(b"\n", len(data) // 2) + 1
    path.write_bytes(data[:at] + b"\xff\xfe" + data[at:])


def write_csv(path, rows, header="timestamp,power_w"):
    path.write_text("\n".join([header] + rows) + "\n", encoding="utf-8")
    return path


def five_min_rows(start="2021-03-01T00:00:00", n=288, value_fn=lambda i: 100.0 + i):
    """n consecutive 5-minute rows starting at start (UTC)."""
    import datetime as dtmod

    t0 = dtmod.datetime.fromisoformat(start).replace(tzinfo=dtmod.timezone.utc)
    rows = []
    for i in range(n):
        t = t0 + dtmod.timedelta(minutes=5 * i)
        rows.append(f"{t.strftime('%Y-%m-%dT%H:%M:%S')}Z,{value_fn(i)}")
    return rows


class TestLoadCsv:
    def test_two_row_file(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [
            "2021-03-01T00:00:00Z,10.5",
            "2021-03-01T00:05:00Z,11.5",
        ])
        series = dp.load_csv(path, value_column="power_w")
        assert len(series) == 2
        np.testing.assert_allclose(series.values, [10.5, 11.5])

    def test_bad_value_names_line(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", [
            "2021-03-01T00:00:00Z,10.5",
            "2021-03-01T00:05:00Z,abc",
        ])
        with pytest.raises(DataError, match="line 3"):
            dp.load_csv(path, value_column="power_w")

    def test_bad_timestamp_names_line(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["not-a-time,10.5"])
        with pytest.raises(DataError, match="line 2"):
            dp.load_csv(path, value_column="power_w")

    def test_out_of_order_rows_are_sorted(self, tmp_path):
        rows = five_min_rows(n=6)
        shuffled = [rows[3], rows[0], rows[5], rows[1], rows[4], rows[2]]
        path = write_csv(tmp_path / "a.csv", shuffled)
        series = dp.load_csv(path, value_column="power_w")
        assert np.all(np.diff(series.timestamps) > 0)
        np.testing.assert_allclose(series.values, [100.0 + i for i in range(6)])

    def test_duplicate_timestamp_rejected(self, tmp_path):
        rows = five_min_rows(n=3) + [five_min_rows(n=3)[1]]
        path = write_csv(tmp_path / "a.csv", rows)
        with pytest.raises(DataError, match="duplicate"):
            dp.load_csv(path, value_column="power_w")

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="missing.csv"):
            dp.load_csv(tmp_path / "missing.csv", value_column="power_w")

    def test_missing_column(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", ["2021-03-01T00:00:00Z,1.0"], header="timestamp,other")
        with pytest.raises(DataError, match="power_w"):
            dp.load_csv(path, value_column="power_w")

    @pytest.mark.parametrize("header,row,got", [
        ("timestamp,power_w", "2021-03-01T00:05:00Z,1.0,2,3", 4),
        ("timestamp,power_w,extra", "2021-03-01T00:05:00Z,1.0", 2),
    ])
    def test_row_width_must_match_header(self, tmp_path, header, row, got):
        first = "2021-03-01T00:00:00Z,1.0" + ",x" * (header.count(",") - 1)
        path = write_csv(tmp_path / "a.csv", [first, row], header=header)
        width = header.count(",") + 1
        with pytest.raises(DataError, match=f"line 3: expected {width} columns, got {got}"):
            dp.load_csv(path, value_column="power_w")

    def test_not_utf8_is_data_error(self, tmp_path):
        path = write_csv(tmp_path / "a.csv", five_min_rows(n=6))
        insert_non_utf8(path)
        with pytest.raises(DataError, match="UTF-8"):
            dp.load_csv(path, value_column="power_w")


class TestResample:
    def series(self, values, period=5, start=0):
        ts = start + np.arange(len(values)) * period * 60
        return dp.TimeSeries(np.asarray(ts), np.asarray(values, dtype=float), period)

    def test_mean_of_three(self):
        out = dp.resample(self.series([10.0, 20.0, 30.0]))
        assert len(out) == 1
        np.testing.assert_allclose(out.values, [20.0])

    def test_constant_series_stays_constant(self):
        out = dp.resample(self.series([7.0] * 12))
        np.testing.assert_allclose(out.values, [7.0] * 4)

    def test_partial_window_emits_gap(self):
        # drop the middle sample of the second window
        full = self.series([1.0] * 6)
        keep = np.array([0, 1, 2, 3, 5])
        series = dp.TimeSeries(full.timestamps[keep], full.values[keep], 5)
        out = dp.resample(series)
        assert np.isfinite(out.values[0])
        assert np.isnan(out.values[1])

    def test_non_multiple_period_rejected(self):
        with pytest.raises(DataError, match="multiple"):
            dp.resample(self.series([1.0, 2.0], period=7))

    def test_same_period_is_identity(self):
        series = self.series([1.0, 2.0, 3.0], period=15)
        out = dp.resample(series)
        np.testing.assert_array_equal(out.values, series.values)
        np.testing.assert_array_equal(out.timestamps, series.timestamps)

    @given(st.integers(1, 50), st.integers(0, 3))
    def test_resample_idempotent(self, n, seed_offset):
        rng = np.random.default_rng(n * 7 + seed_offset)
        series = self.series(list(rng.uniform(0, 100, size=3 * n)))
        once = dp.resample(series)
        twice = dp.resample(once)
        np.testing.assert_array_equal(once.timestamps, twice.timestamps)
        np.testing.assert_array_equal(once.values, twice.values)

    def test_same_bits_as_add_at_oracle(self):
        rng = np.random.default_rng(3)
        specials = np.array([np.nan, np.inf, -np.inf])
        for trial in range(400):
            source = int(rng.choice([1, 3, 5, 15]))
            n = int(rng.integers(1, 200))
            steps = rng.choice([1, 1, 1, 2, 5], size=n)
            ts = (int(rng.integers(-10**6, 10**6)) + np.cumsum(steps)) * source * 60
            values = rng.normal(300.0, 200.0, size=n)
            odd = rng.random(n) < rng.choice([0.0, 0.02, 0.2])
            values[odd] = rng.choice(specials, size=int(odd.sum()))
            out = dp.resample(dp.TimeSeries(ts, values, source))
            want_ts, want = resample_add_at(ts, values, source, 15)
            np.testing.assert_array_equal(out.timestamps, want_ts, err_msg=f"trial {trial}")
            assert out.values.tobytes() == want.tobytes(), f"trial {trial}"


class TestCleanDays:
    def fifteen_min_series(self, n_days=3, drop=()):
        n = n_days * 96
        ts = np.arange(n, dtype=np.int64) * 900
        vals = 100.0 + np.arange(n, dtype=float) % 96
        keep = np.setdiff1d(np.arange(n), np.asarray(drop, dtype=int))
        return dp.TimeSeries(ts[keep], vals[keep], 15)

    def test_two_full_days_one_incomplete(self):
        series = self.fifteen_min_series(n_days=3, drop=[96 + 40])
        matrix = dp.clean_days(series)
        assert matrix.n_days == 2
        assert matrix.dates == ["1970-01-01", "1970-01-03"]

    def test_all_days_complete(self):
        matrix = dp.clean_days(self.fifteen_min_series(n_days=4))
        assert matrix.n_days == 4

    def test_gap_marker_from_resample_drops_day(self):
        # a 5-min series with one missing sample in day 2 -> NaN window -> day dropped
        n = 2 * 288
        ts = np.arange(n, dtype=np.int64) * 300
        vals = np.full(n, 50.0)
        keep = np.setdiff1d(np.arange(n), [288 + 100])
        series = dp.resample(dp.TimeSeries(ts[keep], vals[keep], 5))
        matrix = dp.clean_days(series)
        assert matrix.n_days == 1

    def test_empty_result_raises(self):
        series = self.fifteen_min_series(n_days=1, drop=[3])
        with pytest.raises(DataError, match="no complete day"):
            dp.clean_days(series)

    def test_rows_have_96_finite_values(self):
        matrix = dp.clean_days(self.fifteen_min_series(n_days=2))
        assert matrix.values.shape == (2, 96)
        assert np.all(np.isfinite(matrix.values))

    def test_wrong_period_rejected(self):
        series = dp.TimeSeries(np.arange(10, dtype=np.int64) * 300, np.ones(10), 5)
        with pytest.raises(DataError, match="15"):
            dp.clean_days(series)

    def test_timezone_offset_shifts_day_boundary(self):
        # 96 slots starting at 23:00 UTC form one complete day at UTC+1
        ts = (23 * 3600) + np.arange(96, dtype=np.int64) * 900
        series = dp.TimeSeries(ts, np.ones(96), 15)
        matrix = dp.clean_days(series, tz="+01:00")
        assert matrix.n_days == 1
        with pytest.raises(DataError):
            dp.clean_days(series, tz="UTC")

    def test_partial_day_takes_nearest_reading_earlier_on_tie(self):
        drop = [0, 10, 20, 21, 95]
        matrix = dp.clean_days(self.fifteen_min_series(n_days=1, drop=drop), completeness=0.9)
        want = 100.0 + np.arange(96.0)
        want[drop] = want[[1, 9, 19, 22, 94]]
        np.testing.assert_array_equal(matrix.values[0], want)

    @pytest.mark.parametrize("completeness", [0.0, -0.5, 1.01, float("nan")])
    def test_completeness_outside_unit_interval_rejected(self, completeness):
        with pytest.raises(DataError, match="completeness"):
            dp.clean_days(self.fifteen_min_series(n_days=1), completeness=completeness)


def utc_epoch(text):
    """Epoch seconds of an ISO-8601 UTC wall time."""
    return int(dtmod.datetime.fromisoformat(text).replace(tzinfo=dtmod.timezone.utc).timestamp())


def needs_zone(name):
    return pytest.mark.skipif(
        name not in zoneinfo.available_timezones(), reason=f"no tz data for {name}"
    )


class TestIngestConfigRules:
    @pytest.mark.parametrize("key,value,message", [
        ("kind", "wind", "kind must be load|pv"),
        ("timezone", "Not/AZone", "unknown timezone"),
        ("timezone", "+99:99", "timezone offset"),
        ("source_period_minutes", 0, "source_period_minutes must be positive"),
        ("source_period_minutes", 7, "source_period_minutes must divide 15"),
        ("source_period_minutes", 2.5, "source_period_minutes must be an integer"),
        ("source_period_minutes", True, "source_period_minutes must be an integer"),
        ("day_completeness", 0.0, "day_completeness must be in"),
        ("day_completeness", float("nan"), "day_completeness must be in"),
    ])
    def test_bad_value_raises_at_construction(self, key, value, message):
        with pytest.raises(DataError, match=f"^{message}"):
            dp.IngestConfig(**{key: value})

    def test_stage_defaults_are_the_config_defaults(self):
        cfg = dp.IngestConfig()
        assert dp.load_csv.__defaults__ == (cfg.timestamp_column, cfg.source_period_minutes)
        assert dp.clean_days.__defaults__ == (cfg.timezone, cfg.day_completeness, cfg.kind)


class TestTimezones:
    @pytest.mark.parametrize("tz,seconds", [
        ("UTC", 0), ("utc", 0), ("Z", 0), ("", 0), ("+01:00", 3600), ("+1:00", 3600),
        ("5:30", 19800), ("-03:30", -12600), ("-05:30", -19800), ("+23:59", 86340),
        ("-00:00", 0),
    ])
    def test_fixed_forms_keep_their_offset(self, tz, seconds):
        zone = dp.resolve_timezone(tz)
        assert zone.utcoffset(None) == dtmod.timedelta(seconds=seconds)

    @needs_zone("Europe/Berlin")
    def test_iana_name_is_a_zone(self):
        zone = dp.resolve_timezone("Europe/Berlin")
        assert zone.utcoffset(None) is None
        assert zone.utcoffset(dtmod.datetime(2021, 7, 1)) == dtmod.timedelta(hours=2)

    @pytest.mark.parametrize("tz", [
        "Not/AZone", "+5", "01:02:03", "../x", "/etc/passwd", "+99:99", "25:00", "12:60",
        "+5:", "zone.tab",
    ])
    def test_bad_timezone_is_data_error(self, tz):
        with pytest.raises(DataError, match="timezone"):
            dp.resolve_timezone(tz)
        series = dp.TimeSeries(np.arange(96, dtype=np.int64) * 900, np.ones(96), 15)
        with pytest.raises(DataError, match="timezone"):
            dp.clean_days(series, tz=tz)

    @staticmethod
    def local_days(start_utc, n_slots):
        ts = utc_epoch(start_utc) + np.arange(n_slots, dtype=np.int64) * 900
        return dp.TimeSeries(ts, np.arange(n_slots, dtype=float), 15)

    @needs_zone("Europe/Berlin")
    def test_spring_forward_day_is_dropped(self):
        # 2021-03-27 00:00 CET through 2021-03-29 24:00 CEST: 96 + 92 + 96 slots
        matrix = dp.clean_days(self.local_days("2021-03-26T23:00:00", 284), tz="Europe/Berlin")
        assert matrix.dates == ["2021-03-27", "2021-03-29"]
        np.testing.assert_array_equal(matrix.values[1], np.arange(188.0, 284.0))

    @needs_zone("Europe/Berlin")
    def test_fall_back_day_keeps_later_reading_of_repeated_hour(self):
        # 2021-10-31 runs 25 h, 22:00Z to 23:00Z; 02:00-02:45 local happens twice
        matrix = dp.clean_days(self.local_days("2021-10-30T22:00:00", 100), tz="Europe/Berlin")
        assert matrix.dates == ["2021-10-31"]
        want = np.concatenate([np.arange(8.0), np.arange(12.0, 100.0)])
        np.testing.assert_array_equal(matrix.values[0], want)


def demo_year(gaps, seed=11):
    """A 5-minute year of load-like readings from 2020-12-30 00:00Z, resampled
    to 15 minutes; resample and its np.add.at oracle must agree on it.

    gaps: "none"; "nan" drops short runs of 5-minute rows, so resample emits
    NaN windows; "missing" also removes 15-minute stamps outright, so
    clean_days sees a grid with holes.
    """
    rng = np.random.default_rng(seed)
    n = 368 * 288
    ts = utc_epoch("2020-12-30T00:00:00") + np.arange(n, dtype=np.int64) * 300
    hours = (np.arange(n) % 288) / 12.0
    values = np.round(
        120 + 600 * np.exp(-((hours - 19.0) ** 2) / 2.0) + rng.gamma(2.0, 25.0, n), 2
    )
    keep = np.ones(n, dtype=bool)
    if gaps != "none":
        for start in rng.choice(n - 40, size=60, replace=False):
            keep[start:start + int(rng.integers(1, 12))] = False
    series = dp.TimeSeries(ts[keep], values[keep], 5)
    out = dp.resample(series)
    want_ts, want = resample_add_at(series.timestamps, series.values, 5, 15)
    assert out.values.tobytes() == want.tobytes()
    np.testing.assert_array_equal(out.timestamps, want_ts)
    if gaps == "missing":
        holes = rng.choice(len(out), size=40, replace=False)
        keep15 = np.setdiff1d(np.arange(len(out)), holes)
        out = dp.TimeSeries(out.timestamps[keep15], out.values[keep15], 15)
    return out


@pytest.fixture(scope="module", params=["none", "nan", "missing"])
def demo_series(request):
    return demo_year(request.param)


class TestDaySplitOracle:
    """clean_days gives the per-day oracle's bits: a year of stamps through
    both DST changes of each zone, with and without gaps."""

    @pytest.mark.parametrize("completeness", [1.0, 0.9])
    @pytest.mark.parametrize("tz", [
        "UTC", "+01:00", "-05:30",
        pytest.param("Europe/Berlin", marks=needs_zone("Europe/Berlin")),
        pytest.param("America/New_York", marks=needs_zone("America/New_York")),
        pytest.param("Australia/Lord_Howe", marks=needs_zone("Australia/Lord_Howe")),
        pytest.param("Asia/Kolkata", marks=needs_zone("Asia/Kolkata")),
        pytest.param("Pacific/Chatham", marks=needs_zone("Pacific/Chatham")),
    ])
    def test_same_bits_as_per_day_oracle(self, demo_series, tz, completeness):
        matrix = dp.clean_days(demo_series, tz=tz, completeness=completeness)
        want_values, want_dates = clean_days_per_day(
            demo_series.timestamps, demo_series.values, tz, completeness
        )
        assert matrix.values.tobytes() == want_values.tobytes()
        assert matrix.dates == want_dates


class TestNormalize:
    def matrix(self, values):
        return dp.DayMatrix(values, kind="load")

    def test_zero_five_ten(self):
        vals = np.tile(np.array([0.0, 5.0, 10.0]), 32)[None, :]
        out = dp.normalize(self.matrix(vals))
        np.testing.assert_allclose(out.values[0, :3], [0.0, 0.5, 1.0])
        assert out.norm_min == 0.0 and out.norm_max == 10.0

    def test_round_trip_exact(self, rng):
        vals = rng.uniform(0, 1500, size=(5, 96))
        out = dp.normalize(self.matrix(vals))
        back = dp.denormalize(out)
        assert np.max(np.abs(back - vals)) < dp.ROUND_TRIP_TOL

    def test_constant_data_rejected(self):
        with pytest.raises(DataError, match="constant"):
            dp.normalize(self.matrix(np.full((2, 96), 3.0)))

    def test_denormalize_requires_metadata(self):
        with pytest.raises(DataError, match="metadata"):
            dp.denormalize(self.matrix(np.zeros((1, 96))))

    @given(st.integers(0, 10_000))
    def test_argmax_argmin_preserved(self, seed):
        rng = np.random.default_rng(seed)
        vals = rng.uniform(0, 900, size=(3, 96))
        out = dp.normalize(dp.DayMatrix(vals))
        np.testing.assert_array_equal(np.argmax(out.values, axis=1), np.argmax(vals, axis=1))
        np.testing.assert_array_equal(np.argmin(out.values, axis=1), np.argmin(vals, axis=1))


class TestDayMatrixIO:
    def test_round_trip(self, tmp_path, rng):
        vals = rng.uniform(0, 800, size=(4, 96))
        matrix = dp.normalize(dp.DayMatrix(vals, kind="pv", dates=[f"d{i}" for i in range(4)]))
        dp.save_day_matrix(matrix, tmp_path / "m.csv")
        back = dp.load_day_matrix(tmp_path / "m.csv")
        np.testing.assert_array_equal(back.values, matrix.values)
        assert back.kind == "pv"
        assert back.norm_min == matrix.norm_min
        assert back.norm_max == matrix.norm_max
        assert back.dates == matrix.dates

    def test_header_row(self, tmp_path):
        matrix = dp.DayMatrix(np.zeros((1, 96)))
        dp.save_day_matrix(matrix, tmp_path / "m.csv")
        header = (tmp_path / "m.csv").read_text().splitlines()[0]
        assert header.startswith("t00,t01") and header.endswith("t95")

    @pytest.mark.parametrize("how", MATRIX_CORRUPTIONS)
    def test_malformed_file_is_data_error(self, tmp_path, how):
        path = tmp_path / "m.csv"
        dp.save_day_matrix(dp.normalize(dp.DayMatrix(np.arange(192.0).reshape(2, 96))), path)
        corrupt_matrix_csv(path, how)
        with pytest.raises(DataError):
            dp.load_day_matrix(path)

    @pytest.mark.parametrize("failing_write", [0, 1])
    def test_failed_write_keeps_previous_files(self, tmp_path, monkeypatch, failing_write):
        from pathlib import Path

        path = tmp_path / "m.csv"
        dp.save_day_matrix(dp.normalize(dp.DayMatrix(np.arange(192.0).reshape(2, 96))), path)
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert sorted(before) == ["m.csv", "m.csv.meta"]
        write_text = Path.write_text
        writes = []

        def fail_on_chosen_write(self, text, **kwargs):
            writes.append(self)
            if len(writes) - 1 == failing_write:
                write_text(self, text[: len(text) // 2], **kwargs)
                raise OSError("disk full")
            return write_text(self, text, **kwargs)

        monkeypatch.setattr(Path, "write_text", fail_on_chosen_write)
        with pytest.raises(OSError, match="disk full"):
            dp.save_day_matrix(dp.normalize(dp.DayMatrix(np.arange(288.0).reshape(3, 96))), path)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    def test_rewrite_gives_same_bytes(self, tmp_path, rng):
        matrix = dp.normalize(dp.DayMatrix(rng.uniform(0, 800, size=(3, 96)), dates=["a", "b", "c"]))
        dp.save_day_matrix(matrix, tmp_path / "m.csv")
        first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        dp.save_day_matrix(matrix, tmp_path / "m.csv")
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first
        lines = first["m.csv"].decode().splitlines()
        assert lines[1] == ",".join(repr(float(v)) for v in matrix.values[0])
        assert first["m.csv.meta"].decode().startswith("schema = gridsynth.daymatrix/1\n")

    @pytest.mark.parametrize("target", ["m.csv", "m.csv.meta"])
    def test_not_utf8_is_data_error(self, tmp_path, target):
        path = tmp_path / "m.csv"
        dp.save_day_matrix(dp.normalize(dp.DayMatrix(np.arange(192.0).reshape(2, 96))), path)
        insert_non_utf8(tmp_path / target)
        with pytest.raises(DataError, match="UTF-8"):
            dp.load_day_matrix(path)

    def test_malformed_sidecar_is_data_error(self, tmp_path):
        path = tmp_path / "m.csv"
        dp.save_day_matrix(dp.normalize(dp.DayMatrix(np.arange(192.0).reshape(2, 96))), path)
        sidecar = tmp_path / "m.csv.meta"
        sidecar.write_text(sidecar.read_text().replace("norm_min = 0.0", "norm_min = abc"))
        with pytest.raises(DataError, match="norm_min"):
            dp.load_day_matrix(path)


class TestMatrixSchema:
    def save(self, tmp_path):
        path = tmp_path / "m.csv"
        dp.save_day_matrix(dp.normalize(dp.DayMatrix(np.arange(192.0).reshape(2, 96))), path)
        return path

    @pytest.mark.parametrize("schema", [None, "", "gridsynth.daymatrix/2", "gridsynth.metrics/1"])
    def test_unknown_schema_is_data_error(self, tmp_path, schema):
        path = self.save(tmp_path)
        sidecar = tmp_path / "m.csv.meta"
        lines = sidecar.read_text().splitlines()[1:]
        sidecar.write_text("\n".join(lines if schema is None else [f"schema = {schema}"] + lines))
        for load in (dp.read_matrix, dp.load_day_matrix):
            with pytest.raises(DataError, match="schema"):
                load(path)

    def test_synthetic_batch_is_not_a_day_matrix(self, tmp_path):
        path = tmp_path / "s.csv"
        dp.write_matrix(path, np.full((2, 96), 300.0), {"schema": dp.SYNTH_SCHEMA, "kind": "load"})
        assert dp.read_matrix(path)[1]["schema"] == dp.SYNTH_SCHEMA
        with pytest.raises(DataError, match="not a day matrix"):
            dp.load_day_matrix(path)

    def test_stray_quote_in_large_file_is_data_error(self, tmp_path):
        # the quote opens one field that runs past the csv module's size limit
        path = tmp_path / "m.csv"
        values = np.random.default_rng(0).uniform(0, 900, (100, 96))
        dp.save_day_matrix(dp.normalize(dp.DayMatrix(values)), path)
        data = path.read_bytes()
        assert len(data) > 131072
        at = data.index(b"\n") + 1
        path.write_bytes(data[:at] + b'"' + data[at + 1:])
        with pytest.raises(DataError, match="malformed CSV"):
            dp.load_day_matrix(path)

    @pytest.mark.parametrize("key,value", [
        ("norm_max", "inf"), ("norm_min", "-inf"), ("norm_max", "nan"),
    ])
    def test_non_finite_normalization_is_data_error(self, tmp_path, key, value):
        path = self.save(tmp_path)
        sidecar = tmp_path / "m.csv.meta"
        lines = [f"{key} = {value}" if line.startswith(key) else line
                 for line in sidecar.read_text().splitlines()]
        sidecar.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="finite"):
            dp.load_day_matrix(path)


class TestIngestFixture:
    def build_fixture(self, tmp_path, gap_manifest):
        """RAPT-schema CSV spanning several days with injected gaps.

        gap_manifest maps day index -> list of dropped 5-min sample indices.
        Returns (path, expected complete-day count).
        """
        import datetime as dtmod

        n_days = 4
        t0 = dtmod.datetime(2021, 6, 1, tzinfo=dtmod.timezone.utc)
        rows = []
        rng = np.random.default_rng(5)
        for day in range(n_days):
            dropped = set(gap_manifest.get(day, []))
            for i in range(288):
                if i in dropped:
                    continue
                t = t0 + dtmod.timedelta(days=day, minutes=5 * i)
                watts = 200.0 + 150.0 * np.sin(2 * np.pi * i / 288) + rng.uniform(0, 20)
                rows.append(f"{t.strftime('%Y-%m-%dT%H:%M:%S')}Z,{watts:.3f}")
        expected = n_days - sum(1 for gaps in gap_manifest.values() if gaps)
        return write_csv(tmp_path / "rapt.csv", rows), expected

    def test_gap_manifest_day_count(self, tmp_path):
        manifest = {1: [10, 11], 3: [200]}
        path, expected = self.build_fixture(tmp_path, manifest)
        matrix = dp.ingest(path, dp.IngestConfig())
        assert matrix.n_days == expected == 2

    def test_no_gaps_keeps_all(self, tmp_path):
        path, expected = self.build_fixture(tmp_path, {})
        matrix = dp.ingest(path, dp.IngestConfig())
        assert matrix.n_days == expected == 4
        assert matrix.normalized
        assert matrix.values.min() >= 0.0 and matrix.values.max() <= 1.0
