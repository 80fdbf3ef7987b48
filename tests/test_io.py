from __future__ import annotations

import csv
import io
import json
import re
import tracemalloc
import types
from datetime import datetime, timezone
from xml.etree import ElementTree

import numpy as np
import pytest
from conftest import (collecting, reference_iter_forecast_csv, reference_read_forecast_csv, reference_read_raw_csv,
                      reference_weekly_to_raw, reference_write_forecast_csv, reference_write_raw_csv)
from hypothesis import given, settings
from hypothesis import strategies as st

from pqforecast import io as pqio
from pqforecast import report as pqreport
from pqforecast.ensembles import ensemble_producers, parse_producer
from pqforecast.errors import ConfigError, DataError
from pqforecast.evaluation import (
    ComparisonReport,
    CompositionReport,
    Leaderboard,
    LeaderboardRow,
    SizeAggregate,
)
from pqforecast.models import ForecastBlock
from pqforecast.weekly import (
    MINUTES_PER_WEEK,
    MONDAY_MINUTE,
    PlanningLevel,
    Rejection,
    RejectionReason,
    WeeklySeries,
    utc_minute,
)


def weekly(values, series_id="site1:UNB:220", filled=None):
    return WeeklySeries(series_id=series_id, start_week=(2022, 1),
                        values=np.asarray(values, dtype=float),
                        filled_flags=filled)


class TestWeeklyCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "weekly.csv"
        original = [
            weekly([1.5, 2.5, 3.5], filled=np.array([False, True, False])),
            weekly([7.0, 8.0, 9.0], series_id="site2:Uthd:380"),
        ]
        pqio.write_weekly_csv(path, original)
        back = pqio.read_weekly_csv(path)
        assert len(back) == 2
        for a, b in zip(original, back):
            assert a.series_id == b.series_id
            assert a.start_week == b.start_week
            assert np.array_equal(a.values, b.values)
            assert np.array_equal(a.filled_flags, b.filled_flags)

    def test_header_check(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text("wrong,header\n1,2\n")
        with pytest.raises(DataError, match="header"):
            pqio.read_weekly_csv(path)

    def test_bad_row_names_line(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text("series_id,iso_year,iso_week,utilization_percent,filled\n"
                        "s,2022,1,notanumber,0\n")
        with pytest.raises(DataError, match="weekly.csv:2"):
            pqio.read_weekly_csv(path)
        for value, message in [("nan", "non-finite"), ("inf", "non-finite"), ("-1.0", "negative")]:
            path.write_text("series_id,iso_year,iso_week,utilization_percent,filled\n"
                            f"s,2022,1,1.0,0\ns,2022,2,{value},0\n")
            with pytest.raises(DataError, match=rf"weekly\.csv: s: {message} weekly value"):
                pqio.read_weekly_csv(path)

    def test_non_consecutive_weeks_rejected(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text("series_id,iso_year,iso_week,utilization_percent,filled\n"
                        "s,2022,1,1.0,0\ns,2022,3,2.0,0\n")
        with pytest.raises(DataError, match="consecutive"):
            pqio.read_weekly_csv(path)

    @pytest.mark.parametrize("rows", ["s,2022,60,1.0,0\ns,2022,61,2.0,0\n", "s,2022,60,1.0,0\n"])
    def test_invalid_iso_week_names_file_and_week(self, tmp_path, rows):
        path = tmp_path / "weekly.csv"
        path.write_text(f"series_id,iso_year,iso_week,utilization_percent,filled\nt,2022,1,1.0,0\n{rows}")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: s: invalid ISO week \(2022, 60\)"):
            pqio.read_weekly_csv(path)

    @pytest.mark.parametrize("rows, message", [
        ("s,9999,52,1.0,0\ns,9999,53,1.0,0\n", r"weekly\.csv: s: weeks not consecutive at \(9999, 53\)"),
        ("s,99999999999999999999,1,1.0,0\n", r"weekly\.csv:2: int too big to convert"),
    ])
    def test_weeks_beyond_the_calendar_are_data_errors(self, tmp_path, rows, message):
        path = tmp_path / "weekly.csv"
        path.write_text(f"series_id,iso_year,iso_week,utilization_percent,filled\n{rows}")
        with pytest.raises(DataError, match=message):
            pqio.read_weekly_csv(path)

    @pytest.mark.parametrize("filled", ["yes", "true", "2", "", " 1", "1.0"])
    def test_filled_is_zero_or_one(self, tmp_path, filled):
        path = tmp_path / "weekly.csv"
        path.write_text("series_id,iso_year,iso_week,utilization_percent,filled\n"
                        f"s,2022,1,1.0,0\ns,2022,2,2.0,{filled}\n")
        with pytest.raises(DataError, match=rf"weekly\.csv:3: filled must be 0 or 1, got '{filled}'"):
            pqio.read_weekly_csv(path)

    def test_float_roundtrip_is_exact(self, tmp_path, rng):
        path = tmp_path / "weekly.csv"
        values = rng.uniform(0, 100, 20)
        pqio.write_weekly_csv(path, [weekly(values.tolist() + [0.0] * 0)])
        back = pqio.read_weekly_csv(path)[0]
        assert np.array_equal(back.values, values)


def test_weekly_reader_peak_memory_is_bounded_by_its_output(tmp_path, rng):
    """40 series x 157 weeks read with a traced peak within 5x the bytes of
    the values and flags returned (a tuple per row took ~21x)."""
    path = tmp_path / "weekly.csv"
    pqio.write_weekly_csv(path, [weekly(rng.uniform(0, 100, 157), series_id=f"s{i}:UNB:220",
                                        filled=rng.uniform(size=157) < 0.1) for i in range(40)])
    tracemalloc.start()
    try:
        series = pqio.read_weekly_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(s.values.nbytes + s.filled_flags.nbytes for s in series)
    assert len(series) == 40 and nbytes == 40 * 157 * 9
    assert peak <= 5 * nbytes, f"peak {peak} B for {nbytes} B of values and flags"


class TestRawCsv:
    def test_roundtrip_through_aggregation(self, tmp_path):
        series = weekly([10.0, 20.0, 30.0])
        path = tmp_path / "raw.csv"
        pqio.write_raw_csv(path, [(series, ())])
        weeks: list = []
        back = pqio.read_raw_csv(path, collecting(weeks))
        assert len(back) == 1
        sid, start_week, p95 = back[0]
        assert (sid, start_week, p95.tolist()) == (series.series_id, (2022, 1), [10.0, 20.0, 30.0])
        assert [len(minutes) for _, minutes, _ in weeks] == [1008] * 3

    def test_missing_weeks_leave_holes(self, tmp_path):
        path = tmp_path / "raw.csv"
        pqio.write_raw_csv(path, [(weekly([10.0, 20.0, 30.0]), [1])])
        ((_, _, p95),) = pqio.read_raw_csv(path)
        assert np.isnan(p95).tolist() == [False, True, False]
        assert p95[[0, 2]].tolist() == [10.0, 30.0]

    def test_parse_error_has_line_number(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("series_id,timestamp_iso8601,value\ns,2022-01-03T00:00:00,1.0\n"
                        "s,notatime,2.0\n")
        with pytest.raises(DataError, match="raw.csv:3"):
            pqio.read_raw_csv(path)

    def test_empty_file_is_error(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("series_id,timestamp_iso8601,value\n")
        with pytest.raises(DataError, match="no data"):
            pqio.read_raw_csv(path)

    def test_series_error_names_file(self, tmp_path):
        path = tmp_path / "raw.csv"
        path.write_text("series_id,timestamp_iso8601,value\ns,2022-01-03T00:00:00,1.0\n"
                        "s,2022-01-03T05:40:00+05:30,nan\n")
        with pytest.raises(DataError, match=rf"^{re.escape(str(path))}: s: invalid value nan "
                                            rf"at 2022-01-03T00:10:00\+00:00$"):
            pqio.read_raw_csv(path)

    @pytest.mark.parametrize("stamp", ["2022-01-03T00:10:30", "2022-01-03T00:10:00.250000",
                                       "2022-01-03T00:10:00+00:00:30"])
    def test_timestamp_off_the_minute_names_line(self, tmp_path, stamp):
        path = tmp_path / "raw.csv"
        path.write_text("series_id,timestamp_iso8601,value\ns,2022-01-03T00:00:00,1.0\n"
                        f"s,{stamp},2.0\n")
        with pytest.raises(DataError, match=r"raw\.csv:3: timestamp .* is not a whole minute"):
            pqio.read_raw_csv(path)


def test_raw_reader_peak_does_not_grow_with_the_weeks(tmp_path, rng):
    """2 series of 20 and of 120 weeks, read and aggregated with the same
    traced peak, give or take 64 B per series and week (8 B per percentile
    kept); a reader that held each series' samples until its file ended
    grew by 16 B per sample, 1,008 per week."""
    peaks = {}
    for n_weeks in (20, 20, 120):  # the first read also pays one-time costs
        path = tmp_path / f"raw{n_weeks}.csv"
        pqio.write_raw_csv(path, [(weekly(rng.uniform(1, 50, n_weeks), series_id=f"s{i}:UNB:220"), ())
                                  for i in range(2)])
        tracemalloc.start()
        try:
            back = pqio.read_raw_csv(path)
            peaks[n_weeks] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert [(len(p95), np.isnan(p95).any()) for _, _, p95 in back] == [(n_weeks, False)] * 2
    growth = (peaks[120] - peaks[20]) / (2 * 100)
    assert growth < 64, f"peak {peaks[20]} -> {peaks[120]} B, {growth:.0f} B per series and week"


class TestForecastCsv:
    def test_roundtrip(self, tmp_path, rng):
        path = tmp_path / "fc.csv"
        values = rng.uniform(0, 50, (2, 52))
        values[1, :3] = [0.0, -0.0, 1e-300]
        original = [
            ForecastBlock("s2", ["SNaive", "D28:median"], values),
            ForecastBlock("s1", ["SNaive"], rng.uniform(0, 50, (1, 52))),
        ]
        pqio.write_forecast_csv(path, original)
        back = pqio.read_forecast_csv(path)
        assert [(b.series_id, b.producers) for b in back] == \
               [(b.series_id, b.producers) for b in original]
        for b, o in zip(back, original):
            assert b.values.tobytes() == o.values.tobytes()

    def test_series_and_producers_in_file_order(self, tmp_path):
        path = tmp_path / "fc.csv"
        lines = ["series_id,producer,h,value", "s2,HW,1,1.0", "s2,SNaive,1,3.0",
                 "s1,SNaive,1,2.0", "s1,HW,1,4.0"]
        path.write_text("\n".join(lines) + "\n")
        back = pqio.read_forecast_csv(path)
        assert [(b.series_id, b.producers, b.values.tolist()) for b in back] == [
            ("s2", ["HW", "SNaive"], [[1.0], [3.0]]), ("s1", ["SNaive", "HW"], [[2.0], [4.0]])]

    def test_producer_a_step_short_names_series_and_producer(self, tmp_path):
        path = tmp_path / "fc.csv"
        lines = ["series_id,producer,h,value", "s,SNaive,1,1.0", "s,SNaive,2,1.0",
                 "s,HW,1,2.0"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"fc\.csv: s: HW has 1 steps, SNaive has 2"):
            pqio.read_forecast_csv(path)

    @pytest.mark.parametrize("label, message", [
        ("B99:mean", "unknown ensemble name 'B99'"),
        ("B01:avg", "unknown combination method in 'B01:avg'"),
    ], ids=["B99:mean", "B01:avg"])
    def test_bad_ensemble_label_names_line(self, tmp_path, label, message):
        path = tmp_path / "fc.csv"
        lines = ["series_id,producer,h,value", "s,SNaive,1,1.0", f"s,{label},1,1.0"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=rf"fc\.csv:3: {message}"):
            pqio.read_forecast_csv(path)

    def test_incomplete_horizon_rejected(self, tmp_path):
        path = tmp_path / "fc.csv"
        lines = ["series_id,producer,h,value", "s,Naive,1,1.0", "s,Naive,3,2.0"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match="steps"):
            pqio.read_forecast_csv(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_value_names_file(self, tmp_path, value):
        path = tmp_path / "fc.csv"
        lines = ["series_id,producer,h,value", "s,HW,1,1.0", f"s,SNaive,1,{value}"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"fc\.csv: s/SNaive: non-finite forecast value"):
            pqio.read_forecast_csv(path)

    def test_duplicate_row_names_line(self, tmp_path):
        path = tmp_path / "fc.csv"
        lines = ["series_id,producer,h,value", "s,SNaive,1,1.0", "s,SNaive,2,2.0",
                 "s,SNaive,1,3.0"]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataError, match=r"fc\.csv:4: duplicate"):
            pqio.read_forecast_csv(path)


# labels the csv writer must quote, or must pass through as they are
AWKWARD_LABELS = ["a,b", 'say "hi"', "cr\rlf", "line\nbreak", " lead", "trail ", "Zürich:Ünb",
                  "東京", "", '"', "plain"]
EDGE_VALUES = [0.0, -0.0, 1e-300, 5e-324, 2.2250738585072014e-308, 1e-310, 1e16, 123456789.0,
               0.1, 1e-5, 1e15, 9.999999999999999e15, 1.7976931348623157e308]
labels = st.text(st.characters(blacklist_categories=["Cs"]), max_size=6)  # Cs: not encodable


def names_a_producer(label: str) -> bool:
    """Whether ``parse_producer`` accepts ``label``: a model name, or an
    ensemble label that names an ensemble and a method."""
    try:
        parse_producer(label)
    except ConfigError:
        return False
    return True


@st.composite
def forecast_blocks(draw):
    """Up to four blocks of distinct series, 1..60 steps, any labels that
    name a producer and finite values."""
    values = st.one_of(st.floats(-1e300, 1e300, allow_nan=False), st.sampled_from(EDGE_VALUES))
    blocks = []
    for sid in draw(st.lists(labels, max_size=4, unique=True)):
        producers = draw(st.lists(labels.filter(names_a_producer), min_size=1, max_size=4, unique=True))
        horizon = draw(st.integers(1, 60))
        rows = [[draw(values) for _ in range(horizon)] for _ in producers]
        blocks.append(ForecastBlock(sid, producers, rows))
    return blocks


class TestForecastWriterReference:
    """``write_forecast_csv`` writes the bytes of the csv writer's row loop
    (``conftest.reference_write_forecast_csv``)."""

    @staticmethod
    def assert_same_bytes(directory, blocks):
        mine, reference = directory / "mine.csv", directory / "reference.csv"
        pqio.write_forecast_csv(mine, blocks)
        reference_write_forecast_csv(reference, blocks)
        assert mine.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("seed", range(20))
    def test_seeded_blocks(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        horizon = int(rng.integers(1, 61))
        blocks = []
        for b in range(int(rng.integers(1, 5))):
            producers = ["SNaive", "HW", "D28:median", *AWKWARD_LABELS[b:b + 3]]
            values = rng.uniform(-5.0, 100.0, (len(producers), horizon))
            values *= 10.0 ** rng.integers(-8, 9, (len(producers), 1))
            values.flat[rng.integers(0, values.size, 3)] = rng.choice(EDGE_VALUES, 3)
            blocks.append(ForecastBlock(AWKWARD_LABELS[-b], producers, values))
        self.assert_same_bytes(tmp_path, blocks)

    def test_edge_values_and_labels(self, tmp_path):
        values = np.array([EDGE_VALUES, [-v for v in EDGE_VALUES]])  # negatives clamp to 0.0
        self.assert_same_bytes(tmp_path, [ForecastBlock(label, ["SNaive", label + "x"], values)
                                          for label in AWKWARD_LABELS])

    @pytest.mark.parametrize("horizon", [1, 2, 9, 10, 52, 60])
    def test_horizons(self, tmp_path, rng, horizon):
        blocks = [ForecastBlock(f"s{i}", ["SNaive", "B01:mean"], rng.uniform(0, 50, (2, horizon)))
                  for i in range(3)]
        self.assert_same_bytes(tmp_path, blocks)

    @settings(max_examples=60, deadline=None)
    @given(forecast_blocks())
    def test_hypothesis_blocks(self, tmp_path_factory, blocks):
        directory = tmp_path_factory.mktemp("fc")
        self.assert_same_bytes(directory, blocks)
        if blocks:  # what the writer writes, the reader reads back
            back = pqio.read_forecast_csv(directory / "mine.csv")
            assert [(b.series_id, b.producers, b.values.tobytes()) for b in back] == \
                   [(b.series_id, b.producers, b.values.tobytes()) for b in blocks]

    def test_no_blocks_writes_the_header_alone(self, tmp_path):
        path = tmp_path / "fc.csv"
        pqio.write_forecast_csv(path, [])
        assert path.read_bytes() == b"series_id,producer,h,value\r\n"
        self.assert_same_bytes(tmp_path, [])


class TestRawWriterReference:
    """``write_raw_csv`` writes the bytes of the csv writer's row loop
    (``conftest.reference_write_raw_csv``) over each weekly series'
    10-minute samples (``conftest.reference_weekly_to_raw``), and raises as
    it does."""

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_series(self, tmp_path, seed):
        rng = np.random.default_rng(seed)
        series = []
        for label in AWKWARD_LABELS[seed % 4::4]:
            n = int(rng.choice([1, 2, 5]))
            start_week = [(1, 1), (2020, 53), (9999, 47), (int(rng.integers(1000, 9000)), 1)][int(rng.integers(0, 4))]
            values = rng.uniform(0.0, 100.0, n) * 10.0 ** rng.integers(-8, 9, n)
            values[rng.integers(0, n, min(n, 2))] = rng.choice([v for v in EDGE_VALUES if v >= 0], min(n, 2))
            missing = rng.integers(0, n + 1, int(rng.integers(0, 3))).tolist()  # a week past the end too
            series.append((WeeklySeries(label, start_week, values), missing))
        pqio.write_raw_csv(tmp_path / "mine.csv", series)
        reference_write_raw_csv(tmp_path / "reference.csv", [reference_weekly_to_raw(s, m) for s, m in series])
        assert (tmp_path / "mine.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("start_week, n", [((9999, 52), 1), ((9999, 51), 2), ((9999, 50), 9)])
    def test_day_beyond_datetime_raises_and_writes_nothing(self, tmp_path, start_week, n):
        series = [(weekly([1.0]), ()), (WeeklySeries("far", start_week, np.ones(n)), ())]
        path = tmp_path / "raw.csv"
        path.write_text("before")
        with pytest.raises(OverflowError) as expected:
            reference_write_raw_csv(tmp_path / "reference.csv", [reference_weekly_to_raw(s, m) for s, m in series])
        with pytest.raises(OverflowError, match=f"^{re.escape(str(expected.value))}$"):
            pqio.write_raw_csv(path, series)
        assert path.read_text() == "before" and sorted(p.name for p in tmp_path.iterdir()) == ["raw.csv",
                                                                                              "reference.csv"]


# producer labels for reader tables: models, ensembles, labels to quote, and
# the two kinds of bad ensemble label
READER_LABELS = ["SNaive", "HW", "B01:mean", "D28:median", "H01:rank", "a,b", 'say "hi"',
                 "line\nbreak", "B99:mean", "B01:avg"]
READER_SERIES = ["s1", "s2", "s3", "Zürich:UNB:220", 'q"uote,d', ""]
BAD_STEPS = [0, -1, 2 ** 70, -(2 ** 64)]


def write_rows(path, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(pqio.FORECAST_HEADER)
        writer.writerows(rows)


def grouped_rows(sids, producers, values) -> list[list]:
    """Rows as the writer orders them: series, then producer, then step."""
    return [[sid, producer, h, value] for sid, block in zip(sids, values)
            for producer, row in zip(producers, block) for h, value in enumerate(row, start=1)]


def writer_order(blocks) -> list[tuple]:
    """The (series, producer, step) of every row of ``read_outcome`` blocks,
    in the order the writer writes them."""
    return [(sid, producer, h) for sid, producers, shape, _ in blocks
            for producer in producers for h in range(1, shape[1] + 1)]


def read_outcome(read, path):
    """The blocks a reader returns, byte for byte, or the text of its error."""
    try:
        blocks = read(path)
    except DataError as exc:
        return "error", str(exc)
    return "blocks", [(b.series_id, b.producers, b.values.shape, b.values.tobytes()) for b in blocks]


def reshape_table(rng, kind, rows, sids, producers, horizon) -> list[list]:
    """The grouped ``rows`` of a valid table reordered or broken as ``kind`` names."""
    if kind == "grouped":
        return rows
    if kind == "interleaved":  # one row of each series in turn
        by_series = [[r for r in rows if r[0] == sid] for sid in sids]
        return [r for group in zip(*by_series) for r in group]
    if kind == "h_major":  # within a series: every producer's step 1, then step 2, ...
        return sorted(rows, key=lambda r: (sids.index(r[0]), r[2]))
    if kind == "shuffled":
        return [rows[i] for i in rng.permutation(len(rows))]
    if kind in ("resumed", "resumed_duplicate"):  # the first series resumes after the others
        first = [r for r in rows if r[0] == sids[0]]
        rest = [r for r in rows if r[0] != sids[0]]
        cut = int(rng.integers(1, len(first)))
        tail = first[cut:]
        if kind == "resumed_duplicate":  # and repeats a step of its first segment
            repeat = list(first[int(rng.integers(0, cut))])
            repeat[3] += 1.0
            tail.append(repeat)
        return first[:cut] + rest + tail
    if kind == "short_producer":
        sid, producer = sids[int(rng.integers(len(sids)))], producers[int(rng.integers(len(producers)))]
        return [r for r in rows if not (r[0] == sid and r[1] == producer and r[2] == horizon)]
    if kind == "steps_reversed":  # valid, but not in step order
        return sorted(rows, key=lambda r: (sids.index(r[0]), producers.index(r[1]), -r[2]))
    if kind == "steps_shifted":  # one producer's steps run 2..H+1
        sid, producer = sids[-1], producers[int(rng.integers(len(producers)))]
        return [[s, p, h + 1 if (s, p) == (sid, producer) else h, v] for s, p, h, v in rows]
    if kind == "bad_step":
        rows = [list(r) for r in rows]
        rows[int(rng.integers(len(rows)))][2] = BAD_STEPS[int(rng.integers(len(BAD_STEPS)))]
        return rows
    if kind in ("B99:mean", "B01:avg"):
        target = producers[int(rng.integers(len(producers)))]
        return [[s, kind if p == target and s == sids[-1] else p, h, v] for s, p, h, v in rows]
    if kind == "nan":
        rows = [list(r) for r in rows]
        for i in rng.integers(len(rows), size=2):
            rows[i][3] = float("nan")
        return rows
    raise ValueError(kind)


TABLE_KINDS = ["grouped", "interleaved", "h_major", "shuffled", "resumed", "resumed_duplicate",
               "short_producer", "steps_reversed", "steps_shifted", "bad_step", "B99:mean",
               "B01:avg", "nan"]


class TestForecastReaderReference:
    """``read_forecast_csv`` returns the blocks of the reader that holds
    every row until the file ends (``conftest.reference_read_forecast_csv``)
    where the table's rows are those blocks' in writer order, and raises a
    ``DataError`` that names the file on every other table."""

    @staticmethod
    def assert_outcome(path, rows):
        mine = read_outcome(pqio.read_forecast_csv, path)
        oracle = read_outcome(reference_read_forecast_csv, path)
        if oracle[0] == "blocks" and writer_order(oracle[1]) == [tuple(r[:3]) for r in rows]:
            assert mine == oracle
        else:
            assert mine[0] == "error" and str(path) in mine[1], mine
        return mine[0]

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", TABLE_KINDS)
    def test_seeded_tables(self, tmp_path, kind, seed):
        rng = np.random.default_rng(seed)
        sids = READER_SERIES[seed:seed + 3]
        producers = ["SNaive", "HW", "D28:median", "a,b", 'say "hi"', "line\nbreak"][seed:]
        horizon = int(rng.integers(2, 9))
        values = rng.uniform(-5.0, 50.0, (len(sids), len(producers), horizon)).tolist()
        rows = grouped_rows(sids, producers, values)
        path = tmp_path / "fc.csv"
        table = reshape_table(rng, kind, rows, sids, producers, horizon)
        write_rows(path, table)
        assert self.assert_outcome(path, table) == ("blocks" if kind == "grouped" else "error")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_hypothesis_tables(self, tmp_path_factory, data):
        draw = data.draw
        sids = draw(st.lists(st.sampled_from(READER_SERIES), min_size=1, max_size=3, unique=True))
        producers = draw(st.lists(st.sampled_from(READER_LABELS[:8]), min_size=1, max_size=4,
                                  unique=True))
        horizon = draw(st.integers(1, 5))
        values = st.floats(-1e6, 1e6, allow_nan=False)
        rows = [[sid, p, h, draw(values)] for sid in sids for p in producers
                for h in range(1, horizon + 1)]
        if draw(st.booleans()):
            rows = draw(st.permutations(rows))
        for _ in range(draw(st.integers(0, 2))):  # break the table in up to two places
            i = draw(st.integers(0, len(rows) - 1))
            change = draw(st.sampled_from(["drop", "repeat", "step", "label", "value", "text"]))
            if change == "drop" and len(rows) > 1:
                del rows[i]
            elif change == "repeat":
                rows.insert(draw(st.integers(0, len(rows))), list(rows[i]))
            elif change == "step":
                rows[i] = [*rows[i][:2], draw(st.sampled_from([horizon + 1, *BAD_STEPS])), rows[i][3]]
            elif change == "label":
                rows[i] = [rows[i][0], draw(st.sampled_from(READER_LABELS)), *rows[i][2:]]
            elif change == "value":
                rows[i] = [*rows[i][:3], draw(st.sampled_from([float("nan"), float("inf"), -0.0]))]
            elif change == "text":
                rows[i] = [*rows[i][:2], *draw(st.sampled_from([("1.5", 1.0), (1, "x")]))]
        path = tmp_path_factory.mktemp("fc") / "fc.csv"
        write_rows(path, rows)
        self.assert_outcome(path, rows)


def test_forecast_reader_stops_where_a_round_robin_table_resumes_a_series(tmp_path):
    """A round-robin table changes series on every row; the read fails at
    the line where the first series comes back."""
    sids, producers, horizon = [f"s{i}" for i in range(60)], ["SNaive", "HW", "B01:mean", "D28:median"], 12
    values = np.random.default_rng(7).uniform(0, 50, (len(sids), len(producers), horizon)).tolist()
    rows = grouped_rows(sids, producers, values)
    path = tmp_path / "fc.csv"
    per_series = len(producers) * horizon
    write_rows(path, [r for i in range(per_series) for r in rows[i::per_series]])  # one row of each series in turn
    assert len(rows) == 2880
    with pytest.raises(DataError, match=rf"fc\.csv:{len(sids) + 2}: series s0 resumes after other series"):
        pqio.read_forecast_csv(path)


def test_forecast_reader_peak_memory_is_bounded_by_its_output(tmp_path, rng):
    """On 40 series, the reader's traced peak stays within 4x the bytes
    of the values it returns (holding every row as Python floats until
    the file ended took ~10x)."""
    producers = ensemble_producers()[::4][:60]
    path = tmp_path / "fc.csv"
    pqio.write_forecast_csv(path, [ForecastBlock(f"s{i}", producers, rng.uniform(0, 50, (60, 52)))
                                   for i in range(40)])
    tracemalloc.start()
    try:
        blocks = pqio.read_forecast_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = sum(block.values.nbytes for block in blocks)
    assert len(blocks) == 40 and nbytes == 40 * 60 * 52 * 8
    assert peak <= 4 * nbytes, f"peak {peak} B for {nbytes} B of values"


def test_forecast_stream_yields_each_series_before_reading_the_next(tmp_path):
    path = tmp_path / "fc.csv"
    lines = ["series_id,producer,h,value", "s1,SNaive,1,1.0", "s1,SNaive,2,2.0",
             "s2,SNaive,1,3.0", "s2,SNaive,3,4.0"]
    path.write_text("\n".join(lines) + "\n")
    blocks = pqio.iter_forecast_csv(path)
    first = next(blocks)
    assert (first.series_id, first.producers, first.values.tolist()) == ("s1", ["SNaive"], [[1.0, 2.0]])
    with pytest.raises(DataError, match=r"fc\.csv:5: \(s2, SNaive\): steps must run 1..H in order"):
        next(blocks)


def test_forecast_stream_peak_memory_is_one_series(tmp_path, rng):
    """Streamed and dropped one at a time, 40 series' blocks peak within 8x
    the bytes of one series' values, where the whole list takes 40x."""
    producers = ensemble_producers()[::4][:60]
    path = tmp_path / "fc.csv"
    pqio.write_forecast_csv(path, [ForecastBlock(f"s{i}", producers, rng.uniform(0, 50, (60, 52)))
                                   for i in range(40)])
    tracemalloc.start()
    try:
        count = sum(1 for _ in pqio.iter_forecast_csv(path))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nbytes = 60 * 52 * 8
    assert count == 40
    assert peak <= 8 * nbytes, f"peak {peak} B for {nbytes} B of one series' values"


def test_forecast_writer_counts_the_blocks_it_consumes(tmp_path, rng):
    blocks = (ForecastBlock(f"s{i}", ["SNaive"], rng.uniform(0, 50, (1, 3))) for i in range(5))
    assert pqio.write_forecast_csv(tmp_path / "fc.csv", blocks) == 5
    assert [b.series_id for b in pqio.read_forecast_csv(tmp_path / "fc.csv")] == \
           [f"s{i}" for i in range(5)]


# the rows a mutation puts in place of, or next to, a data line
ODD_VALUES = [" 1.5 ", "1_0", "+2", "nan", '"1.5"', "x", "", "1.5,", "1.5 " + " " * 131072]
ODD_STEPS = ["0{h}", " {h}", "+{h}", "{h}.0", "{skip}", "{prev}", "x"]
LINE_ENDS = ["\r\n", "\n", "\r"]
DIFF_SERIES = ["s1", "s2", "a,b", 'q"d', "line\nbreak", "cr\rlf", " sp ", ""]
DIFF_PRODUCERS = ["SNaive", " HW", "STL-ES ", "b01:MEAN", "D28:median", "x,y", 'H01:"rank"']


def mutate_line(draw, lines: list[str], i: int) -> None:
    """Change data line ``i`` of ``lines`` (each with its line end) in one
    way a hand-edited or foreign table might."""
    body = lines[i].rstrip("\r\n")
    end = lines[i][len(body):]
    fields = body.split(",")
    change = draw(st.sampled_from(["value", "step", "extra", "end", "blank", "repeat", "drop"]))
    if change == "value":
        fields[-1] = draw(st.sampled_from(ODD_VALUES))
    elif change == "step" and len(fields) >= 4 and fields[-2].isdigit():
        h = int(fields[-2])
        fields[-2] = draw(st.sampled_from(ODD_STEPS)).format(h=h, skip=h + 1, prev=h - 1)
    elif change == "extra":
        fields.append(draw(st.sampled_from(["", "x", "1.5"])))
    elif change == "end":
        end = draw(st.sampled_from(LINE_ENDS))
    elif change == "blank":
        lines.insert(i, draw(st.sampled_from(LINE_ENDS)))
        return
    elif change == "repeat":
        lines.insert(i, lines[i])
        return
    elif change == "drop":
        del lines[i]
        return
    lines[i] = ",".join(fields) + end


def read_or_error(read, path):
    """The blocks a reader returns, byte for byte, or its error's type and text."""
    try:
        blocks = read(path)
    except (DataError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    return "blocks", [(b.series_id, b.producers, b.values.shape, b.values.tobytes()) for b in blocks]


class TestForecastReaderCsvOracle:
    """``iter_forecast_csv`` gives what ``conftest.reference_iter_forecast_csv``,
    the same reader on the csv module alone, gives: the same blocks, float
    for float, or the same error text, ``file:line`` included."""

    @staticmethod
    def assert_same(path):
        mine = read_or_error(pqio.read_forecast_csv, path)
        assert mine == read_or_error(reference_iter_forecast_csv, path)
        return mine[0]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_writer_tables(self, tmp_path_factory, data):
        draw = data.draw
        blocks = []
        for sid in draw(st.lists(st.sampled_from(DIFF_SERIES), min_size=1, max_size=3, unique=True)):
            producers = draw(st.lists(st.sampled_from(DIFF_PRODUCERS), min_size=1, max_size=3, unique=True))
            horizon = draw(st.integers(1, 4))
            values = st.one_of(st.floats(0, 1e6), st.sampled_from(EDGE_VALUES))
            blocks.append(ForecastBlock(sid, producers, [[draw(values) for _ in range(horizon)]
                                                         for _ in producers]))
        path = tmp_path_factory.mktemp("fc") / "fc.csv"
        pqio.write_forecast_csv(path, blocks)
        lines = list(io.StringIO(path.read_text(encoding="utf-8"), newline=""))
        if draw(st.booleans()):  # one line end for the whole table
            end = draw(st.sampled_from(LINE_ENDS))
            lines = [line[:-2] + end if line.endswith("\r\n") else line for line in lines]
        for _ in range(draw(st.integers(0, 2))):
            if len(lines) < 2:  # a drop took the only data line
                break
            mutate_line(draw, lines, draw(st.integers(1, len(lines) - 1)))
        path.write_text("".join(lines), encoding="utf-8", newline="")
        self.assert_same(path)

    @pytest.mark.parametrize("text", ["", "series_id,producer,h,value\r\n", "series_id,producer,h,value",
                                      "series_id,producer,h,value\n\n\r\n"])
    def test_empty_and_header_only(self, tmp_path, text):
        path = tmp_path / "fc.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert self.assert_same(path) == "DataError"

    @pytest.mark.parametrize("line, kind", [
        ("s,SNaive,3,2.5", "blocks"), ("s,SNaive,3,1_0", "blocks"), ("s,SNaive,03,2.5", "blocks"),
        ('s,SNaive,3,"2.5"', "blocks"), ("s,SNaive,3, 2.5 ", "blocks"), ("s,SNaive,3,nan", "DataError"),
        ("s,SNaive,4,2.5", "DataError"), ("s,SNaive,2,2.5", "DataError"), ("s,SNaive,3,2.5,", "DataError"),
        ("s,SNaive,3,x", "DataError"), ("s,SNaive,x,2.5", "DataError"), ("s,SNaive,3", "DataError"),
        ("s,SNaive,3,2.5" + " " * 131072, "DataError"),
    ])
    def test_a_line_just_after_taken_rows(self, tmp_path, line, kind):
        path = tmp_path / "fc.csv"
        path.write_text("series_id,producer,h,value\r\ns,SNaive,1,1.5\r\ns,SNaive,2,2.5\r\n"
                        f"{line}\r\ns,HW,1,1.0\r\ns,HW,2,1.0\r\ns,HW,3,1.0\r\n",
                        encoding="utf-8", newline="")
        assert self.assert_same(path) == kind

    @pytest.mark.parametrize("quoted, line, kind", [
        ('"a,b"', '"a,b",SNaive,2,2.5', "blocks"), ('"a,b"', "a,b,SNaive,2,2.5", "DataError"),
        ('"""x"', '"""x",SNaive,2,2.5', "blocks"), ('"""x"', '"x,SNaive,2,2.5', "DataError"),
        ('"l\nb"', '"l\nb",SNaive,2,2.5', "blocks"), ('"l\nb"', "l\nb,SNaive,2,2.5", "DataError"),
    ])
    def test_a_label_the_writer_quotes(self, tmp_path, quoted, line, kind):
        """Rows of a quoted label are parsed by the csv module, however they
        are written."""
        path = tmp_path / "fc.csv"
        path.write_text(f"series_id,producer,h,value\r\n{quoted},SNaive,1,1.5\r\n{line}\r\n",
                        encoding="utf-8", newline="")
        assert self.assert_same(path) == kind


def test_forecast_reader_parses_one_line_per_producer_with_the_csv_module(tmp_path, rng, monkeypatch):
    """On a table ``write_forecast_csv`` wrote, only the header and each
    producer's first line go through the csv module; every other line is
    taken in its plain form."""
    producers = ["SNaive", "HW", "B01:mean", "D28:median"]
    path = tmp_path / "fc.csv"
    pqio.write_forecast_csv(path, [ForecastBlock(f"s{i}", producers, rng.uniform(0, 50, (4, 52)))
                                   for i in range(3)])
    parsed = 0
    reader = csv.reader

    def counting_reader(lines, *args, **kwargs):
        def counted():
            nonlocal parsed
            for line in lines:
                parsed += 1
                yield line
        return reader(counted(), *args, **kwargs)

    monkeypatch.setattr(pqio.csv, "reader", counting_reader)
    assert len(pqio.read_forecast_csv(path)) == 3
    assert parsed == 1 + 3 * len(producers)


RAW_IDS = ["s1", "s2", "a,b", 'q"d', "line\nbreak", " sp ", ""]
RAW_VALUES = [" 1.5 ", "1_0", "nan", "-1", '"1.5"', "x", "", "1.5,", "1e400", "1.5" + " " * 131072]
RAW_OFFSETS = ["", "+00:00", "Z", "+01:00", "-00:00", "+05:30", "+0530"]
# a timestamp of whole minutes, with or without ':00' seconds and an offset, before its comma or closing quote
RAW_STAMP = re.compile(r"\d{4}-\d\d-\d\d[Tt ]\d\d:\d\d(?::00(?:\.0+)?)?(?:Z|[+-]\d\d:?\d\d)?(?=\"?,)")
FULL_WIDTH = str.maketrans("0123456789", "".join(chr(0xFF10 + d) for d in range(10)))


def restamp(text: str, sep: str, seconds: str, offset: str) -> str:
    """A table ``write_raw_csv`` wrote, each timestamp the same instant in
    local time at ``offset`` (naive UTC for ``""``), with ``sep`` between
    date and time and ``seconds`` (``":00"``, ``""``, ...) after its minute."""
    zone = datetime.fromisoformat("2000-01-01T00:00" + (offset.strip("Z") or "+00:00")).tzinfo

    def local(m: re.Match) -> str:
        return datetime.fromisoformat(m.group()).astimezone(zone).isoformat(sep)[:16] + seconds + offset

    return RAW_STAMP.sub(local, text)


def mutate_stamp(draw, stamp: str) -> str:
    """``stamp``, a timestamp of whole minutes, changed in one way a
    hand-edited or foreign table might."""
    minute, rest = stamp[:16], stamp[16:]  # 'YYYY-MM-DDTHH:MM', then seconds and offset
    offset = re.sub(r"^:00(\.0+)?", "", rest)
    change = draw(st.sampled_from(["offset", "separator", "seconds", "fraction", "24:00", "unpadded",
                                   "full-width", "day"]))
    if change == "offset":
        return minute + draw(st.sampled_from([":00", "", ":00.000"])) + draw(st.sampled_from(RAW_OFFSETS))
    if change == "separator":
        return stamp[:10] + draw(st.sampled_from("T t_")) + stamp[11:]
    if change == "seconds":
        return minute + ":30" + offset
    if change == "fraction":
        return minute + ":00.5" + offset
    if change == "24:00":
        return stamp[:11] + "24:00" + rest
    if change == "unpadded":
        return stamp[:11] + f"{int(stamp[11:13]):2}" + stamp[13:]
    if change == "full-width":
        return stamp[:11] + minute[11:].translate(FULL_WIDTH) + rest
    return stamp[:8] + f"{int(stamp[8:10]) % 28 + 1:02}" + stamp[10:]  # another day


def mutate_raw_line(draw, lines: list[str], i: int) -> None:
    """Change line ``i`` of a raw table's ``lines`` (each with its line end)."""
    body = lines[i].rstrip("\r\n")
    end = lines[i][len(body):]
    change = draw(st.sampled_from(["value", "stamp", "id", "extra", "end", "blank", "repeat", "drop", "swap"]))
    if change == "value":
        body = body.rpartition(",")[0] + "," + draw(st.sampled_from(RAW_VALUES))
    elif change == "stamp":
        body = RAW_STAMP.sub(lambda m: mutate_stamp(draw, m.group()), body, count=1)
    elif change == "id":
        sid, sep, rest = body.partition(",")
        body = draw(st.sampled_from([f'"{sid}"', f"{sid},x", f"{sid}2", f" {sid}"])) + sep + rest
    elif change == "extra":
        body += "," + draw(st.sampled_from(["", "x", "1.5"]))
    elif change == "end":
        end = draw(st.sampled_from(LINE_ENDS))
    elif change == "blank":
        lines.insert(i, draw(st.sampled_from(LINE_ENDS)))
        return
    elif change == "repeat":
        lines.insert(i, lines[i])
        return
    elif change == "drop":
        del lines[i]
        return
    elif change == "swap" and i + 1 < len(lines):
        lines[i], lines[i + 1] = lines[i + 1], lines[i]
        return
    lines[i] = body + end


def read_samples(path) -> list[tuple[str, bytes, bytes]]:
    """Every sample ``read_raw_csv`` hands out, each series' weeks in turn
    joined, as (series id, minute bytes, value bytes) in file order."""
    weeks: list = []
    series: dict[str, tuple[list, list]] = {sid: ([], []) for sid, *_ in pqio.read_raw_csv(path, collecting(weeks))}
    for sid, minutes, values in weeks:
        series[sid][0].extend(minutes)
        series[sid][1].append(values)
    return [(sid, np.array(minutes, dtype=np.int64).tobytes(), b"".join(values))
            for sid, (minutes, values) in series.items()]


def reference_samples(path) -> list[tuple[str, bytes, bytes]]:
    """``conftest.reference_read_raw_csv``'s series in ``read_samples``' form."""
    return [(sid, minutes.tobytes(), values.tobytes()) for sid, minutes, values in reference_read_raw_csv(path)]


def raw_or_error(read, path):
    """The samples of each series a reader gives, byte for byte, or its
    error's type and text."""
    try:
        series = read(path)
    except (DataError, csv.Error) as exc:
        return type(exc).__name__, str(exc)
    return "series", series


# 2022-01-03 22:00 UTC: a series of a few dozen samples from here crosses midnight
RAW_FIRST_MINUTE = utc_minute(datetime(2022, 1, 3, 22, tzinfo=timezone.utc))


class TestRawReaderCsvOracle:
    """``read_raw_csv`` gives what ``conftest.reference_read_raw_csv``, the
    same reader on the csv module and ``datetime.fromisoformat`` alone,
    gives: the same samples, byte for byte, or the same error text,
    ``file:line`` included."""

    @staticmethod
    def assert_same(path):
        mine = raw_or_error(read_samples, path)
        assert mine == raw_or_error(reference_samples, path)
        return mine[0]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_mutated_writer_tables(self, tmp_path_factory, data):
        draw = data.draw
        series = []
        for sid in draw(st.lists(st.sampled_from(RAW_IDS), min_size=1, max_size=3, unique=True)):
            first = RAW_FIRST_MINUTE + 10 * draw(st.integers(0, 20))
            n = draw(st.integers(1, 24))
            values = st.one_of(st.floats(0, 1e6), st.sampled_from([0.0, 1e-300, 1e300, 0.1, 2.0 / 3.0]))
            series.append((sid, first + 10 * np.arange(n), [draw(values) for _ in range(n)]))
        if len(series) > 1 and len(series[0][1]) > 1 and draw(st.booleans()):  # the first resumes last
            sid, minutes, values = series[0]
            cut = len(minutes) // 2
            series = [(sid, minutes[:cut], values[:cut]), *series[1:], (sid, minutes[cut:], values[cut:])]
        if draw(st.booleans()):  # one row at a time, sorted by time as a logger's export may be
            rows = sorted((m, i, k) for i, (_, minutes, _) in enumerate(series) for k, m in enumerate(minutes))
            series = [(series[i][0], series[i][1][k:k + 1], series[i][2][k:k + 1]) for _, i, k in rows]
        path = tmp_path_factory.mktemp("raw") / "raw.csv"
        reference_write_raw_csv(path, series)
        offsets = st.sampled_from(["+00:00", "", "Z", "+05:30", "-03:00", "+0530"])
        text = restamp(path.read_text(encoding="utf-8"), draw(st.sampled_from("T t")),  # 't': in no plain form
                       draw(st.sampled_from([":00", "", ":00.000"])), draw(offsets))
        if draw(st.booleans()):  # every id quoted, as some writers do
            text = re.sub(r'^([^,"\r\n]*),', r'"\1",', text, flags=re.M)
        if draw(st.booleans()):  # every timestamp quoted, as writers that quote text do
            text = RAW_STAMP.sub(r'"\g<0>"', text)
        if draw(st.booleans()):  # every value quoted too: in no plain form
            text = re.sub(r',([^,"\r\n]*)(?=\r\n)', r',"\1"', text)
        lines = list(io.StringIO(text, newline=""))
        if draw(st.booleans()):  # one line end for the whole table
            end = draw(st.sampled_from(LINE_ENDS))
            lines = [line[:-2] + end if line.endswith("\r\n") else line for line in lines]
        for _ in range(draw(st.integers(0, 2))):
            if len(lines) < 2:  # a drop took the only data line
                break
            mutate_raw_line(draw, lines, draw(st.integers(1, len(lines) - 1)))
        path.write_text("".join(lines), encoding="utf-8", newline="")
        self.assert_same(path)

    @pytest.mark.parametrize("text", ["", "series_id,timestamp_iso8601,value\r\n",
                                      "series_id,timestamp_iso8601,value\n\n\r\n",
                                      "series_id,timestamp_iso8601," + "v" * 131073 + "\n"])
    def test_empty_and_header_only(self, tmp_path, text):
        path = tmp_path / "raw.csv"
        path.write_text(text, encoding="utf-8", newline="")
        assert self.assert_same(path) == "DataError"

    @pytest.mark.parametrize("line, kind", [
        ("s,2022-01-03T00:20:00,2.5", "series"), ("s,2022-01-03T00:20:00+00:00,2.5", "series"),
        ("s,2022-01-03T00:20:00Z,2.5", "series"), ("s,2022-01-03T00:20:00-00:00,2.5", "series"),
        ("s,2022-01-03T01:20:00+01:00,2.5", "series"), ("s,2022-01-03 00:20:00,2.5", "series"),
        ("s,2022-01-03T00:20,2.5", "series"), ('"s",2022-01-03T00:20:00,2.5', "series"),
        ("s,2022-01-03T00:20:00, 2.5 ", "series"), ("s,2022-01-03T00:20:00,1_0", "series"),
        ('s,2022-01-03T00:20:00,"2.5"', "series"), ("s,2022-01-03T00:20:00,2.5\r\n", "series"),
        ("s,2022-01-03T00:20:30,2.5", "DataError"), ("s,2022-01-03T00:20:00.5,2.5", "DataError"),
        ("s,2022-01-03T24:00:00,2.5", "DataError"), ("s,2022-01-03T 0:20:00,2.5", "DataError"),
        ("s,2022-01-03T００:20:00,2.5", "DataError"), ("s,2022-01-03T00:20:00,nan", "DataError"),
        ("s,2022-01-03T00:20:00,-1", "DataError"), ("s,2022-01-03T00:20:00,x", "DataError"),
        ("s,2022-01-03T00:20:00,2.5,", "DataError"), ("s,2022-01-03T00:20:00", "DataError"),
        ("s,2022-01-03T00:10:00,2.5", "DataError"), ("s,2022-01-03T00:20:00,2.5" + " " * 131072, "DataError"),
    ])
    def test_a_line_just_after_taken_rows(self, tmp_path, line, kind):
        path = tmp_path / "raw.csv"
        path.write_text("series_id,timestamp_iso8601,value\r\ns,2022-01-03T00:00:00,1.5\r\n"
                        f"s,2022-01-03T00:10:00,2.5\r\n{line}\r\ns,2022-01-03T00:30:00,1.0\r\n"
                        "t,2022-01-03T00:00:00,1.0\r\n", encoding="utf-8", newline="")
        assert self.assert_same(path) == kind

    @pytest.mark.parametrize("line, kind", [
        ("s,2022-01-03T05:50:00+05:30,2.5", "series"), ("s,2022-01-03T00:20:00Z,2.5", "series"),
        ("s,2022-01-03T05:50+05:30,2.5", "series"), ("s,2022-01-03 05:50:00+05:30,2.5", "series"),
        ("s,2022-01-03T05:50:00+05:30:00,2.5", "series"), ("s,2022-01-03T05:50:00+0530,2.5", "series"),
        ("s,2022-01-03T05:50:00+05:31,2.5", "DataError"), ("s,2022-01-03T05:50:00+05:3,2.5", "DataError"),
        ("s,2022-01-03T05:50:00-05:30,2.5", "DataError"), ("s,2022-01-04T05:50:00+05:30,2.5", "DataError"),
        ("s,2022-01-03T05:50:00+05:30,2.5,x", "DataError"),
    ])
    def test_a_line_just_after_rows_at_an_offset(self, tmp_path, line, kind):
        path = tmp_path / "raw.csv"
        path.write_text("series_id,timestamp_iso8601,value\r\ns,2022-01-03T05:30:00+05:30,1.5\r\n"
                        f"s,2022-01-03T05:40:00+05:30,2.5\r\n{line}\r\ns,2022-01-03T06:00:00+05:30,1.0\r\n"
                        "t,2022-01-03T05:30:00+05:30,1.0\r\n", encoding="utf-8", newline="")
        assert self.assert_same(path) == kind

    @pytest.mark.parametrize("tail", ["", "s,2022-01-04T00:30:00,x\r\n", "s,2022-01-04t00:30:00,x\r\n",
                                      "s,2022-01-04t00:30:00,1.0,\r\n", "s,2022-01-04T00:20:00,1.0\r\n"])
    @pytest.mark.parametrize("line", [
        "s,2022-01-03t00:20:00,2.5", "s,2022-01-03T00:20:00,2.5", "s,2022-01-03t00:20:00,x",
        "s,2022-01-03t00:20:00,2.5,", "s,2022-01-03t00:20:00,2.5" + " " * 131072, "s,2022-01-04t00:20:00,2.5",
        's,"2022-01-03t00:20:00\r\n",2.5', "\r\ns,2022-01-03t00:20:00,2.5\r\n",
    ])
    def test_rows_in_no_plain_form(self, tmp_path, line, tail):
        """Rows in no plain form (a 't' for the T) after plain ones: the
        csv module alone parses the rest of their date, then the reader
        goes back to reading plain lines itself, with the same samples or
        errors, ``file:line`` included, either way."""
        path = tmp_path / "raw.csv"
        path.write_text("series_id,timestamp_iso8601,value\r\ns,2022-01-03T00:00:00,1.5\r\n"
                        f"s,2022-01-03t00:10:00,2.5\r\n{line}\r\nt,2022-01-03t00:00:00,1.0\r\n"
                        "s,2022-01-03t00:30:00,1.0\r\ns,2022-01-04T00:00:00,1.0\r\ns,2022-01-04T00:10:00,1.0\r\n"
                        + tail, encoding="utf-8", newline="")
        self.assert_same(path)

    @pytest.mark.parametrize("quoted, line, kind", [
        ('"a,b"', '"a,b",2022-01-03T00:10:00,2.5', "series"), ('"a,b"', "a,b,2022-01-03T00:10:00,2.5", "DataError"),
        ('"""x"', '"""x",2022-01-03T00:10:00,2.5', "series"), ('"""x"', '"x,2022-01-03T00:10:00,2.5', "DataError"),
        ('"l\nb"', '"l\nb",2022-01-03T00:10:00,2.5', "series"),
        ('"l\nb"', "l\nb,2022-01-03T00:10:00,2.5", "DataError"),
        # a quoted id whose first line alone looks like a plain row
        ('"ab,2022-01-03T00:00:00,1.5\r\n"', '"ab,2022-01-03T00:10:00,2.5\r\n",2022-01-03T00:10:00,2.5', "series"),
    ])
    def test_an_id_the_writer_quotes(self, tmp_path, quoted, line, kind):
        """Rows of an id the writer quotes give what the csv module gives,
        however they are written."""
        path = tmp_path / "raw.csv"
        path.write_text(f"series_id,timestamp_iso8601,value\r\n{quoted},2022-01-03T00:00:00,1.5\r\n{line}\r\n",
                        encoding="utf-8", newline="")
        assert self.assert_same(path) == kind


@pytest.mark.parametrize("sep, seconds, offset, days", [
    ("T", ":00", "+00:00", [1, 1, 2, 4]), ("T", ":00", "", [1, 1, 2, 4]), ("T", "", "Z", [1, 1, 2, 4]),
    ("T", ":00", "+05:30", [1, 1, 1, 3]), ("T", "", "-03:00", [1, 1, 1, 4]), (" ", ":00", "", [1, 1, 2, 4]),
    ("T", ":00.000", "Z", [1, 1, 2, 4]), ("T", ":00", "+0530", [1, 1, 1, 3]),
])
@pytest.mark.parametrize("by_time", [False, True])
@pytest.mark.parametrize("quoted_stamps", [False, True])
def test_raw_reader_parses_one_line_per_series_day_with_the_csv_module(tmp_path, rng, monkeypatch, sep, seconds,
                                                                       offset, days, by_time, quoted_stamps):
    """On a table in ``write_raw_csv``'s form or restamped
    at another offset, its timestamps bare or quoted, grouped by series or
    sorted by time, only the header and each series' first line of each
    local date go through the csv module; every other line is taken in its
    plain form, ids the writer quotes included. The one exception: a line
    whose id holds a comma can't be matched to its series by the text
    before its first comma, so it is taken only right after a line of the
    same series."""
    first = utc_minute(datetime(2022, 1, 3, 20, tzinfo=timezone.utc))
    ids = ["s0:UNB:220", "s1,UNB:220", 's2 "x":UNB:220', "s3:UNB:220"]
    series = [(sid, first + 10 * np.arange(n), rng.uniform(0, 50, n))
              for sid, n in zip(ids, [1, 24, 25, 400])]  # from 20:00 UTC, 17:00 at -03:00, 01:30 at +05:30
    path = tmp_path / "raw.csv"
    if by_time:  # one row at a time, every series' row of a minute before the next minute's
        rows = sorted((minute, i, k) for i, (_, minutes, _) in enumerate(series) for k, minute in enumerate(minutes))
        reference_write_raw_csv(path, [(series[i][0], series[i][1][k:k + 1], series[i][2][k:k + 1])
                                       for _, i, k in rows])
        days = [days[0], 24, *days[2:]]  # each of s1's lines follows another series' line
    else:
        reference_write_raw_csv(path, series)
    text = restamp(path.read_text(encoding="utf-8"), sep, seconds, offset)
    path.write_text(RAW_STAMP.sub(r'"\g<0>"', text) if quoted_stamps else text, encoding="utf-8", newline="")
    parsed = 0
    reader = csv.reader

    def counting_reader(lines, *args, **kwargs):
        def counted():
            nonlocal parsed
            for line in lines:
                parsed += 1
                yield line
        return reader(counted(), *args, **kwargs)

    monkeypatch.setattr(pqio.csv, "reader", counting_reader)
    assert read_samples(path) == [(sid, minutes.tobytes(), values.tobytes()) for sid, minutes, values in series]
    assert parsed == 1 + sum(days)


@pytest.mark.parametrize("offset", ["+00:00", "", "+05:30", "-03:00", "+0530", "Z"])
@pytest.mark.parametrize("by_time", [False, True])
def test_raw_weeks_end_at_utc_monday_whatever_the_local_date(tmp_path, rng, offset, by_time):
    """A table restamped at an offset, where UTC Monday 00:00 falls inside
    a local date, hands out the same weeks as the UTC table: each a whole
    calendar week, with the same samples and percentiles."""
    series = [(weekly(rng.uniform(1, 50, 3), series_id=sid), missing) for sid, missing in [("s0", ()), ("s1", [1])]]
    utc, path = tmp_path / "utc.csv", tmp_path / "raw.csv"
    pqio.write_raw_csv(utc, series)
    text = restamp(utc.read_text(encoding="utf-8"), "T", ":00", offset)
    lines = text.splitlines(keepends=True)
    if by_time:  # the two series' rows of a minute next to each other
        lines = [lines[0], *sorted(lines[1:], key=lambda line: RAW_STAMP.search(line).group())]
    path.write_text("".join(lines), encoding="utf-8", newline="")
    weeks: list = []
    assert as_plain(pqio.read_raw_csv(path, collecting(weeks))) == as_plain(pqio.read_raw_csv(utc))
    assert read_samples(path) == read_samples(utc)
    assert sorted((sid, len(minutes), (minutes[0] - MONDAY_MINUTE) % MINUTES_PER_WEEK)
                  for sid, minutes, _ in weeks) == [("s0", 1008, 0)] * 3 + [("s1", 1008, 0)] * 2


def test_raw_rows_out_of_order_are_held_at_most_a_week(tmp_path):
    """A series whose rows go back in time fills no week past 1,009
    samples: the week is checked then, and the error is the one the
    whole-series checks give."""
    path = tmp_path / "raw.csv"
    pqio.write_raw_csv(path, [(weekly([1.0, 2.0, 3.0], series_id="s"), ())])
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text(header + "".join(reversed(rows)), encoding="utf-8", newline="")
    weeks: list = []
    with pytest.raises(DataError) as got:
        pqio.read_raw_csv(path, collecting(weeks))
    assert raw_or_error(reference_samples, path) == ("DataError", str(got.value))
    assert str(got.value).endswith("s: timestamps not strictly increasing at 2022-01-23T23:40:00+00:00")
    assert [len(minutes) for _, minutes, _ in weeks] == [1009]


def test_raw_line_repeated_in_its_form_is_held_at_most_a_week(tmp_path):
    """A line in the writer's plain form, repeated 50,000 times inside a
    week, fills that week to 1,009 samples and no further, though the
    repeats are read from their text, not by the csv module; the error is
    the one the whole-series checks give."""
    path = tmp_path / "raw.csv"
    pqio.write_raw_csv(path, [(weekly([1.0, 2.0, 3.0], series_id="s"), ())])
    header, *rows = path.read_text(encoding="utf-8").splitlines(keepends=True)
    k = 1008 + 5  # the second week's 00:50
    path.write_text(header + "".join(rows[:k] + [rows[k]] * 50_000 + rows[k:]), encoding="utf-8", newline="")
    weeks: list = []
    with pytest.raises(DataError) as got:
        pqio.read_raw_csv(path, collecting(weeks))
    assert raw_or_error(reference_samples, path) == ("DataError", str(got.value))
    assert str(got.value).endswith("s: duplicate timestamp 2022-01-10T00:50:00+00:00")
    assert [len(minutes) for _, minutes, _ in weeks] == [1008, 1009]


class TestLeaderboardCsv:
    def test_roundtrip(self, tmp_path):
        board = Leaderboard(rows=[
            LeaderboardRow("STL-ARIMA", 3.9, 18.22, 3.34, 0.873),
            LeaderboardRow("SNaive", 4.62, 20.88, 5.15, 1.0),
        ], n_series=716)
        path = tmp_path / "board.csv"
        pqio.write_leaderboard_csv(path, board)
        back = pqio.read_leaderboard_csv(path)
        assert back.rows == board.rows
        first = path.read_text().splitlines()
        assert first[0] == "rank,producer,mean_mae,mean_smape,mean_rank,benchmark_ratio"
        assert first[1].startswith("1,STL-ARIMA,")


class TestSmallTableLineNumbers:
    """The weekly and leaderboard readers name the line a record ends on,
    counting every line of a quoted field and every blank line."""

    WEEKLY = "series_id,iso_year,iso_week,utilization_percent,filled\r\n"
    BOARD = "rank,producer,mean_mae,mean_smape,mean_rank,benchmark_ratio\r\n"

    @pytest.mark.parametrize("body, message", [
        ('s,2022,1,1.0,0\r\n"two\r\nlines",2022,1,1.0,0\r\ns,2022,2,oops,0\r\n',
         r"weekly\.csv:5: could not convert string to float: 'oops'"),
        (f's,2022,1,1.0,0\r\ns,2022,2,{"1" * 131073},0\r\n',
         r"weekly\.csv:3: field larger than field limit \(131072\)"),
        ("s,2022,1,1.0,0\r\n\r\n\r\n\r\ns,2022,2,oops,0\r\n",
         r"weekly\.csv:6: could not convert string to float: 'oops'"),
    ], ids=["two-line-id", "field-limit", "blank-lines"])
    def test_weekly_error_names_line(self, tmp_path, body, message):
        path = tmp_path / "weekly.csv"
        path.write_bytes((self.WEEKLY + body).encode())
        with pytest.raises(DataError, match=message):
            pqio.read_weekly_csv(path)

    def test_leaderboard_producer_named_twice_after_two_line_label(self, tmp_path):
        path = tmp_path / "board.csv"
        path.write_bytes((self.BOARD + '1,SNaive,1.0,2.0,1.5,1.0\r\n2,"two\r\nline",1.0,2.0,1.5,1.0\r\n'
                          "3,HW,1.0,2.0,1.5,1.0\r\n4,SNaive,1.0,2.0,1.5,1.0\r\n").encode())
        with pytest.raises(DataError, match=r"board\.csv:6: producer 'SNaive' named twice"):
            pqio.read_leaderboard_csv(path)


class TestAnalysisCsv:
    """No stage reads the analysis tables back; each row is its values'
    ``repr``, in the header's order."""

    @pytest.mark.parametrize("write, table, header, rows", [
        (pqio.write_size_aggregates_csv,
         [SizeAggregate(2, 28, 20.5, 19.0, 0.1 + 0.2, 21.7, 18.2, 23.9),
          SizeAggregate(8, 1, 1 / 3, 17.25, 17.25, 17.25, 17.25, 17.25)],
         ["size", "count", "mean_smape", "q25", "median", "q75", "min", "max"],
         [(2, 28, 20.5, 19.0, 0.1 + 0.2, 21.7, 18.2, 23.9), (8, 1, 1 / 3, 17.25, 17.25, 17.25, 17.25, 17.25)]),
        (pqio.write_composition_csv,
         CompositionReport(top_n=3, model_share={"HW": 1 / 3, "SNaive": 2 / 3}, size_histogram={2: 3},
                           method_histogram={"mean": 2, "median": 1}, size_aggregates=[]),
         ["kind", "key", "value"],
         [("meta", "top_n", 3), ("model_share", "HW", 1 / 3), ("model_share", "SNaive", 2 / 3),
          ("size_count", 2, 3), ("method_count", "mean", 2), ("method_count", "median", 1)]),
        (pqio.write_comparison_csv,
         ComparisonReport("SNaive", "B01:mean", ["s1", "s2"], np.array([20.0, 0.1 + 0.2]),
                          np.array([15.0, 12.5]), np.array([0.25, -1 / 3])),
         ["series_id", "individual_smape", "ensemble_smape", "relative_improvement"],
         [("s1", 20.0, 15.0, 0.25), ("s2", 0.1 + 0.2, 12.5, -1 / 3)]),
    ], ids=["size_aggregates", "composition", "comparison"])
    def test_writer_rows_are_header_and_repr(self, tmp_path, write, table, header, rows):
        path = tmp_path / "table.csv"
        write(path, table)
        with path.open(newline="", encoding="utf-8") as fh:
            assert list(csv.reader(fh)) == [header, *([repr(v) if not isinstance(v, str) else v for v in row]
                                                      for row in rows)]


class TestAtomicWrites:
    @pytest.mark.parametrize("write, item", [
        (pqio.write_forecast_csv, ForecastBlock("s1", ["SNaive"], np.ones((1, 52)))),
        (pqio.write_manifest, pqio.ManifestEntry("forecast", "s1", "SARIMA", "fallback")),
    ], ids=["forecast", "manifest"])
    @pytest.mark.parametrize("earlier", [None, "earlier output\n"], ids=["new", "existing"])
    def test_interrupted_write_leaves_no_partial_file(self, tmp_path, write, item, earlier):
        path = tmp_path / "out"
        if earlier is not None:
            path.write_text(earlier)

        def items():
            yield item
            raise RuntimeError("interrupted")

        with pytest.raises(RuntimeError, match="interrupted"):
            write(path, items())
        assert [p.name for p in tmp_path.iterdir()] == ([] if earlier is None else ["out"])
        if earlier is not None:
            assert path.read_text() == earlier

    # a lone surrogate in a label cannot be encoded, so the write itself fails
    @pytest.mark.parametrize("render, report", [
        (pqreport.render_composition_svg,
         CompositionReport(top_n=1, model_share={"HW\udc80": 1.0}, size_histogram={2: 1},
                           method_histogram={"mean": 1}, size_aggregates=[])),
        (pqreport.render_comparison_svg,
         ComparisonReport("SNaive", "B01\udc80:mean", ["s1"], np.array([20.0]),
                          np.array([15.0]), np.array([0.25]))),
    ], ids=["composition", "comparison"])
    def test_failed_render_keeps_earlier_figure(self, tmp_path, render, report):
        path = tmp_path / "fig.svg"
        path.write_text("<svg>earlier</svg>")
        with pytest.raises(UnicodeEncodeError):
            render(path, report)
        assert [p.name for p in tmp_path.iterdir()] == ["fig.svg"]
        assert path.read_text() == "<svg>earlier</svg>"


def test_comparison_title_escapes_producer_labels(tmp_path):
    """A label that is not an ensemble name is an individual producer, and
    any text is one; the figure stays well-formed XML and shows it as given."""
    path = tmp_path / "fig.svg"
    pqreport.render_comparison_svg(path, ComparisonReport(
        "a<b&c", "B01:mean", ["s1", "s2"], np.array([20.0, 10.0]), np.array([15.0, 12.5]),
        np.array([0.25, -0.25])))
    title = ElementTree.parse(path).getroot().find("{http://www.w3.org/2000/svg}text")
    assert title.text == "B01:mean vs a<b&c (wins 50 %)"


class TestPlanningLevels:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "levels.ini"
        levels = [PlanningLevel("UNB", "220", 1.4), PlanningLevel("U05", "380", 2.0)]
        pqio.write_planning_levels(path, levels)
        back = pqio.load_planning_levels(path)
        assert back[("UNB", "220")] == levels[0]
        assert back[("U05", "380")] == levels[1]

    def test_missing_level_entry(self, tmp_path):
        path = tmp_path / "levels.ini"
        path.write_text("[UNB@220]\nnote = hello\n")
        with pytest.raises(ConfigError, match="level"):
            pqio.load_planning_levels(path)

    def test_bad_section_name(self, tmp_path):
        path = tmp_path / "levels.ini"
        path.write_text("[UNB]\nlevel = 1.0\n")
        with pytest.raises(ConfigError, match="parameter@voltage"):
            pqio.load_planning_levels(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError):
            pqio.load_planning_levels(tmp_path / "absent.ini")


def as_plain(obj):
    """What a reader returns, as nested tuples with arrays as their bytes,
    so two reads compare with ``==``."""
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, dict):
        return tuple((key, as_plain(value)) for key, value in obj.items())
    if hasattr(obj, "__dict__"):  # a dataclass
        return type(obj).__name__, as_plain(vars(obj))
    if isinstance(obj, (list, tuple, types.GeneratorType)):
        return tuple(as_plain(item) for item in obj)
    return obj


@pytest.mark.parametrize("write, read", [
    pytest.param(lambda path: pqio.write_raw_csv(path, [(weekly([10.0]), ())]),
                 pqio.read_raw_csv, id="read_raw_csv"),
    pytest.param(lambda path: pqio.write_weekly_csv(path, [weekly([1.5, 2.5], filled=np.array([False, True]))]),
                 pqio.read_weekly_csv, id="read_weekly_csv"),
    pytest.param(lambda path: pqio.write_forecast_csv(path, [ForecastBlock("s1", ["SNaive", "HW"],
                                                                           np.arange(6.0).reshape(2, 3))]),
                 pqio.iter_forecast_csv, id="iter_forecast_csv"),
    pytest.param(lambda path: pqio.write_leaderboard_csv(path, Leaderboard(
                     rows=[LeaderboardRow("SNaive", 4.62, 20.88, 1.0, 1.0)], n_series=3)),
                 pqio.read_leaderboard_csv, id="read_leaderboard_csv"),
    pytest.param(lambda path: pqio.write_planning_levels(path, [PlanningLevel("UNB", "220", 1.4)]),
                 pqio.load_planning_levels, id="load_planning_levels"),
])
def test_reader_skips_a_byte_order_mark(tmp_path, write, read):
    """A file that a spreadsheet saved with a UTF-8 byte-order mark reads as
    the same file without it."""
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    write(plain)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert as_plain(read(marked)) == as_plain(read(plain))


class TestRejectionsAndManifest:
    def test_rejections_csv(self, tmp_path):
        path = tmp_path / "rejections.csv"
        pqio.write_rejections_csv(path, [
            Rejection("s1", RejectionReason.TOO_MANY_GAPS),
            Rejection("s2", RejectionReason.UNFILLABLE_GAP),
        ])
        lines = path.read_text().splitlines()
        assert lines == ["series_id,reason", "s1,too-many-gaps", "s2,unfillable-gap"]

    def test_manifest_jsonl(self, tmp_path):
        path = tmp_path / "manifest.jsonl"
        pqio.write_manifest(path, [
            pqio.ManifestEntry("forecast", "s1", "SARIMA", "snaive fallback"),
        ])
        entries = [json.loads(line) for line in path.read_text().splitlines()]
        assert entries == [{"stage": "forecast", "series_id": "s1",
                            "producer": "SARIMA", "message": "snaive fallback"}]
