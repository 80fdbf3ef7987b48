from __future__ import annotations

import json

import numpy as np
import pytest
from conftest import reference_write_forecast_csv
from hypothesis import given, settings
from hypothesis import strategies as st

from pqforecast import io as pqio
from pqforecast import report as pqreport
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
    PlanningLevel,
    Rejection,
    RejectionReason,
    WeeklySeries,
    aggregate_weekly,
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

    def test_non_consecutive_weeks_rejected(self, tmp_path):
        path = tmp_path / "weekly.csv"
        path.write_text("series_id,iso_year,iso_week,utilization_percent,filled\n"
                        "s,2022,1,1.0,0\ns,2022,3,2.0,0\n")
        with pytest.raises(DataError, match="consecutive"):
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


class TestRawCsv:
    def test_roundtrip_through_aggregation(self, tmp_path):
        series = weekly([10.0, 20.0, 30.0])
        raw = pqio.weekly_to_raw(series)
        path = tmp_path / "raw.csv"
        pqio.write_raw_csv(path, [raw])
        back = pqio.read_raw_csv(path)
        assert len(back) == 1
        aggs = aggregate_weekly(back[0])
        assert [a.p95 for a in aggs] == [10.0, 20.0, 30.0]
        assert all(a.present_count == 1008 for a in aggs)

    def test_missing_weeks_leave_holes(self):
        raw = pqio.weekly_to_raw(weekly([10.0, 20.0, 30.0]), missing_weeks=[1])
        aggs = aggregate_weekly(raw)
        assert [a.p95 for a in aggs] == [10.0, None, 30.0]

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
        lines = ["series_id,producer,h,value", "s2,HW,1,1.0", "s1,SNaive,1,2.0",
                 "s2,SNaive,1,3.0", "s1,HW,1,4.0"]
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


@st.composite
def forecast_blocks(draw):
    """Up to four blocks of 1..60 steps with any labels and finite values."""
    values = st.one_of(st.floats(-1e300, 1e300, allow_nan=False), st.sampled_from(EDGE_VALUES))
    blocks = []
    for _ in range(draw(st.integers(0, 4))):
        producers = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
        horizon = draw(st.integers(1, 60))
        rows = [[draw(values) for _ in range(horizon)] for _ in producers]
        blocks.append(ForecastBlock(draw(labels), producers, rows))
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
        self.assert_same_bytes(tmp_path_factory.mktemp("fc"), blocks)

    def test_no_blocks_writes_the_header_alone(self, tmp_path):
        path = tmp_path / "fc.csv"
        pqio.write_forecast_csv(path, [])
        assert path.read_bytes() == b"series_id,producer,h,value\r\n"
        self.assert_same_bytes(tmp_path, [])


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


class TestAnalysisCsv:
    def test_roundtrip(self, tmp_path):
        aggregates = [SizeAggregate(2, 28, 20.5, 19.0, 20.1, 21.7, 18.2, 23.9),
                      SizeAggregate(8, 1, 17.25, 17.25, 17.25, 17.25, 17.25, 17.25)]
        pqio.write_size_aggregates_csv(tmp_path / "agg.csv", aggregates)
        assert pqio.read_size_aggregates_csv(tmp_path / "agg.csv") == aggregates

        composition = CompositionReport(top_n=3, model_share={"HW": 0.5, "SNaive": 0.5},
                                        size_histogram={2: 3},
                                        method_histogram={"mean": 2, "median": 1},
                                        size_aggregates=[])
        pqio.write_composition_csv(tmp_path / "comp.csv", composition)
        assert pqio.read_composition_csv(tmp_path / "comp.csv") == composition

        comparison = ComparisonReport("best individual", "best ensemble", ["s1", "s2"],
                                      np.array([20.0, 10.0]), np.array([15.0, 12.5]),
                                      np.array([0.25, -0.25]))
        pqio.write_comparison_csv(tmp_path / "cmp.csv", comparison)
        back = pqio.read_comparison_csv(tmp_path / "cmp.csv")
        assert back.series_ids == comparison.series_ids
        for field in ("individual_smape", "ensemble_smape", "relative_improvement"):
            assert np.array_equal(getattr(back, field), getattr(comparison, field))

    def test_wrong_width_names_line(self, tmp_path):
        path = tmp_path / "comp.csv"
        path.write_text("kind,key,value\nmeta,top_n,3\nmodel_share,HW\n")
        with pytest.raises(DataError, match=r"comp\.csv:3: expected 3 columns"):
            pqio.read_composition_csv(path)


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
