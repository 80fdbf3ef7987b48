from __future__ import annotations

import csv
import math
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from pqforecast import io as pqio
from pqforecast.errors import ConfigError, DataError
from pqforecast.weekly import (
    MIN_SAMPLES_PER_WEEK,
    MINUTES_PER_WEEK,
    MONDAY_MINUTE,
    PlanningLevel,
    RawWeeks,
    Rejection,
    RejectionReason,
    SeriesKey,
    WeeklySeries,
    fill_gaps,
    normalize,
    split_train_test,
    utc_minute,
)

from conftest import (
    MONDAY,
    WEEK_2022_1,
    ReferenceRawSeries,
    make_aggs,
    make_raw,
    reference_aggregate_weekly,
    collecting,
    reference_add,
    reference_fill_gaps,
    weekly_p95,
)


def p95_oracle(values) -> float:
    """Brute-force sort + linear interpolation between order statistics."""
    xs = sorted(float(v) for v in values)
    h = 0.95 * (len(xs) - 1)
    lo = math.floor(h)
    if lo + 1 >= len(xs):
        return xs[-1]
    frac = h - lo
    return xs[lo] + frac * (xs[lo + 1] - xs[lo])


class TestValidityThreshold:
    def test_threshold_is_958(self):
        # independent integer computation of ceil(0.95 * 1008)
        assert MIN_SAMPLES_PER_WEEK == -((-95 * 1008) // 100) == 958

    def test_full_constant_week(self):
        _, p95 = weekly_p95(make_raw([[5.0] * 1008]))
        assert p95.tolist() == [5.0]

    def test_950_samples_is_invalid(self):
        raw = make_raw([[5.0] * 950, [5.0] * 1008])
        _, p95 = weekly_p95(raw)
        assert len(raw[1]) == 950 + 1008
        assert np.isnan(p95[0])
        assert p95[1] == 5.0

    def test_exactly_958_samples_is_valid(self):
        _, p95 = weekly_p95(make_raw([[5.0] * 958, [5.0] * 1008]))
        assert p95[0] == 5.0

    def test_957_samples_is_invalid(self):
        _, p95 = weekly_p95(make_raw([[5.0] * 957, [5.0] * 1008]))
        assert np.isnan(p95[0])


class TestPercentile:
    def test_ramp_week(self):
        values = [float(v) for v in range(1, 1009)]
        _, p95 = weekly_p95(make_raw([values]))
        assert p95[0] == pytest.approx(957.65, abs=1e-9)
        assert p95[0] == pytest.approx(p95_oracle(values), rel=1e-12)

    def test_oracle_equivalence_1000_random_sets(self, rng):
        for _ in range(1000):  # every sample count of a valid week
            n = int(rng.integers(MIN_SAMPLES_PER_WEEK, 1009))
            values = rng.uniform(0.0, 100.0, size=n)
            got = weekly_p95(make_raw([values, [0.0]]))[1][0]  # the next Monday ends the week
            want = p95_oracle(values)
            assert got == pytest.approx(want, rel=1e-12)
            assert got.tobytes() == np.percentile(values, 95).tobytes()


class TestAggregateWeekly:
    def test_span_too_short(self):
        week, p95 = weekly_p95(make_raw([[1.0] * 100]))
        assert (week, len(p95)) == (None, 0)
        with pytest.raises(DataError, match="^s: span too short \\(no full calendar week\\)$"):
            fill_gaps("s", week, p95)

    def test_partial_edge_weeks_excluded(self):
        # start Wednesday: first partial week must be dropped
        start = MONDAY + timedelta(days=2)
        raw = make_raw([[2.0] * 1008, [3.0] * 1008], start=start)
        # samples run Wed..Wed; only the span's single full Mon-Sun week counts
        week, p95 = weekly_p95(raw)
        assert week == (2022, 2)
        assert p95.tolist() == [3.0]  # Monday and Tuesday at 2.0, the other 720 samples at 3.0

    def test_rejects_duplicate_timestamps(self):
        minute = utc_minute(MONDAY)
        with pytest.raises(DataError, match="duplicate"):
            weekly_p95(("s:UNB:220", [minute, minute], [1.0, 2.0]))

    def test_rejects_off_grid_timestamp(self):
        with pytest.raises(DataError, match="10-minute grid"):
            weekly_p95(("s:UNB:220", [utc_minute(MONDAY) + 5], [1.0]))

    def test_week_ids_are_iso(self):
        week, p95 = weekly_p95(make_raw([[1.0] * 1008, [1.0] * 1008]))
        assert week == WEEK_2022_1
        assert len(p95) == 2


# Offsets a raw timestamp may carry; None writes it naive (UTC).
OFFSETS = (None, timezone.utc, timezone(timedelta(hours=5, minutes=30)), timezone(timedelta(hours=-3)))
FAULTS = ("off-grid", "duplicate", "decreasing", "nan", "inf", "negative")


def _aggregates_or_error(aggregate, *args):
    try:
        week, p95 = aggregate(*args)
        return week, p95.tobytes()
    except DataError as exc:
        return str(exc)


def _weeks_handed_out(feed, minutes: np.ndarray, values: np.ndarray):
    """Every week a ``RawWeeks`` hands to ``aggregate`` while ``feed`` gives
    it ``minutes`` and ``values``, then what ``close`` gives or raises."""
    weeks: list = []
    raw = RawWeeks("s", int(minutes[0]), collecting(weeks))
    feed(raw, minutes, values)
    try:
        sid, week, p95 = raw.close()
        return weeks, (week, p95.tobytes())
    except DataError as exc:
        return weeks, str(exc)


class TestRawWeeksExtend:
    """``extend`` hands ``aggregate`` the same weeks, each with the same
    samples, as ``reference_add`` of each sample in turn, wherever the
    runs it is given begin and end: across week ends, with samples that go
    back in time or repeat, and with more samples in a week than it holds."""

    @settings(max_examples=300, deadline=None)
    @given(first=st.integers(-3 * 1440, 3 * 1440),
           steps=st.lists(st.sampled_from([10, 10, 10, 10, 0, -10, 3, 1440, -3 * 1440, MINUTES_PER_WEEK, 30_000]),
                          min_size=1, max_size=400),
           stuck=st.integers(0, 2100), at=st.floats(0, 1), cuts=st.lists(st.floats(0, 1), max_size=4))
    @example(first=0, steps=[10] * 400, stuck=1009, at=0.5, cuts=[])  # a week of 1,009 samples
    @example(first=0, steps=[10] * 400, stuck=2018, at=1.0, cuts=[0.2, 0.9])
    def test_same_weeks_as_add(self, first, steps, stuck, at, cuts):
        minutes = utc_minute(MONDAY) + first + np.cumsum([0, *steps])
        k = int(at * len(minutes))
        minutes = np.insert(minutes, k, np.full(stuck, minutes[min(k, len(minutes) - 1)])).astype(np.int64)
        values = np.arange(len(minutes), dtype=np.float64)
        bounds = [0, *sorted(int(c * len(minutes)) for c in cuts), len(minutes)]

        def add(raw, minutes, values):
            for minute, value in zip(minutes.tolist(), values.tolist()):
                reference_add(raw, minute, value)

        def extend(raw, minutes, values):
            for lo, hi in zip(bounds, bounds[1:]):
                raw.extend(minutes[lo:hi], values[lo:hi])

        weeks, outcome = _weeks_handed_out(extend, minutes, values)
        assert (weeks, outcome) == _weeks_handed_out(add, minutes, values)
        assert max(len(m) for _, m, _ in weeks) <= 1009


class TestRawOracle:
    """``read_raw_csv``'s per-week checks and the weeks ``RawWeeks`` buckets
    against the whole-series, per-tuple checks and bucketing they replaced:
    every sample the reader hands out, and the percentiles or the error."""

    # No shrink phase: every example is a file of up to ~3,600 rows, and
    # shrinking one failure took over four minutes; the drawn parameters
    # already read as a small case.
    @settings(max_examples=100, deadline=None, phases=[Phase.explicit, Phase.reuse, Phase.generate])
    @given(
        first=st.sampled_from([MONDAY, datetime(2020, 12, 28, tzinfo=timezone.utc)]),  # ISO 2022-W01, 2020-W53
        shift=st.integers(-4 * 144, 4 * 144),  # mid-week starts, in 10-minute slots
        weeks=st.integers(1, 3),
        end=st.one_of(st.integers(-2, 1), st.integers(-300, 300)),  # the last sample, by a week's end
        drop=st.sampled_from([0.0, 0.02, 0.06, 0.5]),
        ties=st.booleans(),
        offsets=st.lists(st.sampled_from(OFFSETS), min_size=1, max_size=3),
        # at the first, middle or last sample, so two faults often hit one sample
        faults=st.lists(st.tuples(st.sampled_from(FAULTS), st.sampled_from([0.0, 0.5, 1.0])), max_size=2),
        seed=st.integers(0, 2**32 - 1),
    )
    @example(first=MONDAY, shift=0, weeks=1, end=0, drop=0.0, ties=False, offsets=[None],
             faults=[("off-grid", 0.5), ("nan", 0.5)], seed=0)
    @example(first=MONDAY, shift=0, weeks=1, end=0, drop=0.0, ties=False, offsets=[None],
             faults=[("decreasing", 0.5), ("negative", 0.5)], seed=0)
    @example(first=datetime(2020, 12, 28, tzinfo=timezone.utc), shift=0, weeks=2, end=-1, drop=0.0,
             ties=False, offsets=[None], faults=[], seed=0)  # W53, then a week one sample short
    # UTC Monday 00:00 inside a local date, read in one plain form and in forms that change
    @example(first=MONDAY, shift=-40, weeks=2, end=0, drop=0.0, ties=False, offsets=[OFFSETS[2]], faults=[], seed=1)
    @example(first=MONDAY, shift=3, weeks=3, end=-7, drop=0.02, ties=False, offsets=[OFFSETS[3]], faults=[], seed=2)
    @example(first=MONDAY, shift=-1, weeks=2, end=0, drop=0.0, ties=False, offsets=[OFFSETS[2], OFFSETS[3]],
             faults=[], seed=3)
    def test_matches_tuple_oracle(self, tmp_path_factory, first, shift, weeks, end, drop, ties,
                                  offsets, faults, seed):
        rng = np.random.default_rng(seed)
        n = max(1, 1008 * weeks - shift + end)
        instants = [first + timedelta(minutes=10 * (shift + k)) for k in range(n)]
        values = rng.uniform(0.0, 100.0, n).round(0 if ties else 12).tolist()
        keep = np.flatnonzero(rng.random(n) >= drop).tolist() or [0]
        instants, values = [instants[k] for k in keep], [values[k] for k in keep]
        for fault, where in faults:
            k = min(int(where * len(instants)), len(instants) - 1)
            if fault == "off-grid":
                instants[k] += timedelta(minutes=int(rng.integers(1, 10)))
            elif fault == "duplicate":
                instants.insert(k, instants[k])
                values.insert(k, values[k])
            elif fault == "decreasing" and k > 0:
                instants[k - 1], instants[k] = instants[k], instants[k - 1]
            else:
                values[k] = {"nan": math.nan, "inf": math.inf, "negative": -values[k] - 1.0}.get(fault, values[k])
        rows = []
        for i, (ts, value) in enumerate(zip(instants, values)):
            tz = offsets[i % len(offsets)]
            text = ts.replace(tzinfo=None).isoformat() if tz is None else ts.astimezone(tz).isoformat()
            rows.append(("s:UNB:220", text, repr(value)))
        path = tmp_path_factory.mktemp("raw") / "raw.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows([pqio.RAW_HEADER, *rows])

        weeks: list = []
        try:
            want = ReferenceRawSeries("s:UNB:220", [(datetime.fromisoformat(t), float(v)) for _, t, v in rows])
        except DataError as exc:
            with pytest.raises(DataError) as got:
                pqio.read_raw_csv(path, collecting(weeks))
            assert str(got.value) == f"{path}: {exc}"
            return
        ((sid, week, p95),) = pqio.read_raw_csv(path, collecting(weeks))
        assert {w[0] for w in weeks} == {sid} == {"s:UNB:220"}
        assert [m for _, minutes, _ in weeks for m in minutes] == [utc_minute(ts) for ts, _ in want.samples]
        assert b"".join(v for *_, v in weeks) == np.array([v for _, v in want.samples]).tobytes()
        # one calendar week each, in turn
        mondays = [{(m - MONDAY_MINUTE) // MINUTES_PER_WEEK for m in minutes} for _, minutes, _ in weeks]
        assert all(len(w) == 1 for w in mondays) and sorted(set.union(*mondays)) == [min(w) for w in mondays]
        assert (_aggregates_or_error(lambda: (week, p95) if len(p95) else fill_gaps(sid, week, p95))
                == _aggregates_or_error(reference_aggregate_weekly, want))


class TestFillGaps:
    def test_single_gap_carries_forward(self):
        # the [5, gap, 7] pattern padded so the gap fraction stays below 20 %
        result = fill_gaps("s", *make_aggs([5.0, None, 7.0] + [7.0] * 5))
        assert isinstance(result, WeeklySeries)
        assert result.values[:3].tolist() == [5.0, 5.0, 7.0]
        assert result.filled_flags[:3].tolist() == [False, True, False]

    def test_too_many_gaps(self):
        # 21 fillable gaps out of 100: 21/100 > 0.20
        p95s: list[float | None] = [1.0] * 100
        gap_positions = [i for i in range(2, 86, 4)][:21]
        for i in gap_positions:
            p95s[i] = None
        assert len([p for p in p95s if p is None]) == 21
        result = fill_gaps("s", *make_aggs(p95s))
        assert result == Rejection("s", RejectionReason.TOO_MANY_GAPS)

    def test_exactly_20_percent_is_accepted(self):
        p95s: list[float | None] = [1.0] * 100
        for i in range(2, 82, 4):
            p95s[i] = None
        assert len([p for p in p95s if p is None]) == 20
        result = fill_gaps("s", *make_aggs(p95s))
        assert isinstance(result, WeeklySeries)
        assert np.mean(result.filled_flags) == pytest.approx(0.20)

    def test_leading_gap_unfillable(self):
        result = fill_gaps("s", *make_aggs([None, 5.0, 6.0]))
        assert result == Rejection("s", RejectionReason.UNFILLABLE_GAP)

    def test_gap_at_distance_10_fillable(self):
        p95s = [9.0] + [None] * 10 + [3.0] * 41
        result = fill_gaps("s", *make_aggs(p95s))
        assert isinstance(result, WeeklySeries)
        assert result.values[10] == 9.0

    def test_gap_at_distance_11_unfillable(self):
        p95s = [9.0] + [None] * 11 + [3.0] * 42
        result = fill_gaps("s", *make_aggs(p95s))
        assert result == Rejection("s", RejectionReason.UNFILLABLE_GAP)

    def test_unfillable_reported_before_gap_fraction(self):
        # leading gap in a short series violates both rules
        result = fill_gaps("s", *make_aggs([None, 5.0, 6.0]))
        assert isinstance(result, Rejection)
        assert result.reason is RejectionReason.UNFILLABLE_GAP

    @settings(max_examples=80, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.floats(0.1, 100.0)), min_size=3, max_size=80))
    @example([9.0] + [None] * 10 + [3.0] * 41)  # the longest fillable gap
    @example([9.0] + [None] * 11 + [3.0] * 42)  # one week too long
    @example([1.0, 2.0] + [None, 3.0, 4.0, 5.0] * 5)  # 25 % missing, every gap fillable
    def test_fuzz_gap_patterns(self, pattern):
        result = fill_gaps("s", *make_aggs(pattern))
        want = reference_fill_gaps("s", WEEK_2022_1, pattern)
        if isinstance(want, Rejection):
            assert result == want
        else:
            assert result.start_week == want.start_week
            assert result.values.tobytes() == want.values.tobytes()
            assert result.filled_flags.tolist() == want.filled_flags.tolist()
        if isinstance(result, WeeklySeries):
            # never rewrites a present value, never leaves a hole
            for i, p in enumerate(pattern):
                if p is not None:
                    assert result.values[i] == p
                    assert not result.filled_flags[i]
            assert np.all(np.isfinite(result.values))
            assert np.mean(result.filled_flags) <= 0.20
        else:
            absent = sum(1 for p in pattern if p is None)
            if result.reason is RejectionReason.TOO_MANY_GAPS:
                assert absent / len(pattern) > 0.20


class TestNormalize:
    def _series(self, values, series_id="site1:UNB:220"):
        return WeeklySeries(series_id=series_id, start_week=WEEK_2022_1, values=np.array(values))

    def test_direct_ratio(self):
        pl = PlanningLevel("UNB", "220", 2.0)
        out = normalize(self._series([1.0]), pl)
        assert out.values[0] == 50.0

    def test_zero_value(self):
        out = normalize(self._series([0.0]), PlanningLevel("UNB", "220", 3.7))
        assert out.values[0] == 0.0

    def test_elementwise(self):
        out = normalize(self._series([0.7, 1.4]), PlanningLevel("UNB", "220", 0.7))
        oracle = [100.0 * v / 0.7 for v in (0.7, 1.4)]
        assert out.values.tolist() == pytest.approx(oracle)

    def test_linearity(self, rng):
        values = rng.uniform(0.1, 5.0, size=20)
        pl = PlanningLevel("UNB", "220", 1.3)
        a = 3.25
        scaled = normalize(self._series(a * values), pl).values
        base = normalize(self._series(values), pl).values
        assert scaled == pytest.approx(a * base, rel=1e-12)

    def test_mismatched_parameter(self):
        with pytest.raises(ConfigError):
            normalize(self._series([1.0]), PlanningLevel("Uthd", "220", 2.0))

    def test_mismatched_voltage(self):
        with pytest.raises(ConfigError):
            normalize(self._series([1.0]), PlanningLevel("UNB", "380", 2.0))

    def test_level_must_be_positive(self):
        with pytest.raises(ConfigError):
            PlanningLevel("UNB", "220", 0.0)


class TestSeriesKey:
    def test_parse_roundtrip(self):
        key = SeriesKey.try_parse("siteA:U05:380")
        assert key == SeriesKey("siteA", "U05", "380")

    def test_opaque_id_returns_none(self):
        assert SeriesKey.try_parse("just-an-id") is None
        assert SeriesKey.try_parse("a:b") is None
        assert SeriesKey.try_parse("a::c") is None


class TestSplitTrainTest:
    def _series(self, n):
        return WeeklySeries(series_id="s:UNB:220", start_week=WEEK_2022_1,
                            values=np.arange(n, dtype=float))

    def test_157_weeks(self):
        train, test = split_train_test(self._series(157))
        assert len(train) == 105 and len(test) == 52
        assert train.values[0] == 0.0 and train.values[-1] == 104.0
        assert test.values[0] == 105.0 and test.values[-1] == 156.0

    def test_156_weeks_errors(self):
        with pytest.raises(DataError, match="insufficient history"):
            split_train_test(self._series(156))

    def test_long_series_truncated(self):
        train, test = split_train_test(self._series(200))
        assert len(train) == 105 and len(test) == 52
        assert test.values[-1] == 156.0  # weeks beyond 157 ignored

    def test_boundaries_are_contiguous_prefix(self):
        s = self._series(170)
        train, test = split_train_test(s)
        joined = np.concatenate([train.values, test.values])
        assert np.array_equal(joined, s.values[:157])
        assert test.start_week == (2024, 2)  # 105 weeks after (2022, 1)
