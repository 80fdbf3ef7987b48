from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import rankdata

from pqforecast.ensembles import CombinationMethod, enumerate_ensembles
from pqforecast.errors import ConfigError, DataError
from pqforecast.evaluation import (
    EvalRecord,
    Leaderboard,
    LeaderboardRow,
    benchmark_ratio,
    compare_best,
    composition_analysis,
    evaluate_corpus,
    mae,
    rank_within_series,
    smape,
)
from pqforecast.models import Forecast


def fc(series_id, producer, values) -> Forecast:
    return Forecast(series_id=series_id, producer=producer, values=np.asarray(values, dtype=float))


class TestMae:
    def test_identical_is_zero(self):
        v = np.arange(52.0)
        assert mae(v, v) == 0.0

    def test_unit_offset(self):
        assert mae(np.zeros(52), np.ones(52)) == 1.0

    def test_matches_loop_oracle(self, rng):
        for _ in range(200):
            a = rng.uniform(0, 100, 52)
            f = rng.uniform(0, 100, 52)
            oracle = sum(abs(x - y) for x, y in zip(a, f)) / 52
            assert mae(a, f) == pytest.approx(oracle, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(DataError):
            mae(np.ones(52), np.ones(51))


class TestSmape:
    def test_perfect_forecast(self):
        v = np.linspace(1, 10, 52)
        assert smape(v, v) == 0.0

    def test_all_zero_actual_positive_forecast(self):
        assert smape(np.zeros(52), np.full(52, 3.0)) == pytest.approx(200.0)

    def test_single_pair_hand_value(self):
        # 200 * |100-50| / (100+50) over one step
        assert smape(np.array([100.0]), np.array([50.0])) == pytest.approx(200.0 / 3.0, rel=1e-12)

    def test_zero_zero_term_counts_as_zero(self):
        actual = np.array([0.0, 10.0])
        forecast = np.array([0.0, 10.0])
        assert smape(actual, forecast) == 0.0

    def test_matches_loop_oracle(self, rng):
        for _ in range(200):
            a = rng.uniform(0, 100, 52)
            f = rng.uniform(0, 100, 52)
            terms = [abs(x - y) / (abs(x) + abs(y)) if (abs(x) + abs(y)) > 0 else 0.0
                     for x, y in zip(a, f)]
            oracle = 200.0 / 52 * sum(terms)
            assert smape(a, f) == pytest.approx(oracle, rel=1e-12)

    def test_bounded(self, rng):
        for _ in range(200):
            a = rng.uniform(0, 100, 52)
            f = rng.uniform(0, 100, 52)
            assert 0.0 <= smape(a, f) <= 200.0


class TestRanks:
    def test_simple_order(self):
        ranks = rank_within_series({"a": 5.0, "b": 10.0, "c": 20.0})
        assert ranks == {"a": 1.0, "b": 2.0, "c": 3.0}

    def test_tie_averaging(self):
        ranks = rank_within_series({"a": 5.0, "b": 5.0, "c": 20.0})
        assert ranks == {"a": 1.5, "b": 1.5, "c": 3.0}

    def test_full_tie(self):
        ranks = rank_within_series({"a": 1.0, "b": 1.0, "c": 1.0, "d": 1.0})
        assert set(ranks.values()) == {2.5}

    def test_matches_scipy_average_ranks(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            values = rng.choice([1.0, 2.0, 5.0, 9.0], size=n)  # force ties
            smapes = {f"p{i}": float(v) for i, v in enumerate(values)}
            got = rank_within_series(smapes)
            want = rankdata(values, method="average")
            assert [got[f"p{i}"] for i in range(n)] == pytest.approx(list(want))

    def test_rank_sum_invariant(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            smapes = {f"p{i}": float(v) for i, v in enumerate(rng.uniform(0, 30, n))}
            assert sum(rank_within_series(smapes).values()) == pytest.approx(n * (n + 1) / 2)

    def test_needs_two_producers(self):
        with pytest.raises(DataError):
            rank_within_series({"only": 3.0})


class TestBenchmarkRatio:
    def test_published_values(self):
        assert benchmark_ratio(18.22, 20.88) == pytest.approx(0.873, abs=5e-4)
        assert benchmark_ratio(17.68, 20.88) == pytest.approx(0.847, abs=5e-4)

    def test_equal_inputs(self):
        assert benchmark_ratio(7.7, 7.7) == 1.0

    def test_zero_benchmark_rejected(self):
        with pytest.raises(DataError):
            benchmark_ratio(1.0, 0.0)


class TestEvaluateCorpus:
    def test_single_series_two_producers(self):
        actual = np.full(52, 10.0)
        forecasts = [
            fc("s1", "SNaive", np.full(52, 12.0)),
            fc("s1", "HW", np.full(52, 11.0)),
        ]
        records, board = evaluate_corpus(forecasts, {"s1": actual})
        by_producer = {r.producer: r for r in records}
        assert by_producer["HW"].rank == 1.0
        assert by_producer["SNaive"].rank == 2.0
        assert board.rows[0].producer == "HW"
        assert board.row("SNaive").benchmark_ratio == 1.0

    def test_snaive_br_exactly_one(self, rng):
        forecasts = []
        actuals = {}
        for i in range(5):
            sid = f"s{i}"
            actuals[sid] = rng.uniform(10, 50, 52)
            for producer in ("SNaive", "HW", "Prophet"):
                forecasts.append(fc(sid, producer, rng.uniform(10, 50, 52)))
        _, board = evaluate_corpus(forecasts, actuals)
        assert board.row("SNaive").benchmark_ratio == 1.0

    def test_hand_computed_two_series_corpus(self):
        # spreadsheet-style oracle: constant forecasts against constant actuals
        actuals = {"s1": np.full(52, 10.0), "s2": np.full(52, 20.0)}
        level = {  # (producer, series) -> forecast level
            ("SNaive", "s1"): 12.0, ("SNaive", "s2"): 24.0,
            ("HW", "s1"): 11.0, ("HW", "s2"): 26.0,
            ("Prophet", "s1"): 10.0, ("Prophet", "s2"): 21.0,
            ("SARIMA", "s1"): 14.0, ("SARIMA", "s2"): 20.0,
        }
        forecasts = [fc(s, p, np.full(52, v)) for (p, s), v in level.items()]

        def sm(y, yhat):
            return 200.0 * abs(y - yhat) / (y + yhat)

        # per-series sMAPE table, computed by hand:
        # s1: Prophet 0, HW 9.52, SNaive 18.18, SARIMA 33.33 -> ranks 1,2,3,4
        # s2: SARIMA 0, Prophet 4.88, SNaive 18.18, HW 26.09 -> ranks 1,2,3,4
        s1 = {p: sm(10, level[(p, "s1")]) for p in ("SNaive", "HW", "Prophet", "SARIMA")}
        s2 = {p: sm(20, level[(p, "s2")]) for p in ("SNaive", "HW", "Prophet", "SARIMA")}
        expected_rank = {"Prophet": 1.5, "HW": 3.0, "SNaive": 3.0, "SARIMA": 2.5}

        records, board = evaluate_corpus(forecasts, actuals)
        for producer in s1:
            row = board.row(producer)
            assert row.mean_smape == pytest.approx((s1[producer] + s2[producer]) / 2, rel=1e-12)
            assert row.mean_rank == pytest.approx(expected_rank[producer])
            assert row.benchmark_ratio == pytest.approx(
                row.mean_smape / board.row("SNaive").mean_smape, rel=1e-12)
        mae_s1 = {p: abs(level[(p, "s1")] - 10.0) for p in s1}
        mae_s2 = {p: abs(level[(p, "s2")] - 20.0) for p in s2}
        for producer in s1:
            assert board.row(producer).mean_mae == pytest.approx(
                (mae_s1[producer] + mae_s2[producer]) / 2, rel=1e-12)

    def test_missing_forecast_is_an_error(self):
        forecasts = [
            fc("s1", "SNaive", np.ones(52)), fc("s1", "HW", np.ones(52)),
            fc("s2", "SNaive", np.ones(52)),
        ]
        actuals = {"s1": np.ones(52), "s2": np.ones(52)}
        with pytest.raises(DataError, match="s2.*HW"):
            evaluate_corpus(forecasts, actuals)

    def test_permutation_invariance(self, rng):
        forecasts = []
        actuals = {}
        for i in range(4):
            sid = f"s{i}"
            actuals[sid] = rng.uniform(5, 50, 52)
            for producer in ("SNaive", "HW", "Prophet"):
                forecasts.append(fc(sid, producer, rng.uniform(5, 50, 52)))
        _, base = evaluate_corpus(forecasts, actuals)
        shuffled = list(forecasts)
        rng.shuffle(shuffled)
        _, again = evaluate_corpus(shuffled, actuals)
        assert [(r.producer, r.mean_smape, r.mean_rank) for r in base.rows] == \
               [(r.producer, r.mean_smape, r.mean_rank) for r in again.rows]

    def test_benchmark_must_be_present(self):
        forecasts = [fc("s1", "HW", np.ones(52)), fc("s1", "Prophet", np.ones(52))]
        with pytest.raises(ConfigError):
            evaluate_corpus(forecasts, {"s1": np.ones(52)})

    def test_eight_model_cohort_ranks_bounded(self, rng):
        producers = ["SNaive", "HW", "SARIMA", "Prophet",
                     "STL-Drift", "STL-ES", "STL-Holt", "STL-ARIMA"]
        forecasts = []
        actuals = {}
        for i in range(6):
            sid = f"s{i}"
            actuals[sid] = rng.uniform(5, 50, 52)
            for p in producers:
                forecasts.append(fc(sid, p, rng.uniform(5, 50, 52)))
        _, board = evaluate_corpus(forecasts, actuals)
        for row in board.rows:
            assert 1.0 <= row.mean_rank <= 8.0

    def test_mean_combination_corpus_mae_dominance(self, rng):
        # corpus mean MAE of an equal-weight ensemble never exceeds the mean
        # of its members' corpus mean MAEs
        from pqforecast.ensembles import CombinationMethod, combine

        members = ["SNaive", "HW", "Prophet"]
        forecasts = []
        actuals = {}
        for i in range(10):
            sid = f"s{i}"
            actuals[sid] = rng.uniform(5, 50, 52)
            per_series = [fc(sid, p, rng.uniform(5, 50, 52)) for p in members]
            forecasts.extend(per_series)
            forecasts.append(combine(per_series, CombinationMethod.MEAN, producer="B01:mean"))
        _, board = evaluate_corpus(forecasts, actuals)
        member_mean = np.mean([board.row(p).mean_mae for p in members])
        assert board.row("B01:mean").mean_mae <= member_mean + 1e-9


def _ensemble_leaderboard(rng, n_best_size=4):
    """Synthetic union leaderboard whose best ensembles have a known size."""
    rows = []
    for e in enumerate_ensembles():
        for method in CombinationMethod:
            # best scores for ensembles of the target size using the median
            base = 10.0 if (len(e.members) == n_best_size and
                            method is CombinationMethod.MEDIAN) else 20.0
            rows.append(LeaderboardRow(
                producer=e.producer(method),
                mean_mae=1.0, mean_smape=base + rng.uniform(0, 5),
                mean_rank=100.0, benchmark_ratio=1.0,
            ))
    rows.append(LeaderboardRow("SNaive", 1.0, 30.0, 500.0, 1.0))
    rows.sort(key=lambda r: r.mean_smape)
    return Leaderboard(rows=rows, n_series=10)


class TestCompositionAnalysis:
    def test_top_one(self, rng):
        board = _ensemble_leaderboard(rng)
        report = composition_analysis(board, 1)
        assert report.top_n == 1
        assert sum(report.method_histogram.values()) == 1
        top_producer = next(r.producer for r in board.rows if ":" in r.producer)
        size = len(board.rows[0].producer)  # not meaningful; use histogram instead
        assert sum(report.size_histogram.values()) == 1
        assert report.model_share  # shares of exactly the winner's members
        assert pytest.approx(sum(report.model_share.values())) == 1.0

    def test_dominant_size_is_mode(self, rng):
        board = _ensemble_leaderboard(rng, n_best_size=4)
        report = composition_analysis(board, 50)
        assert max(report.size_histogram, key=report.size_histogram.get) == 4
        assert max(report.method_histogram, key=report.method_histogram.get) == "median"

    def test_method_histogram_partitions_top_n(self, rng):
        board = _ensemble_leaderboard(rng)
        report = composition_analysis(board, 100)
        assert sum(report.method_histogram.values()) == 100
        assert sum(report.size_histogram.values()) == 100

    def test_clipping(self, rng):
        board = _ensemble_leaderboard(rng)
        report = composition_analysis(board, 10_000)
        assert report.clipped
        assert report.top_n == 988

    def test_size_aggregates_cover_all_sizes(self, rng):
        board = _ensemble_leaderboard(rng)
        report = composition_analysis(board, 100)
        assert [a.size for a in report.size_aggregates] == list(range(2, 9))
        for a in report.size_aggregates:
            assert a.min <= a.q25 <= a.median <= a.q75 <= a.max


class TestCompareBest:
    def _records(self, producer, smapes):
        return [EvalRecord(f"s{i}", producer, mae=1.0, smape=s, rank=1.0)
                for i, s in enumerate(smapes)]

    def test_ensemble_always_better(self):
        ind = self._records("STL-ARIMA", [10.0, 12.0, 14.0])
        ens = self._records("D28:median", [9.0, 11.0, 13.0])
        report = compare_best(ind, ens)
        assert report.win_fraction == 1.0
        assert np.all(report.relative_improvement > 0)

    def test_identical_records(self):
        ind = self._records("STL-ARIMA", [10.0, 12.0])
        ens = self._records("D28:median", [10.0, 12.0])
        report = compare_best(ind, ens)
        assert report.win_fraction == 0.0
        assert report.relative_improvement == pytest.approx([0.0, 0.0])

    def test_six_of_ten_wins(self):
        ind_smapes = [10.0] * 10
        ens_smapes = [9.0] * 6 + [11.0] * 4
        report = compare_best(self._records("A", ind_smapes), self._records("B:mean", ens_smapes))
        assert report.win_fraction == pytest.approx(0.6)
        assert report.median_improvement_when_winning == pytest.approx(0.1)

    def test_ecdf_is_monotone(self, rng):
        ind = self._records("A", rng.uniform(5, 30, 20))
        ens = self._records("B:mean", rng.uniform(5, 30, 20))
        x, p = compare_best(ind, ens).ecdf()
        assert np.all(np.diff(x) >= 0)
        assert p[-1] == 1.0

    def test_mismatched_series_sets(self):
        ind = self._records("A", [10.0, 12.0])
        ens = self._records("B:mean", [10.0])
        with pytest.raises(DataError):
            compare_best(ind, ens)

    def test_multiple_producers_rejected(self):
        mixed = self._records("A", [10.0]) + self._records("B", [10.0])
        with pytest.raises(DataError):
            compare_best(mixed, self._records("C:mean", [1.0, 2.0]))
