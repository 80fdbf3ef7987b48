from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import rankdata

from pqforecast.ensembles import CombinationMethod, catalogue, combine, ensemble_producers
from pqforecast.errors import ConfigError, DataError
from pqforecast.evaluation import (
    TOP_N,
    Leaderboard,
    LeaderboardRow,
    average_ranks,
    benchmark_ratio,
    compare_best,
    composition_analysis,
    evaluate_corpus,
    mae,
    smape,
)
from pqforecast.models import PUBLIC_MODELS, ForecastBlock

from conftest import WEIGHTED, weights_of


def fc(series_id, producer, values):
    return series_id, producer, np.asarray(values, dtype=float)


def blocks(forecasts) -> list[ForecastBlock]:
    """One block per series from (series, producer, values) triples, in order."""
    by_series: dict[str, tuple[list, list]] = {}
    for series_id, producer, values in forecasts:
        producers, rows = by_series.setdefault(series_id, ([], []))
        producers.append(producer)
        rows.append(values)
    return [ForecastBlock(sid, producers, np.vstack(rows))
            for sid, (producers, rows) in by_series.items()]


EQUAL = weights_of({m: [1.0] * 8 for m in WEIGHTED})


def members_and_ensembles(rng, n_series=6):
    """Member blocks of series s0, s1, ..., their ensemble blocks, and the
    actuals, all random."""
    members = [m.value for m in PUBLIC_MODELS]
    individual, ensembles, actuals = [], [], {}
    for i in range(n_series):
        sid = f"s{i}"
        actuals[sid] = rng.uniform(5, 50, 52)
        values = rng.uniform(5, 50, (8, 52))
        individual.append(ForecastBlock(sid, members, values))
        ensembles.append(ForecastBlock(sid, ensemble_producers(), combine(values, EQUAL)))
    return individual, ensembles, actuals


def board_rows(board):
    return [(r.producer, r.mean_mae, r.mean_smape, r.mean_rank, r.benchmark_ratio) for r in board.rows]


def reference_rank_within_series(smapes):
    """The dict-based ranking that ``average_ranks`` replaced (the oracle)."""
    producers = list(smapes)
    values = np.array([smapes[p] for p in producers], dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return {p: float(r) for p, r in zip(producers, ranks)}


def reference_mae(actual, forecast) -> float:
    return float(np.mean(np.abs(actual - forecast)))


def reference_smape(actual, forecast) -> float:
    denom = np.abs(actual) + np.abs(forecast)
    terms = np.zeros(len(actual))
    nonzero = denom > 0
    terms[nonzero] = np.abs(actual[nonzero] - forecast[nonzero]) / denom[nonzero]
    return float(200.0 / len(actual) * terms.sum())


def reference_leaderboard(forecasts, actuals) -> list[tuple]:
    """(producer, mean MAE, mean sMAPE, mean rank) per producer, from the
    per-(series, producer) scalar loop that ``evaluate_corpus`` replaced."""
    by_series: dict[str, dict[str, np.ndarray]] = {}
    for series_id, producer, values in forecasts:
        by_series.setdefault(series_id, {})[producer] = np.maximum(values, 0.0)
    producers = list(dict.fromkeys(p for _, p, _ in forecasts))
    sums = {p: np.zeros(3) for p in producers}
    for series_id in sorted(by_series):
        actual = actuals[series_id]
        maes = {p: reference_mae(actual, by_series[series_id][p]) for p in producers}
        smapes = {p: reference_smape(actual, by_series[series_id][p]) for p in producers}
        ranks = reference_rank_within_series(smapes)
        for p in producers:
            sums[p] += (maes[p], smapes[p], ranks[p])
    n = len(by_series)
    return sorted((p, *(float(v) for v in sums[p] / n)) for p in producers)


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


class TestRowWiseMetrics:
    """Row-wise ``mae``/``smape`` against the scalar per-row code they replaced."""

    def test_rows_match_scalar_reference(self):
        rng = np.random.default_rng(8080)
        for _ in range(300):
            actual = rng.uniform(0, 100, 52)
            forecasts = rng.uniform(0, 100, (int(rng.integers(1, 30)), 52))
            actual[rng.random(52) < 0.2] = 0.0
            forecasts[rng.random(forecasts.shape) < 0.2] = 0.0  # zero-zero terms
            forecasts[0] = actual  # a perfect row
            maes, smapes = mae(actual, forecasts), smape(actual, forecasts)
            for row, m, s in zip(forecasts, maes, smapes):
                assert m == reference_mae(actual, row)
                assert s == reference_smape(actual, row)

    def test_all_zero_rows_give_zero_without_warnings(self):
        # pytest turns RuntimeWarnings into errors, so an unguarded 0/0 fails here
        assert smape(np.zeros(52), np.zeros((3, 52))).tolist() == [0.0, 0.0, 0.0]

    def test_row_length_mismatch(self):
        with pytest.raises(DataError, match="length mismatch"):
            smape(np.ones(52), np.ones((2, 51)))


class TestRanks:
    def test_simple_order(self):
        assert average_ranks([5.0, 10.0, 20.0]).tolist() == [1.0, 2.0, 3.0]

    def test_tie_averaging(self):
        assert average_ranks([5.0, 5.0, 20.0]).tolist() == [1.5, 1.5, 3.0]

    def test_full_tie(self):
        assert set(average_ranks([1.0, 1.0, 1.0, 1.0]).tolist()) == {2.5}

    def test_matches_scipy_average_ranks(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            values = rng.choice([1.0, 2.0, 5.0, 9.0], size=n)  # force ties
            assert average_ranks(values).tolist() == pytest.approx(
                list(rankdata(values, method="average")))

    def test_rank_sum_invariant(self, rng):
        for _ in range(50):
            n = int(rng.integers(2, 40))
            assert average_ranks(rng.uniform(0, 30, n)).sum() == pytest.approx(n * (n + 1) / 2)

    def test_single_value_ranks_first(self):
        assert average_ranks([3.0]).tolist() == [1.0]

    def test_matches_dict_reference(self):
        rng = np.random.default_rng(77)
        for _ in range(300):
            n = int(rng.integers(2, 60))
            values = np.where(rng.random(n) < 0.5, rng.choice([0.0, 1.5, 2.0, 7.25], size=n),
                              rng.uniform(0, 30, n))  # ties among random values
            want = reference_rank_within_series({f"p{i}": v for i, v in enumerate(values)})
            got = average_ranks(values)
            assert got.tolist() == [want[f"p{i}"] for i in range(n)]


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
        smapes, _, board = evaluate_corpus(blocks(forecasts), {"s1": actual})
        assert smapes["HW"] == pytest.approx([200.0 / 21.0], rel=1e-12)
        assert board.row("HW").mean_rank == 1.0
        assert board.row("SNaive").mean_rank == 2.0
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
        _, _, board = evaluate_corpus(blocks(forecasts), actuals)
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

        smapes, _, board = evaluate_corpus(blocks(forecasts), actuals)
        for producer in s1:
            assert smapes[producer] == pytest.approx([s1[producer], s2[producer]], rel=1e-12)
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
            evaluate_corpus(blocks(forecasts), actuals)

    def test_permutation_invariance(self, rng):
        forecasts = []
        actuals = {}
        for i in range(4):
            sid = f"s{i}"
            actuals[sid] = rng.uniform(5, 50, 52)
            for producer in ("SNaive", "HW", "Prophet"):
                forecasts.append(fc(sid, producer, rng.uniform(5, 50, 52)))
        _, _, base = evaluate_corpus(blocks(forecasts), actuals)
        shuffled = list(forecasts)
        rng.shuffle(shuffled)  # series and producers in another order in every block
        _, _, again = evaluate_corpus(blocks(shuffled), actuals)
        assert [(r.producer, r.mean_smape, r.mean_rank) for r in base.rows] == \
               [(r.producer, r.mean_smape, r.mean_rank) for r in again.rows]

    def test_benchmark_must_be_present(self):
        forecasts = [fc("s1", "HW", np.ones(52)), fc("s1", "Prophet", np.ones(52))]
        with pytest.raises(ConfigError):
            evaluate_corpus(blocks(forecasts), {"s1": np.ones(52)})

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
        _, _, board = evaluate_corpus(blocks(forecasts), actuals)
        for row in board.rows:
            assert 1.0 <= row.mean_rank <= 8.0

    def test_mean_combination_corpus_mae_dominance(self, rng):
        # corpus mean MAE of an equal-weight ensemble never exceeds the mean
        # of its members' corpus mean MAEs
        members = [m.value for m in PUBLIC_MODELS]
        corpus = []
        actuals = {}
        for i in range(10):
            sid = f"s{i}"
            actuals[sid] = rng.uniform(5, 50, 52)
            values = rng.uniform(5, 50, (8, 52))
            corpus.append(ForecastBlock(sid, members, values))
            corpus.append(ForecastBlock(sid, ensemble_producers(), combine(values, EQUAL)))
        _, board, board_individual = evaluate_corpus(corpus, actuals)
        member_mean = np.mean([board_individual.row(p).mean_mae for p in members])
        assert board.row("H01:mean").mean_mae <= member_mean + 1e-9

    def test_duplicate_producer_across_blocks(self):
        corpus = [ForecastBlock("s1", ["SNaive", "HW"], np.ones((2, 52))),
                  ForecastBlock("s1", ["HW"], np.ones((1, 52)))]
        with pytest.raises(DataError, match="s1: duplicate forecasts of HW"):
            evaluate_corpus(corpus, {"s1": np.ones(52)})

    def test_blocks_of_two_files_in_other_series_orders_merge_by_series(self, rng):
        individual, ensembles, actuals = members_and_ensembles(rng)
        adjacent = [block for pair in zip(individual, ensembles) for block in pair]
        files = individual + [ensembles[i] for i in (3, 0, 5, 1, 4, 2)]
        want, got = evaluate_corpus(adjacent, actuals), evaluate_corpus(files, actuals)
        assert [board_rows(board) for board in got[1:]] == [board_rows(board) for board in want[1:]]
        assert list(got[0]) == list(want[0])
        assert all(np.array_equal(got[0][p], want[0][p]) for p in want[0])

    @pytest.mark.parametrize("absent", [0, 5])
    def test_series_with_fewer_blocks_is_missing_forecasts(self, rng, absent):
        individual, ensembles, actuals = members_and_ensembles(rng)
        del ensembles[absent]
        with pytest.raises(DataError, match=f"s{absent}: missing forecasts of B01:mean, B01:median, "):
            evaluate_corpus(individual + ensembles, actuals)

    def test_series_only_a_later_file_lists_is_missing_forecasts(self, rng):
        individual, ensembles, actuals = members_and_ensembles(rng)
        with pytest.raises(DataError, match="s5: missing forecasts of SNaive, HW, SARIMA"):
            evaluate_corpus(individual[:5] + ensembles, actuals)

    def test_producer_missing_from_the_first_series_is_an_error(self):
        corpus = [ForecastBlock("s1", ["SNaive"], np.ones((1, 52))),
                  ForecastBlock("s2", ["SNaive", "HW"], np.ones((2, 52)))]
        with pytest.raises(DataError, match="s1: missing forecasts of HW"):
            evaluate_corpus(corpus, {"s1": np.ones(52), "s2": np.ones(52)})

    def test_each_block_is_scored_as_it_comes(self):
        # a block is scored before the next one is drawn, not at the end
        drawn = []

        def corpus():
            for sid in ("s3", "s1", "s2"):
                drawn.append(sid)
                yield ForecastBlock(sid, ["SNaive", "HW"], np.full((2, 52), 2.0))

        class Actuals(dict):
            def __getitem__(self, sid):
                assert sid == drawn[-1], (sid, drawn)
                return super().__getitem__(sid)

        actuals = Actuals(s1=np.ones(52), s2=np.ones(52), s3=np.ones(52))
        smapes, _, board = evaluate_corpus(corpus(), actuals)
        assert board.n_series == 3 and smapes["HW"] == pytest.approx([200 / 3] * 3, rel=1e-12)

    def test_individual_board_equals_a_call_on_individual_blocks(self, rng):
        individual, ensembles, actuals = members_and_ensembles(rng)
        union = [block for pair in zip(individual, ensembles) for block in pair]
        smapes, board, board_individual = evaluate_corpus(union, actuals)
        _, no_ensembles, alone = evaluate_corpus(individual, actuals)
        assert board_rows(board_individual) == board_rows(alone)
        assert no_ensembles.rows == [] and no_ensembles.n_series == 6
        assert sorted(r.producer for r in board.rows) == sorted(ensemble_producers())
        assert len(smapes) == 8 + 988
        with pytest.raises(DataError, match="no individual model forecasts"):
            evaluate_corpus(ensembles, actuals)

    def test_ensembles_are_ranked_among_every_producer(self, rng):
        individual, ensembles, actuals = members_and_ensembles(rng, n_series=3)
        union = [block for pair in zip(individual, ensembles) for block in pair]
        _, board, _ = evaluate_corpus(union, actuals)
        forecasts = [(b.series_id, p, v) for b in union for p, v in zip(b.producers, b.values)]
        want = {row[0]: row for row in reference_leaderboard(forecasts, actuals)}
        want = {p: row for p, row in want.items() if ":" in p}  # ranks among all 996 producers
        assert [r.producer for r in board.rows] == sorted(want, key=lambda p: (want[p][2], p))
        assert {r.producer: (r.producer, r.mean_mae, r.mean_smape, r.mean_rank) for r in board.rows} == want

    def test_matches_scalar_reference(self):
        # leaderboard means equal the per-(series, producer) scalar loop's
        # bit for bit, with zero terms, ties and producers in varying order
        rng = np.random.default_rng(4242)
        for _ in range(20):
            producers = ["SNaive"] + [f"p{i}" for i in range(int(rng.integers(1, 12)))]
            forecasts, actuals = [], {}
            for i in range(int(rng.integers(1, 8))):
                sid = f"s{i}"
                actuals[sid] = np.where(rng.random(52) < 0.2, 0.0, rng.uniform(0, 50, 52))
                for p in rng.permutation(producers):
                    values = np.where(rng.random(52) < 0.2, 0.0, rng.uniform(-5, 50, 52))
                    if p != "SNaive" and rng.random() < 0.2:
                        values = actuals[sid].copy()  # sMAPE 0, tied with others
                    forecasts.append(fc(sid, str(p), values))
            _, _, board = evaluate_corpus(blocks(forecasts), actuals)
            got = sorted((r.producer, r.mean_mae, r.mean_smape, r.mean_rank) for r in board.rows)
            assert got == reference_leaderboard(forecasts, actuals)


def _ensemble_leaderboard(rng, n_best_size=4):
    """Synthetic union leaderboard whose best ensembles have a known size."""
    rows = []
    for producer, (models, method) in catalogue().producers.items():
        # best scores for ensembles of the target size using the median
        base = 10.0 if (len(models) == n_best_size and method is CombinationMethod.MEDIAN) else 20.0
        rows.append(LeaderboardRow(
            producer=producer,
            mean_mae=1.0, mean_smape=base + rng.uniform(0, 5),
            mean_rank=100.0, benchmark_ratio=1.0,
        ))
    rows.append(LeaderboardRow("SNaive", 1.0, 30.0, 500.0, 1.0))
    rows.sort(key=lambda r: r.mean_smape)
    return Leaderboard(rows=rows, n_series=10)


class TestCompositionAnalysis:
    def test_one_ensemble(self):
        board = Leaderboard([LeaderboardRow("SNaive", 1.0, 30.0, 2.0, 1.0),
                             LeaderboardRow("C05:smape", 1.0, 20.0, 1.0, 1.0)], n_series=1)
        report = composition_analysis(board)
        assert report.top_n == 1 and report.clipped
        assert report.method_histogram == {"smape": 1}
        assert report.size_histogram == {3: 1}
        # shares of exactly the winner's members
        assert report.model_share == pytest.approx(
            {m.value: 1 / 3 for m in catalogue().members["C05"]}, rel=1e-12)

    def test_dominant_size_is_mode(self, rng):
        board = _ensemble_leaderboard(rng, n_best_size=4)
        report = composition_analysis(board)
        assert max(report.size_histogram, key=report.size_histogram.get) == 4
        assert max(report.method_histogram, key=report.method_histogram.get) == "median"

    def test_method_histogram_partitions_top_n(self, rng):
        board = _ensemble_leaderboard(rng)
        report = composition_analysis(board)
        assert report.top_n == TOP_N == 100 and not report.clipped
        assert sum(report.method_histogram.values()) == 100
        assert sum(report.size_histogram.values()) == 100

    def test_clipping(self, rng):
        board = _ensemble_leaderboard(rng)
        board.rows = board.rows[:61]  # SNaive is last, so 61 ensembles
        report = composition_analysis(board)
        assert report.clipped
        assert report.top_n == 61

    def test_size_aggregates_cover_all_sizes(self, rng):
        board = _ensemble_leaderboard(rng)
        report = composition_analysis(board)
        assert [a.size for a in report.size_aggregates] == list(range(2, 9))
        for a in report.size_aggregates:
            assert a.min <= a.q25 <= a.median <= a.q75 <= a.max


class TestCompareBest:
    def _compare(self, ind_smapes, ens_smapes, n_series=None):
        series_ids = [f"s{i}" for i in range(len(ind_smapes) if n_series is None else n_series)]
        return compare_best(series_ids, "STL-ARIMA", np.array(ind_smapes, dtype=float),
                            "D28:median", np.array(ens_smapes, dtype=float))

    def test_ensemble_always_better(self):
        report = self._compare([10.0, 12.0, 14.0], [9.0, 11.0, 13.0])
        assert report.win_fraction == 1.0
        assert np.all(report.relative_improvement > 0)
        assert report.series_ids == ["s0", "s1", "s2"]
        assert (report.individual_producer, report.ensemble_producer) == ("STL-ARIMA", "D28:median")

    def test_identical_records(self):
        report = self._compare([10.0, 12.0], [10.0, 12.0])
        assert report.win_fraction == 0.0
        assert report.relative_improvement == pytest.approx([0.0, 0.0])

    def test_six_of_ten_wins(self):
        report = self._compare([10.0] * 10, [9.0] * 6 + [11.0] * 4)
        assert report.win_fraction == pytest.approx(0.6)
        assert report.median_improvement_when_winning == pytest.approx(0.1)

    def test_ecdf_is_monotone(self, rng):
        x, p = self._compare(rng.uniform(5, 30, 20), rng.uniform(5, 30, 20)).ecdf()
        assert np.all(np.diff(x) >= 0)
        assert p[-1] == 1.0

    def test_mismatched_series_sets(self):
        with pytest.raises(DataError):
            self._compare([10.0, 12.0], [10.0])
        with pytest.raises(DataError):
            self._compare([10.0, 12.0], [10.0, 12.0], n_series=3)
