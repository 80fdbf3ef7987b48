"""Accuracy metrics, corpus-level evaluation and ensemble analyses.

Evaluation runs one series' (producers x horizon) matrix at a time: MAE
and sMAPE of every row over the full horizon, sMAPE ranks of the producers
within the series, then running sums that become corpus means of accuracy
and rank per producer. Benchmark ratios relate a producer's mean sMAPE to
the seasonal-naive baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ensembles import parse_producer
from .errors import ConfigError, DataError
from .models import ForecastBlock, ModelId

BENCHMARK_PRODUCER = ModelId.SNAIVE.value
TOP_N = 100  # best ensembles whose composition the final evaluate reports


def mae(actual: np.ndarray, forecast: np.ndarray):
    """Mean absolute error; a 2-D ``forecast`` gives one per row."""
    actual = np.asarray(actual, dtype=float)
    forecast = np.asarray(forecast, dtype=float)
    if actual.shape[-1:] != forecast.shape[-1:]:
        raise DataError(f"mae: length mismatch {actual.shape} vs {forecast.shape}")
    return np.mean(np.abs(actual - forecast), axis=-1)


def smape(actual: np.ndarray, forecast: np.ndarray):
    """Symmetric MAPE in [0, 200]; a term with actual = forecast = 0 counts as 0.
    A 2-D ``forecast`` gives one per row."""
    actual = np.asarray(actual, dtype=float)
    forecast = np.asarray(forecast, dtype=float)
    if actual.shape[-1:] != forecast.shape[-1:]:
        raise DataError(f"smape: length mismatch {actual.shape} vs {forecast.shape}")
    denom = np.abs(actual) + np.abs(forecast)
    terms = np.divide(np.abs(actual - forecast), denom, out=np.zeros_like(denom), where=denom > 0)
    return 200.0 / actual.shape[-1] * terms.sum(axis=-1)


def average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks of ``values``, lowest first; ties share their average rank."""
    values = np.asarray(values, dtype=float)
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    # tie groups: positions i..j (0-based) of the sorted values share 0.5 * (i + j) + 1
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], len(values)] - 1
    ranks = np.empty(len(values))
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def benchmark_ratio(mean_smape: float, benchmark_mean_smape: float) -> float:
    """Mean sMAPE relative to the benchmark producer; below 1 beats it."""
    if benchmark_mean_smape <= 0:
        raise DataError("benchmark_ratio: benchmark mean sMAPE must be positive")
    return mean_smape / benchmark_mean_smape


@dataclass(frozen=True)
class LeaderboardRow:
    producer: str
    mean_mae: float
    mean_smape: float
    mean_rank: float
    benchmark_ratio: float


@dataclass
class Leaderboard:
    """Corpus aggregates per producer, best mean sMAPE first."""

    rows: list[LeaderboardRow]
    n_series: int

    def row(self, producer: str) -> LeaderboardRow:
        for row in self.rows:
            if row.producer == producer:
                return row
        raise ConfigError(f"producer {producer!r} not on the leaderboard")


def evaluate_corpus(blocks: Iterable[ForecastBlock],
                    actuals: Mapping[str, np.ndarray]) -> tuple[dict[str, np.ndarray], Leaderboard, Leaderboard]:
    """Per-series sMAPE of every producer (series in sorted order), the
    leaderboard of the ensembles, ranked among every producer, and the
    leaderboard of the individual models alone, ranked among themselves as
    a call on their blocks alone would rank them. With no ensemble
    producers, the ensemble leaderboard has no rows.

    ``blocks`` is consumed one block at a time. A series may come in several
    blocks (one per forecast file), in any order: its k-th block must have
    the producers of the first k-th block seen, and a series with fewer
    blocks than another lacks the others' producers. Only each block's MAE
    and sMAPE per producer are kept; they are summed in sorted-series order
    once the blocks end. Ranks are computed within each board's cohort, so
    the two boards' rank scales differ.
    """
    parts: list[tuple[str, list[str]]] = []  # the first k-th block's series and producers
    part_of: dict[str, int] = {}  # producer -> its k
    scores: dict[str, list] = {}  # series -> (MAE, sMAPE) per producer of each of its blocks
    for block in blocks:
        series_id = block.series_id
        done = scores.setdefault(series_id, [])
        k = len(done)
        duplicate = [p for p in block.producers if part_of.get(p, k) < k]  # in its blocks 0..k-1
        if duplicate:
            raise DataError(f"{series_id}: duplicate forecasts of {', '.join(duplicate[:5])}")
        if k == len(parts):
            parts.append((series_id, block.producers))
            part_of.update(dict.fromkeys(block.producers, k))
        first, producers = parts[k]
        values = block.rows(producers)
        if len(values) < len(block.producers):
            extra = [p for p in block.producers if part_of.get(p) != k]
            raise DataError(f"{first}: missing forecasts of {', '.join(extra[:5])}")
        if series_id not in actuals:
            raise DataError(f"evaluate_corpus: no actuals for series {series_id}")
        actual = np.asarray(actuals[series_id], dtype=float)
        done.append((mae(actual, values), smape(actual, values)))
    if not scores:
        raise DataError("evaluate_corpus: no forecasts")
    for series_id, done in scores.items():
        if len(done) < len(parts):
            missing = [p for _, producers in parts[len(done):] for p in producers]
            raise DataError(f"{series_id}: missing forecasts of {', '.join(missing[:5])}")
        scores[series_id] = [np.concatenate(column) for column in zip(*done)]

    cohort = [p for _, producers in parts for p in producers]
    series_ids = sorted(scores)

    def leaderboard(rows: np.ndarray) -> Leaderboard:
        producers = [cohort[i] for i in rows]
        if BENCHMARK_PRODUCER not in producers:
            raise ConfigError(f"benchmark producer {BENCHMARK_PRODUCER!r} not in cohort")
        sums = np.zeros((len(rows), 3))  # mae, smape, rank per producer
        for series_id in series_ids:
            maes, smapes = (column[rows] for column in scores[series_id])
            sums += np.column_stack((maes, smapes, average_ranks(smapes)))
        means = sums / len(series_ids)
        benchmark_smape = float(means[producers.index(BENCHMARK_PRODUCER), 1])
        board = [LeaderboardRow(p, float(m), float(s), float(r), benchmark_ratio(float(s), benchmark_smape))
                 for p, (m, s, r) in zip(producers, means)]
        board.sort(key=lambda r: (r.mean_smape, r.producer))
        return Leaderboard(rows=board, n_series=len(series_ids))

    ensembles = {p for p in cohort if parse_producer(p) is not None}
    if len(ensembles) == len(cohort):
        raise DataError("evaluate_corpus: no individual model forecasts")
    board_individual = leaderboard(np.flatnonzero([p not in ensembles for p in cohort]))
    union = leaderboard(np.arange(len(cohort))).rows if ensembles else []
    board_ensembles = Leaderboard([r for r in union if r.producer in ensembles], len(series_ids))
    smapes = np.column_stack([scores[series_id][1] for series_id in series_ids])
    return dict(zip(cohort, smapes)), board_ensembles, board_individual


@dataclass
class SizeAggregate:
    """Distribution of mean sMAPE across ensembles of one size."""

    size: int
    count: int
    mean: float
    q25: float
    median: float
    q75: float
    min: float
    max: float


@dataclass
class CompositionReport:
    """What the best ensembles are made of."""

    top_n: int
    model_share: dict[str, float]  # share of member slots per individual model
    size_histogram: dict[int, int]
    method_histogram: dict[str, int]
    size_aggregates: list[SizeAggregate]
    clipped: bool = False


def composition_analysis(leaderboard: Leaderboard) -> CompositionReport:
    """Model shares, size and method histograms over the ``TOP_N`` best
    ensembles, plus per-size sMAPE aggregates over all ensembles; the
    board's individual producers are skipped."""
    ensembles = [(row, *parsed) for row in leaderboard.rows if (parsed := parse_producer(row.producer))]
    if not ensembles:
        raise DataError("composition_analysis: leaderboard contains no ensembles")
    clipped = TOP_N > len(ensembles)
    top = ensembles[:TOP_N]

    slots = 0
    model_counts: dict[str, int] = {}
    size_hist: dict[int, int] = {}
    method_hist: dict[str, int] = {}
    for _, members, method in top:
        size_hist[len(members)] = size_hist.get(len(members), 0) + 1
        method_hist[method.value] = method_hist.get(method.value, 0) + 1
        for member in members:
            model_counts[member.value] = model_counts.get(member.value, 0) + 1
            slots += 1

    aggregates = []
    for size in sorted({len(members) for _, members, _ in ensembles}):
        values = np.array([row.mean_smape for row, members, _ in ensembles if len(members) == size])
        aggregates.append(SizeAggregate(
            size=size, count=len(values), mean=float(values.mean()),
            q25=float(np.percentile(values, 25)), median=float(np.percentile(values, 50)),
            q75=float(np.percentile(values, 75)), min=float(values.min()), max=float(values.max()),
        ))

    return CompositionReport(
        top_n=len(top),
        model_share={m: c / slots for m, c in sorted(model_counts.items())},
        size_histogram=dict(sorted(size_hist.items())),
        method_histogram=dict(sorted(method_hist.items())),
        size_aggregates=aggregates,
        clipped=clipped,
    )


@dataclass
class ComparisonReport:
    """Best ensemble vs best individual model, series by series."""

    individual_producer: str
    ensemble_producer: str
    series_ids: list[str]
    individual_smape: np.ndarray
    ensemble_smape: np.ndarray
    relative_improvement: np.ndarray  # positive when the ensemble is better

    @property
    def win_fraction(self) -> float:
        wins = self.ensemble_smape < self.individual_smape
        return float(np.mean(wins)) if len(wins) else 0.0

    @property
    def median_improvement_when_winning(self) -> float:
        wins = self.ensemble_smape < self.individual_smape
        return float(np.median(self.relative_improvement[wins])) if np.any(wins) else 0.0

    def ecdf(self) -> tuple[np.ndarray, np.ndarray]:
        x = np.sort(self.relative_improvement)
        return x, np.arange(1, len(x) + 1) / len(x)


def compare_best(
    series_ids: Sequence[str],
    individual_producer: str,
    individual_smape: np.ndarray,
    ensemble_producer: str,
    ensemble_smape: np.ndarray,
) -> ComparisonReport:
    """Pair the per-series sMAPE of one individual producer and one ensemble
    producer and summarize the ensemble's added value."""
    ind_values = np.asarray(individual_smape, dtype=float)
    ens_values = np.asarray(ensemble_smape, dtype=float)
    if not len(ind_values) == len(ens_values) == len(series_ids):
        raise DataError(f"compare_best: {len(ind_values)} and {len(ens_values)} sMAPE values "
                        f"for {len(series_ids)} series")
    with np.errstate(divide="ignore", invalid="ignore"):
        improvement = np.where(ind_values > 0, (ind_values - ens_values) / ind_values, 0.0)
    return ComparisonReport(
        individual_producer=individual_producer,
        ensemble_producer=ensemble_producer,
        series_ids=list(series_ids),
        individual_smape=ind_values,
        ensemble_smape=ens_values,
        relative_improvement=improvement,
    )
