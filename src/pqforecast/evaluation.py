"""Accuracy metrics, corpus-level evaluation and ensemble analyses.

Evaluation of a corpus runs in three steps: per-(series, producer) MAE and
sMAPE over the full horizon, sMAPE ranks of the producers within each
series, then corpus means of accuracy and rank per producer. Benchmark
ratios relate a producer's mean sMAPE to the seasonal-naive baseline.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .ensembles import CombinationMethod, EnsembleId, parse_producer
from .errors import ConfigError, DataError
from .models import Forecast, ModelId

BENCHMARK_PRODUCER = ModelId.SNAIVE.value


def mae(actual: np.ndarray, forecast: np.ndarray) -> float:
    """Mean absolute error."""
    actual = np.asarray(actual, dtype=float)
    forecast = np.asarray(forecast, dtype=float)
    if actual.shape != forecast.shape:
        raise DataError(f"mae: length mismatch {actual.shape} vs {forecast.shape}")
    return float(np.mean(np.abs(actual - forecast)))


def smape(actual: np.ndarray, forecast: np.ndarray) -> float:
    """Symmetric MAPE in [0, 200]; a term with actual = forecast = 0 counts as 0."""
    actual = np.asarray(actual, dtype=float)
    forecast = np.asarray(forecast, dtype=float)
    if actual.shape != forecast.shape:
        raise DataError(f"smape: length mismatch {actual.shape} vs {forecast.shape}")
    denom = np.abs(actual) + np.abs(forecast)
    terms = np.zeros(len(actual))
    nonzero = denom > 0
    terms[nonzero] = np.abs(actual[nonzero] - forecast[nonzero]) / denom[nonzero]
    return float(200.0 / len(actual) * terms.sum())


def rank_within_series(smapes: Mapping[str, float]) -> dict[str, float]:
    """Rank producers by sMAPE within one series; ties get averaged ranks."""
    if len(smapes) < 2:
        raise DataError("rank_within_series: need at least 2 producers")
    producers = list(smapes)
    values = np.array([smapes[p] for p in producers], dtype=float)
    order = np.argsort(values, kind="stable")
    ranks = np.empty(len(values), dtype=float)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        # positions i..j (0-based) share the average of ranks i+1..j+1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return {p: float(r) for p, r in zip(producers, ranks)}


def benchmark_ratio(mean_smape: float, benchmark_mean_smape: float) -> float:
    """Mean sMAPE relative to the benchmark producer; below 1 beats it."""
    if benchmark_mean_smape <= 0:
        raise DataError("benchmark_ratio: benchmark mean sMAPE must be positive")
    return mean_smape / benchmark_mean_smape


@dataclass(frozen=True)
class EvalRecord:
    """Accuracy of one producer on one series."""

    series_id: str
    producer: str
    mae: float
    smape: float
    rank: float


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

    def producers(self) -> list[str]:
        return [r.producer for r in self.rows]


def evaluate_corpus(
    forecasts: Iterable[Forecast],
    actuals: Mapping[str, np.ndarray],
    benchmark: str = BENCHMARK_PRODUCER,
) -> tuple[list[EvalRecord], Leaderboard]:
    """Per-series records and the corpus leaderboard for one producer cohort.

    Every producer must cover every series; ranks are computed within the
    cohort passed in, so rank scales differ between an individual-only and
    a combined individual + ensemble evaluation.
    """
    by_series: dict[str, dict[str, Forecast]] = {}
    first_seen: dict[str, None] = {}  # producers in order of first appearance
    for fc in forecasts:
        series_fcs = by_series.setdefault(fc.series_id, {})
        if fc.producer in series_fcs:
            raise DataError(f"duplicate forecast for ({fc.series_id}, {fc.producer})")
        series_fcs[fc.producer] = fc
        first_seen[fc.producer] = None
    producers = list(first_seen)

    if not by_series:
        raise DataError("evaluate_corpus: no forecasts")
    missing_series = sorted(set(by_series) - set(actuals))
    if missing_series:
        raise DataError(f"evaluate_corpus: no actuals for series {missing_series[:5]}")

    series_ids = sorted(by_series)
    records: list[EvalRecord] = []
    sums: dict[str, np.ndarray] = {p: np.zeros(3) for p in producers}
    for series_id in series_ids:
        series_fcs = by_series[series_id]
        absent = [p for p in producers if p not in series_fcs]
        if absent:
            raise DataError(f"evaluate_corpus: series {series_id} missing producers {absent[:5]}")
        actual = np.asarray(actuals[series_id], dtype=float)
        maes = {p: mae(actual, series_fcs[p].values) for p in producers}
        smapes = {p: smape(actual, series_fcs[p].values) for p in producers}
        ranks = rank_within_series(smapes) if len(producers) > 1 else {producers[0]: 1.0}
        for p in producers:
            records.append(EvalRecord(series_id=series_id, producer=p,
                                      mae=maes[p], smape=smapes[p], rank=ranks[p]))
            sums[p] += (maes[p], smapes[p], ranks[p])

    n = len(series_ids)
    means = {p: sums[p] / n for p in producers}
    if benchmark not in means:
        raise ConfigError(f"benchmark producer {benchmark!r} not in cohort")
    benchmark_smape = means[benchmark][1]
    rows = [
        LeaderboardRow(
            producer=p,
            mean_mae=float(means[p][0]),
            mean_smape=float(means[p][1]),
            mean_rank=float(means[p][2]),
            benchmark_ratio=benchmark_ratio(float(means[p][1]), float(benchmark_smape)),
        )
        for p in producers
    ]
    rows.sort(key=lambda r: (r.mean_smape, r.producer))
    return records, Leaderboard(rows=rows, n_series=n)


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


def _ensemble_rows(leaderboard: Leaderboard) -> list[tuple[LeaderboardRow, EnsembleId, CombinationMethod]]:
    out = []
    for row in leaderboard.rows:
        parsed = parse_producer(row.producer)
        if parsed is not None:
            out.append((row, parsed[0], parsed[1]))
    return out


def composition_analysis(leaderboard: Leaderboard, top_n: int) -> CompositionReport:
    """Model shares, size and method histograms over the ``top_n`` best
    ensembles, plus per-size sMAPE aggregates over all ensembles."""
    ensembles = _ensemble_rows(leaderboard)
    if not ensembles:
        raise DataError("composition_analysis: leaderboard contains no ensembles")
    clipped = top_n > len(ensembles)
    top = ensembles[: min(top_n, len(ensembles))]

    slots = 0
    model_counts: dict[str, int] = {}
    size_hist: dict[int, int] = {}
    method_hist: dict[str, int] = {}
    for _, ens, method in top:
        size_hist[len(ens.members)] = size_hist.get(len(ens.members), 0) + 1
        method_hist[method.value] = method_hist.get(method.value, 0) + 1
        for member in ens.members:
            model_counts[member.value] = model_counts.get(member.value, 0) + 1
            slots += 1

    aggregates = []
    for size in sorted({len(e.members) for _, e, _ in ensembles}):
        values = np.array([row.mean_smape for row, e, _ in ensembles if len(e.members) == size])
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
    individual_records: Sequence[EvalRecord],
    ensemble_records: Sequence[EvalRecord],
) -> ComparisonReport:
    """Pair per-series sMAPE of one individual producer and one ensemble
    producer and summarize the ensemble's added value."""
    ind_producers = {r.producer for r in individual_records}
    ens_producers = {r.producer for r in ensemble_records}
    if len(ind_producers) != 1 or len(ens_producers) != 1:
        raise DataError("compare_best: records must each cover exactly one producer")

    ind = {r.series_id: r.smape for r in individual_records}
    ens = {r.series_id: r.smape for r in ensemble_records}
    if set(ind) != set(ens):
        raise DataError(f"compare_best: series sets differ "
                        f"({sorted(set(ind) ^ set(ens))[:5]} ...)")

    series_ids = sorted(ind)
    ind_values = np.array([ind[s] for s in series_ids])
    ens_values = np.array([ens[s] for s in series_ids])
    with np.errstate(divide="ignore", invalid="ignore"):
        improvement = np.where(ind_values > 0, (ind_values - ens_values) / ind_values, 0.0)
    return ComparisonReport(
        individual_producer=next(iter(ind_producers)),
        ensemble_producer=next(iter(ens_producers)),
        series_ids=series_ids,
        individual_smape=ind_values,
        ensemble_smape=ens_values,
        relative_improvement=improvement,
    )
