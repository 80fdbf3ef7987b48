"""Independent numpy oracles for the outputs of each workload.

Each check returns a :class:`Verdict`: the operations attempted, the set
that failed, and the figures the benchmark reports. An operation is one
fit (``forecast_corpus``), one producer x series (``ensemble_wide``) or one
series (``preprocess_raw``). A defect that cannot be pinned to single
operations (a missing file, a wrong header, wrong weights) fails all of
them. Nothing here imports ``pqforecast``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from inputs import (
    HORIZON, METHODS, MIN_SAMPLES, MODELS, RAW_START, RAW_WEEKS, TRAIN, WEEKS,
    EnsembleCorpus, ForecastCorpus, RawCorpus, ensemble_configs, rng_for, week_ids,
)

TOL = 1e-9  # relative to max(1, |expected|)
SAMPLED_SERIES = 3  # ensemble_wide series whose 988 combinations are recomputed

FORECAST_HEADER = ["series_id", "producer", "h", "value"]
LEADERBOARD_HEADER = ["rank", "producer", "mean_mae", "mean_smape", "mean_rank", "benchmark_ratio"]
WEEKLY_HEADER = ["series_id", "iso_year", "iso_week", "utilization_percent", "filled"]


class CheckError(Exception):
    """A defect that fails every operation of the run."""


@dataclass
class Verdict:
    attempted: int
    failed: set = field(default_factory=set)
    result_smape: float = 0.0  # the workload's accuracy figure, see README.md
    figures: dict = field(default_factory=dict)
    problems: list[str] = field(default_factory=list)

    def fail_all(self, ops, problem: str) -> None:
        self.failed.update(ops)
        self.problems.append(problem)


def close(actual, expected) -> bool:
    """Elementwise agreement within TOL, relative to max(1, |expected|)."""
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    return actual.shape == expected.shape and bool(
        np.all(np.abs(actual - expected) <= TOL * np.maximum(1.0, np.abs(expected))))


def read_columns(path: Path, header: list[str]) -> list[list[str]]:
    """The columns of a CSV with the given header (no quoting in these
    formats), split in one pass so million-row files stay cheap."""
    if not path.exists():
        raise CheckError(f"{path.name}: missing")
    text = path.read_text(encoding="utf-8").replace("\r\n", "\n")
    first, _, body = text.partition("\n")
    if first.split(",") != header:
        raise CheckError(f"{path.name}: unexpected header")
    tokens = body.rstrip("\n").replace("\n", ",").split(",") if body.strip() else []
    if len(tokens) % len(header):
        raise CheckError(f"{path.name}: ragged rows")
    return [tokens[i :: len(header)] for i in range(len(header))]


def read_rows(path: Path, header: list[str]) -> list[list[str]]:
    return [list(row) for row in zip(*read_columns(path, header))]


def read_forecasts(path: Path) -> dict[tuple[str, str], np.ndarray]:
    """(series, producer) -> values for h = 1..52; raises on any row that
    breaks the format (bad step order, wrong horizon, duplicates)."""
    sids, producers, steps, values = read_columns(path, FORECAST_HEADER)
    blocks = len(sids) // HORIZON
    if len(sids) % HORIZON or steps != [str(h) for h in range(1, HORIZON + 1)] * blocks:
        raise CheckError(f"{path.name}: steps are not 1..{HORIZON} in every block")
    keys = list(zip(sids[::HORIZON], producers[::HORIZON]))
    if len(set(keys)) != len(keys) \
            or sids != [k[0] for k in keys for _ in range(HORIZON)] \
            or producers != [k[1] for k in keys for _ in range(HORIZON)]:
        raise CheckError(f"{path.name}: a (series, producer) block is split or repeated")
    return dict(zip(keys, np.array(values, dtype=float).reshape(blocks, HORIZON)))


def read_leaderboard(path: Path) -> list[tuple[str, np.ndarray]]:
    """Rows in file order as (producer, [mae, smape, rank, ratio])."""
    rows = read_rows(path, LEADERBOARD_HEADER)
    if [r[0] for r in rows] != [str(i) for i in range(1, len(rows) + 1)]:
        raise CheckError(f"{path.name}: rank column is not 1..n")
    return [(r[1], np.array([float(x) for x in r[2:6]])) for r in rows]


def smape_rows(actual: np.ndarray, forecasts: np.ndarray) -> np.ndarray:
    """Bounded sMAPE of each forecast row; 0/0 terms count as 0."""
    denom = np.abs(actual) + np.abs(forecasts)
    diff = np.abs(actual - forecasts)
    terms = np.divide(diff, denom, out=np.zeros_like(diff), where=denom > 0)
    return 200.0 / actual.shape[-1] * terms.sum(axis=-1)


def average_ranks(values: np.ndarray) -> np.ndarray:
    """Rank 1 = smallest; tied values share the mean of their positions."""
    less = (values[None, :] < values[:, None]).sum(axis=1)
    equal = (values[None, :] == values[:, None]).sum(axis=1)
    return less + (equal + 1) / 2.0


def leaderboard(actuals: dict[str, np.ndarray], values: dict[tuple[str, str], np.ndarray],
                producers: list[str]) -> list[tuple[str, np.ndarray]]:
    """Corpus means of MAE, sMAPE and within-series rank, benchmark ratio
    against SNaive, best mean sMAPE first (ties by name)."""
    sums = np.zeros((len(producers), 3))
    for sid, actual in actuals.items():
        test = actual[TRAIN:WEEKS]
        stack = np.vstack([values[(sid, p)] for p in producers])
        maes = np.abs(stack - test).mean(axis=1)
        smapes = smape_rows(test, stack)
        sums += np.column_stack([maes, smapes, average_ranks(smapes)])
    means = sums / len(actuals)
    ratio = means[:, 1] / means[producers.index("SNaive"), 1]
    rows = [(p, np.append(means[i], ratio[i])) for i, p in enumerate(producers)]
    return sorted(rows, key=lambda r: (r[1][1], r[0]))


def compare_leaderboards(got: list[tuple[str, np.ndarray]], want: list[tuple[str, np.ndarray]]) -> list[str]:
    """Producers whose row differs (position, name or any value)."""
    if [p for p, _ in got] != [p for p, _ in want]:
        bad = {p for (p, _), (q, _) in zip(got, want) if p != q} | ({p for p, _ in got} ^ {p for p, _ in want})
        return sorted(bad) or [p for p, _ in want]
    return [p for (p, g), (_, w) in zip(got, want) if not close(g, w)]


# -- forecast_corpus -----------------------------------------------------------

def check_forecast_corpus(corpus: ForecastCorpus, outputs: dict[str, Path]) -> Verdict:
    """N x 8 x 52 finite nonnegative values; SNaive repeats the last 52
    training weeks; the individual leaderboard recomputed to 1e-9."""
    ops = [(sid, m) for sid in corpus.actuals for m in MODELS]
    verdict = Verdict(attempted=len(ops))
    try:
        values = read_forecasts(outputs["forecasts"])
        if set(values) != set(ops):
            raise CheckError(f"forecasts.csv: producers x series differ from {len(ops)} expected fits")
        for sid, model in ops:
            v = values[(sid, model)]
            if not (np.all(np.isfinite(v)) and np.all(v >= 0)):
                verdict.failed.add((sid, model))
            if model == "SNaive" and not np.array_equal(v, corpus.actuals[sid][TRAIN - 52 : TRAIN]):
                verdict.failed.add((sid, model))
        got = read_leaderboard(outputs["leaderboard"])
        want = leaderboard(corpus.actuals, values, list(MODELS))
        for producer in compare_leaderboards(got, want):
            verdict.failed.update((sid, producer) for sid in corpus.actuals)
            verdict.problems.append(f"leaderboard row {producer} differs from the oracle")
        verdict.result_smape = float(np.mean([row[1] for _, row in got]))
        verdict.figures.update(best_individual_smape=float(got[0][1][1]), best_individual=got[0][0])
    except (CheckError, ValueError, IndexError) as exc:
        verdict.fail_all(ops, str(exc))
    return verdict


# -- ensemble_wide -------------------------------------------------------------

def _combination_oracle(members: np.ndarray, idx: tuple[int, ...], method: str,
                        phi: dict[str, np.ndarray]) -> np.ndarray:
    sub = members[list(idx)]
    if method == "mean":
        return sub.mean(axis=0)
    if method == "median":
        return np.median(sub, axis=0)
    inv = 1.0 / phi[method][list(idx)]
    return (inv / inv.sum()) @ sub


def check_ensemble_wide(corpus: EnsembleCorpus, outputs: dict[str, Path], seed: int) -> Verdict:
    """988 producers per series; all four rules recomputed for every
    configuration on a seeded sample of series; both leaderboards and the
    best-vs-best win fraction recomputed."""
    configs = ensemble_configs()
    producers = [f"{name}:{method}" for name, _ in configs for method in METHODS]
    series = list(corpus.actuals)
    ops = [(sid, p) for sid in series for p in producers]
    verdict = Verdict(attempted=len(ops))
    try:
        want_ind = leaderboard(corpus.actuals, corpus.members, list(MODELS))
        for key in ("leaderboard_individual", "leaderboard_final_individual"):
            if compare_leaderboards(read_leaderboard(outputs[key]), want_ind):
                raise CheckError(f"{outputs[key].parent.name}/{outputs[key].name} differs from the oracle")

        values = read_forecasts(outputs["ensembles"])
        if set(values) != set(ops):
            raise CheckError("ensemble_forecasts.csv: producers x series differ from 988 per series")
        for op in ops:
            if not (np.all(np.isfinite(values[op])) and np.all(values[op] >= 0)):
                verdict.failed.add(op)

        board = {p: row for p, row in want_ind}
        phi = {"smape": np.array([board[m][1] for m in MODELS]),
               "rank": np.array([board[m][2] for m in MODELS])}
        index = {m: i for i, m in enumerate(MODELS)}
        sampled = rng_for(seed, 5).choice(len(series), size=SAMPLED_SERIES, replace=False)
        for sid in (series[i] for i in sorted(sampled)):
            members = np.vstack([corpus.members[(sid, m)] for m in MODELS])
            for name, config in configs:
                idx = tuple(index[m] for m in config)
                for method in METHODS:
                    expected = np.maximum(_combination_oracle(members, idx, method, phi), 0.0)
                    got = values[(sid, f"{name}:{method}")]
                    if not close(got, expected):
                        verdict.failed.add((sid, f"{name}:{method}"))

        everything = dict(corpus.members)
        everything.update(values)
        union = leaderboard(corpus.actuals, everything, list(MODELS) + producers)
        want_ens = [row for row in union if row[0] not in board]
        for producer in compare_leaderboards(read_leaderboard(outputs["leaderboard_ensembles"]), want_ens):
            verdict.failed.update((sid, producer) for sid in series)
            verdict.problems.append(f"ensemble leaderboard row {producer} differs from the oracle")

        best_ind, best_ens = want_ind[0][0], want_ens[0][0]
        rows = read_rows(outputs["comparison"],
                         ["series_id", "individual_smape", "ensemble_smape", "relative_improvement"])
        if [r[0] for r in rows] != sorted(series):
            raise CheckError("comparison.csv: series differ")
        ind = np.array([smape_rows(corpus.actuals[s][TRAIN:], corpus.members[(s, best_ind)]) for s in sorted(series)])
        ens = np.array([smape_rows(corpus.actuals[s][TRAIN:], values[(s, best_ens)]) for s in sorted(series)])
        if not (close([float(r[1]) for r in rows], ind) and close([float(r[2]) for r in rows], ens)):
            raise CheckError("comparison.csv: per-series sMAPE differs from the oracle")
        win = float(np.mean(ens < ind))
        got_win = float(np.mean([float(r[2]) < float(r[1]) for r in rows]))
        if win != got_win:
            raise CheckError(f"win fraction {got_win} != oracle {win}")
        verdict.result_smape = float(np.mean([row[1] for _, row in want_ens]))
        verdict.figures.update(best_ensemble_smape=float(want_ens[0][1][1]), best_ensemble=best_ens,
                               ensemble_win_fraction=win, best_individual_smape=float(want_ind[0][1][1]))
    except (CheckError, ValueError, IndexError, KeyError) as exc:
        verdict.fail_all(ops, str(exc))
    return verdict


# -- preprocess_raw ------------------------------------------------------------

def check_preprocess_raw(corpus: RawCorpus, outputs: dict[str, Path]) -> Verdict:
    """Accepted and rejected series with their reasons match the plan; the
    p95 of every valid week equals np.percentile of its retained samples;
    filled flags sit exactly on the planned gap weeks and carry the last
    valid value forward."""
    ops = [plan.series_id for plan in corpus.plans]
    verdict = Verdict(attempted=len(ops))
    weeks = week_ids(tuple(RAW_START.isocalendar())[:2], RAW_WEEKS)
    try:
        rejected = {r[0]: r[1] for r in read_rows(outputs["rejections"], ["series_id", "reason"])}
        weekly: dict[str, list[list[str]]] = {}
        for row in read_rows(outputs["weekly"], WEEKLY_HEADER):
            weekly.setdefault(row[0], []).append(row)
        unknown = (set(rejected) | set(weekly)) - set(ops)
        if unknown:
            raise CheckError(f"unplanned series in output: {sorted(unknown)}")
        errors = []
        for plan in corpus.plans:
            sid = plan.series_id
            if plan.reason is not None:
                if rejected.get(sid) != plan.reason or sid in weekly:
                    verdict.failed.add(sid)
                continue
            rows = weekly.get(sid, [])
            if sid in rejected or len(rows) != RAW_WEEKS \
                    or [(int(r[1]), int(r[2])) for r in rows] != weeks:
                verdict.failed.add(sid)
                continue
            got = np.array([float(r[3]) for r in rows])
            flags = [w for w, r in enumerate(rows) if r[4] == "1"]
            expected = np.empty(RAW_WEEKS)
            for w in range(RAW_WEEKS):
                if len(plan.kept[w]) >= MIN_SAMPLES:
                    expected[w] = 100.0 * np.percentile(plan.kept[w], 95) / plan.level
                else:
                    expected[w] = expected[w - 1]  # carry forward; week 0 is valid when accepted
            if flags != plan.missing or not close(got, expected):
                verdict.failed.add(sid)
                continue
            errors.append(float(smape_rows(100.0 * plan.truth_p95 / plan.level, got)))
        verdict.result_smape = float(np.mean(errors)) if errors else 0.0
        verdict.figures.update(accepted=len(weekly), rejected=len(rejected))
    except (CheckError, ValueError, IndexError) as exc:
        verdict.fail_all(ops, str(exc))
    return verdict
