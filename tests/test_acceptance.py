"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured numbers once the assertions hold.

The qualitative-corpus criteria run on a seeded 200-series synthetic corpus
(the published headline numbers come from proprietary measurement data and
are not reproducible at desk scale; directions and structural facts are
checked instead).
"""

from __future__ import annotations

import time

import numpy as np
import pytest

import conftest

from pqforecast.cli import main as cli_main
from pqforecast.ensembles import (
    CombinationMethod,
    catalogue,
    combine,
    compute_weights,
    ensemble_producers,
    ensemble_weights,
    parse_producer,
)
from pqforecast.evaluation import benchmark_ratio, compare_best, evaluate_corpus, mae, smape
from pqforecast.models import ForecastBlock, ModelId, PUBLIC_MODELS, fit_predict
from pqforecast.models.sarima import SarimaOrder, fit_css
from pqforecast.models.smoothing import predict_holt
from pqforecast.models.stl_models import TrainingWindow
from pqforecast.synth import SyntheticSpec, generate_corpus
from pqforecast.weekly import (
    MIN_SAMPLES_PER_WEEK,
    Rejection,
    RejectionReason,
    WeeklySeries,
    fill_gaps,
    split_train_test,
)

from conftest import WEIGHTED, make_aggs, make_raw, reference_ensembles, weekly_p95, weights_of

CORPUS_SEED = 20260808
CORPUS_SIZE = 200


def report(criterion: str, detail: str) -> None:
    line = f"[acceptance] {criterion}: PASS ({detail})"
    print(line)
    conftest.ACCEPTANCE_LINES.append(line)  # echoed after the run summary


# -- criterion 1: enumeration fidelity ----------------------------------------

def test_criterion_1_enumeration_fidelity():
    catalogue.cache_clear()
    started = time.perf_counter()
    ensembles = catalogue().members
    producers = set(catalogue().producers)
    elapsed = time.perf_counter() - started

    assert len(ensembles) == 247
    sizes = {}
    for name in ensembles:
        sizes[name[0]] = sizes.get(name[0], 0) + 1
    assert sizes == {"B": 28, "C": 56, "D": 70, "E": 56, "F": 28, "G": 8, "H": 1}
    assert len(producers) == 988
    assert elapsed < 1.0
    report("criterion 1 enumeration",
           f"247 configurations, size counts 28/56/70/56/28/8/1, 988 producers, {elapsed:.3f}s")


# -- criterion 2: formula fidelity on published values -------------------------

def test_criterion_2_formula_fidelity():
    br_best = benchmark_ratio(18.22, 20.88)
    br_ensemble = benchmark_ratio(17.68, 20.88)
    assert br_best == pytest.approx(0.873, abs=5e-4)
    assert br_ensemble == pytest.approx(0.847, abs=5e-4)

    perfect = smape(np.array([7.0]), np.array([7.0]))
    saturated = smape(np.array([0.0]), np.array([3.0]))
    skewed = smape(np.array([100.0]), np.array([50.0]))
    assert perfect == 0.0
    assert saturated == 200.0
    assert skewed == pytest.approx(200.0 / 3.0, rel=1e-12)
    assert round(skewed, 3) == 66.667
    report("criterion 2 formulas",
           f"BR {br_best:.4f}/{br_ensemble:.4f}, sMAPE 0/200/{skewed:.3f}")


# -- criterion 3: metric and combination oracles -------------------------------

def test_criterion_3_metric_and_combination_oracles():
    rng = np.random.default_rng(31415)

    for _ in range(1000):
        actual = rng.uniform(0.0, 100.0, 52)
        forecast = rng.uniform(0.0, 100.0, 52)
        mae_oracle = sum(abs(a - f) for a, f in zip(actual, forecast)) / 52
        terms = [abs(a - f) / (abs(a) + abs(f)) if abs(a) + abs(f) > 0 else 0.0
                 for a, f in zip(actual, forecast)]
        smape_oracle = 200.0 / 52 * sum(terms)
        assert mae(actual, forecast) == pytest.approx(mae_oracle, rel=1e-12)
        assert smape(actual, forecast) == pytest.approx(smape_oracle, rel=1e-12)

    hull_violations = 0
    position = {m: i for i, m in enumerate(PUBLIC_MODELS)}
    for _ in range(20):
        members = rng.uniform(0.0, 100.0, (len(PUBLIC_MODELS), 52))
        phi = {m: rng.uniform(0.05, 50.0, len(PUBLIC_MODELS)) for m in WEIGHTED}
        table = combine(members, weights_of(phi)).reshape(247, len(CombinationMethod), 52)
        for models, rows in zip(catalogue().members.values(), table):
            index = [position[m] for m in models]
            weights = compute_weights(phi[CombinationMethod.SMAPE_WEIGHTED][index])
            assert abs(weights.sum() - 1.0) <= 1e-12
            stacked = members[index]
            lo, hi = stacked.min(axis=0), stacked.max(axis=0)
            hull_violations += int(np.any(rows < lo - 1e-12) or np.any(rows > hi + 1e-12))
    assert hull_violations == 0
    report("criterion 3 oracles",
           "1000 sMAPE/MAE instances within 1e-12, weights sum to 1, "
           "0 hull violations in 20 x 988 ensemble forecasts")


# -- criterion 4: model sanity suite -------------------------------------------

def test_criterion_4_model_sanity():
    started = time.perf_counter()

    const = TrainingWindow(np.full(105, 37.5))
    for model in PUBLIC_MODELS:
        values = fit_predict(model, const).values
        assert np.max(np.abs(values - 37.5)) < 1e-6, model

    # two identical cycles: SNaive reproduces exactly, HW and the STL
    # composites within 1 % relative
    t = np.arange(52)
    cycle = 30 + 8 * np.sin(2 * np.pi * t / 52) + 2 * np.cos(4 * np.pi * t / 52)
    train = TrainingWindow(np.tile(cycle, 2))
    snaive = fit_predict(ModelId.SNAIVE, train).values
    assert np.array_equal(snaive, cycle)
    for model in (ModelId.HW, ModelId.STL_DRIFT, ModelId.STL_ES,
                  ModelId.STL_HOLT, ModelId.STL_ARIMA):
        values = fit_predict(model, train).values
        rel = np.max(np.abs(values - cycle) / np.abs(cycle))
        assert rel < 0.01, (model, rel)

    line_t = np.arange(1, 106, dtype=float)
    line = 50.0 + 0.3 * line_t
    expected = 50.0 + 0.3 * (105 + np.arange(1, 53))
    holt = predict_holt(line, 52)
    holt_rel = np.max(np.abs(holt - expected) / expected)
    assert holt_rel < 1e-3

    estimates = []
    for rep in range(200):
        rng = np.random.default_rng(9000 + rep)
        e = rng.normal(size=155)
        y = np.zeros(155)
        for i in range(1, 155):
            y[i] = 0.8 * y[i - 1] + e[i]
        fit = fit_css(y[50:] + 20.0, SarimaOrder(1, 0, 0, m=52))
        estimates.append(fit.params[0])
    phi_mean = float(np.mean(estimates))
    assert abs(phi_mean - 0.8) <= 0.15

    elapsed = time.perf_counter() - started
    assert elapsed < 300.0
    report("criterion 4 model sanity",
           f"constant/periodic/line fixed points hold, AR(1) mean estimate "
           f"{phi_mean:.3f} over 200 replications, {elapsed:.0f}s")


# -- criterion 5: qualitative reproduction on the synthetic corpus -------------

@pytest.fixture(scope="module")
def corpus_run():
    started = time.perf_counter()
    corpus, _ = generate_corpus(SyntheticSpec(n_series=CORPUS_SIZE, rng_seed=CORPUS_SEED))
    model_names = [m.value for m in PUBLIC_MODELS]
    members: dict[str, np.ndarray] = {}
    actuals: dict[str, np.ndarray] = {}
    for series in corpus:
        train, test = split_train_test(series)
        actuals[series.series_id] = test.values
        window = TrainingWindow(train.values)
        members[series.series_id] = np.vstack(
            [fit_predict(model, window).values for model in PUBLIC_MODELS])
    individual = [ForecastBlock(sid, model_names, values) for sid, values in members.items()]

    _, _, board_ind = evaluate_corpus(individual, actuals)
    phi = {
        CombinationMethod.SMAPE_WEIGHTED: [board_ind.row(name).mean_smape for name in model_names],
        CombinationMethod.RANK_WEIGHTED: [board_ind.row(name).mean_rank for name in model_names],
    }

    # the per-ensemble loop stays here as an oracle independent of the kernel
    ensembles = [ForecastBlock(block.series_id, ensemble_producers(), reference_ensembles(block.values, phi))
                 for block in individual]

    # each series' member block and its ensemble block follow one another
    union = [block for pair in zip(individual, ensembles) for block in pair]
    smapes, board_ensembles, _ = evaluate_corpus(union, actuals)
    elapsed = time.perf_counter() - started
    return {
        "individual": individual,
        "ensembles": ensembles,
        "weights": ensemble_weights(board_ind),
        "board_ind": board_ind,
        "smapes": smapes,
        "series_ids": sorted(actuals),
        "board_ensembles": board_ensembles,
        "elapsed": elapsed,
    }


@pytest.mark.slow
def test_criterion_5_qualitative_reproduction(corpus_run):
    board_ind = corpus_run["board_ind"]
    board_ensembles = corpus_run["board_ensembles"]
    smapes = corpus_run["smapes"]
    elapsed = corpus_run["elapsed"]

    # (a) decomposition variants beat the seasonal-naive benchmark
    br_stl_arima = board_ind.row("STL-ARIMA").benchmark_ratio
    br_stl_es = board_ind.row("STL-ES").benchmark_ratio
    assert br_stl_arima < 1.0
    assert br_stl_es < 1.0

    # (b) mean sMAPE of equal-weight ensembles is non-increasing in size,
    # allowing one adjacent inversion of at most 0.1 points
    by_size: dict[int, list[float]] = {}
    for row in board_ensembles.rows:
        models, method = parse_producer(row.producer)
        if method is CombinationMethod.MEAN:
            by_size.setdefault(len(models), []).append(row.mean_smape)
    size_means = {k: float(np.mean(v)) for k, v in sorted(by_size.items())}
    assert set(size_means) == set(range(2, 9))
    inversions = [(k, size_means[k + 1] - size_means[k])
                  for k in range(2, 8) if size_means[k + 1] > size_means[k]]
    assert len(inversions) <= 1, inversions
    assert all(delta <= 0.1 for _, delta in inversions), inversions

    # (c) the best ensemble beats the best individual model on most series
    best_individual = board_ind.rows[0].producer
    best_ensemble = board_ensembles.rows[0].producer
    comparison = compare_best(corpus_run["series_ids"], best_individual, smapes[best_individual],
                              best_ensemble, smapes[best_ensemble])
    assert comparison.win_fraction > 0.5

    assert elapsed < 1800.0
    report("criterion 5 synthetic corpus",
           f"BR(STL-ARIMA) {br_stl_arima:.3f}, BR(STL-ES) {br_stl_es:.3f}, "
           f"size means {[round(size_means[k], 2) for k in range(2, 9)]}, "
           f"{best_ensemble} beats {best_individual} on "
           f"{100 * comparison.win_fraction:.0f} % of series, {elapsed:.0f}s")


@pytest.mark.slow
def test_kernel_matches_per_ensemble_loop_on_corpus(corpus_run):
    # the kernel that the ensemble stage runs reproduces criterion 5's oracle
    # ensembles byte for byte on every series of the corpus
    for block, oracle in zip(corpus_run["individual"], corpus_run["ensembles"]):
        kernel = ForecastBlock(block.series_id, ensemble_producers(),
                               combine(block.values, corpus_run["weights"]))
        assert kernel.values.tobytes() == oracle.values.tobytes(), block.series_id


# -- criterion 6: preprocessing conformance ------------------------------------

def test_criterion_6_preprocessing_conformance():
    # validity rule at the 958-sample boundary
    assert MIN_SAMPLES_PER_WEEK == 958
    _, at_threshold = weekly_p95(make_raw([[5.0] * 958, [6.0] * 1008]))
    _, below_threshold = weekly_p95(make_raw([[5.0] * 957, [6.0] * 1008]))
    assert at_threshold[0] == 5.0
    assert np.isnan(below_threshold[0])

    # carry-forward over exactly 10 weeks succeeds, 11 does not
    filled = fill_gaps("s", *make_aggs([9.0] + [None] * 10 + [3.0] * 41))
    assert isinstance(filled, WeeklySeries)
    assert filled.values[1:11].tolist() == [9.0] * 10
    assert filled.filled_flags[1:11].all() and not filled.filled_flags[0]
    rejected = fill_gaps("s", *make_aggs([9.0] + [None] * 11 + [3.0] * 42))
    assert rejected == Rejection("s", RejectionReason.UNFILLABLE_GAP)

    # the 20 % threshold: 20 gaps in 100 accepted, 21 rejected
    def pattern(n_gaps: int) -> list:
        p95s: list = [1.0] * 100
        for i in range(n_gaps):
            p95s[2 + 4 * i] = None
        return p95s

    accepted = fill_gaps("s", *make_aggs(pattern(20)))
    assert isinstance(accepted, WeeklySeries)
    assert np.mean(accepted.filled_flags) == pytest.approx(0.20)
    over = fill_gaps("s", *make_aggs(pattern(21)))
    assert over == Rejection("s", RejectionReason.TOO_MANY_GAPS)
    report("criterion 6 preprocessing",
           "958-sample validity, 10-week carry-forward and 20 % threshold fixtures exact")


# -- criterion 7: pipeline determinism ------------------------------------------

def _pipeline(base, jobs: int) -> tuple[bytes, bytes]:
    corpus_dir = base / "corpus"
    if not corpus_dir.exists():
        assert cli_main(["synth", "--out", str(corpus_dir), "--n-series", "16",
                         "--seed", "77"]) == 0
    run_dir = base / f"jobs{jobs}"
    weekly = str(corpus_dir / "weekly.csv")
    assert cli_main(["forecast", "--weekly", weekly, "--out", str(run_dir / "fc"),
                     "--jobs", str(jobs)]) == 0
    assert cli_main(["evaluate", "--forecasts", str(run_dir / "fc" / "forecasts.csv"),
                     "--weekly", weekly, "--out", str(run_dir / "ev0")]) == 0
    assert cli_main(["ensemble", "--forecasts", str(run_dir / "fc" / "forecasts.csv"),
                     "--leaderboard", str(run_dir / "ev0" / "leaderboard_individual.csv"),
                     "--out", str(run_dir / "ens")]) == 0
    assert cli_main(["evaluate", "--forecasts", str(run_dir / "fc" / "forecasts.csv"),
                     str(run_dir / "ens" / "ensemble_forecasts.csv"),
                     "--weekly", weekly, "--out", str(run_dir / "ev")]) == 0
    individual = (run_dir / "ev" / "leaderboard_individual.csv").read_bytes()
    ensembles = (run_dir / "ev" / "leaderboard_ensembles.csv").read_bytes()
    return individual, ensembles


def test_criterion_7_determinism(tmp_path):
    first = _pipeline(tmp_path, jobs=1)
    second = _pipeline(tmp_path, jobs=3)
    assert first[0] == second[0]
    assert first[1] == second[1]
    report("criterion 7 determinism",
           "leaderboards byte-identical across --jobs 1 and --jobs 3")
