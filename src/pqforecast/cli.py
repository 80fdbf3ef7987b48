"""Command-line pipeline: synth, preprocess, forecast, ensemble, evaluate, report.

Each stage reads and writes the documented CSV contracts, so stages can be
rerun and inspected independently. Exit codes: 0 success, 1 usage or
configuration error, 2 data error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import io as pqio
from . import report as pqreport
from .ensembles import ALL_METHODS, CombinationMethod, combine, ensemble_producers, parse_producer
from .errors import ConfigError, DataError
from .evaluation import (
    BENCHMARK_PRODUCER,
    Leaderboard,
    compare_best,
    composition_analysis,
    evaluate_corpus,
)
from .models import ForecastBlock, ModelId, PUBLIC_MODELS, TrainingWindow, fit_predict, model_from_name
from .synth import SyntheticSpec, generate_corpus, write_truth
from .weekly import SeriesKey, WeeklySeries, aggregate_weekly, fill_gaps, normalize

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3

DEFAULT_TRAIN_LEN = 105
DEFAULT_HORIZON = 52


@dataclass
class RunConfig:
    """Resolved per-run settings; the 105 + 52 geometry is the default
    protocol and may only be overridden as a pair."""

    train_len: int = DEFAULT_TRAIN_LEN
    horizon: int = DEFAULT_HORIZON


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _resolve_run_config(args: argparse.Namespace) -> RunConfig:
    train_len, horizon = args.train_len, args.horizon
    if (train_len is None) != (horizon is None):
        raise ConfigError("--train-len and --horizon must be overridden together")
    cfg = RunConfig() if train_len is None else RunConfig(train_len, horizon)
    if cfg.train_len < 1 or cfg.horizon < 1:
        raise ConfigError("train_len and horizon must be positive")
    return cfg


def _ensure_out(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- synth -------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    out = _ensure_out(args)
    spec = SyntheticSpec(
        n_series=args.n_series,
        length_weeks=args.length_weeks,
        missing_rate=args.missing_rate,
        rng_seed=args.seed,
    )
    if args.mode == "weekly" and spec.missing_rate > 0:
        raise ConfigError("missing weeks only apply to --mode raw (weekly output is gap-free)")

    corpus, truths = generate_corpus(spec)
    write_truth(out / "truth.json", spec, truths)
    if args.mode == "weekly":
        pqio.write_weekly_csv(out / "weekly.csv", corpus)
        print(f"synth: wrote {len(corpus)} weekly series to {out / 'weekly.csv'}")
    else:
        raw = [pqio.weekly_to_raw(s, t.missing_weeks) for s, t in zip(corpus, truths)]
        pqio.write_raw_csv(out / "raw.csv", raw)
        pairs = sorted({tuple(s.series_id.split(":")[1:]) for s in corpus})
        levels = [pqio.PlanningLevel(parameter=p, voltage_level=v, level=100.0) for p, v in pairs]
        pqio.write_planning_levels(out / "planning_levels.ini", levels)
        print(f"synth: wrote {len(raw)} raw series to {out / 'raw.csv'} "
              f"(+ planning_levels.ini)")
    return EXIT_OK


# -- preprocess ---------------------------------------------------------------

def cmd_preprocess(args: argparse.Namespace) -> int:
    out = _ensure_out(args)
    levels = pqio.load_planning_levels(Path(args.planning_levels))

    raw_series = []
    for path in args.raw:
        raw_series.extend(pqio.read_raw_csv(Path(path)))

    accepted: list[WeeklySeries] = []
    rejections = []
    for raw in raw_series:
        key = SeriesKey.try_parse(raw.series_id)
        if key is None:
            raise DataError(f"{raw.series_id}: series id is not site:parameter:voltage")
        pl = levels.get((key.parameter, key.voltage_level))
        if pl is None:
            raise ConfigError(
                f"no planning level for ({key.parameter}, {key.voltage_level}) "
                f"needed by {raw.series_id}"
            )
        aggs = aggregate_weekly(raw)
        result = fill_gaps(raw.series_id, aggs)
        if isinstance(result, WeeklySeries):
            accepted.append(normalize(result, pl))
        else:
            rejections.append(result)

    pqio.write_weekly_csv(out / "weekly.csv", accepted)
    pqio.write_rejections_csv(out / "rejections.csv", rejections)
    print(f"preprocess: accepted {len(accepted)}, rejected {len(rejections)}")
    for r in rejections:
        print(f"  rejected {r.series_id}: {r.reason.value}")
    return EXIT_OK


# -- forecast ------------------------------------------------------------------

def _fit_series(payload) -> tuple[str, list[tuple[str, np.ndarray, list[str]]], dict[str, float]]:
    """Fit all requested models on one series (runs in worker processes)."""
    series_id, train_values, model_names, horizon = payload
    window = TrainingWindow(train_values)
    results = []
    timings: dict[str, float] = {}
    for name in model_names:
        model = ModelId(name)
        started = time.perf_counter()
        fit = fit_predict(model, window, horizon)
        timings[name] = time.perf_counter() - started
        results.append((model.value, fit.values, fit.notes))
    return series_id, results, timings


def cmd_forecast(args: argparse.Namespace) -> int:
    out = _ensure_out(args)
    cfg = _resolve_run_config(args)
    series = pqio.read_weekly_csv(Path(args.weekly))

    if args.models.strip().lower() == "all":
        models = list(PUBLIC_MODELS)
    else:
        models = [model_from_name(name.strip()) for name in args.models.split(",") if name.strip()]
    if not models:
        raise ConfigError("no models selected")

    needed = cfg.train_len + cfg.horizon
    for s in series:
        if len(s) < needed:
            raise DataError(f"{s.series_id}: {len(s)} weeks < required {needed}")

    payloads = [
        (s.series_id, s.values[: cfg.train_len], [m.value for m in models], cfg.horizon)
        for s in series
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            raw_results = list(pool.map(_fit_series, payloads))
    else:
        raw_results = [_fit_series(p) for p in payloads]
    by_series = {sid: (fits, timings) for sid, fits, timings in raw_results}

    blocks = []
    manifest = []
    total_time: dict[str, float] = {m.value: 0.0 for m in models}
    for s in series:
        fits, timings = by_series[s.series_id]
        producers, values, notes = zip(*fits)
        blocks.append(ForecastBlock(s.series_id, list(producers), np.vstack(values)))
        for producer, model_notes in zip(producers, notes):
            for note in model_notes:
                manifest.append(pqio.ManifestEntry("forecast", s.series_id, producer, note))
        for name, seconds in timings.items():
            total_time[name] += seconds

    pqio.write_forecast_csv(out / "forecasts.csv", blocks)
    pqio.write_manifest(out / "manifest.jsonl", manifest)
    print(f"forecast: {len(series)} series x {len(models)} models "
          f"({len(series) * len(models) * cfg.horizon} rows)")
    for name in total_time:
        print(f"  {name:<10} {total_time[name]:8.2f} s")
    if manifest:
        print(f"  {len(manifest)} fallback warning(s) recorded in manifest.jsonl")
    return EXIT_OK


# -- ensemble -----------------------------------------------------------------

def _parse_methods(text: str) -> list[CombinationMethod]:
    if text.strip().lower() == "all":
        return list(ALL_METHODS)
    methods = []
    for name in text.split(","):
        name = name.strip().lower()
        if not name:
            continue
        try:
            method = CombinationMethod(name)
        except ValueError as exc:
            valid = ", ".join(m.value for m in ALL_METHODS)
            raise ConfigError(f"unknown combination method {name!r}; valid: {valid}") from exc
        if method in methods:
            raise ConfigError(f"combination method {name!r} given twice")
        methods.append(method)
    if not methods:
        raise ConfigError("no combination methods selected")
    return methods


def cmd_ensemble(args: argparse.Namespace) -> int:
    out = _ensure_out(args)
    methods = _parse_methods(args.methods)
    blocks = pqio.read_forecast_csv(Path(args.forecasts))

    member_names = [m.value for m in PUBLIC_MODELS]
    phi = None
    if any(m.needs_phi for m in methods):
        if not args.leaderboard:
            raise ConfigError("weighted methods need --leaderboard with individual model scores")
        board = pqio.read_leaderboard_csv(Path(args.leaderboard))
        phi = {CombinationMethod.SMAPE_WEIGHTED: [board.row(name).mean_smape for name in member_names],
               CombinationMethod.RANK_WEIGHTED: [board.row(name).mean_rank for name in member_names]}

    producers = ensemble_producers(methods)
    combined = [
        ForecastBlock(series_id=block.series_id, producers=producers,
                      values=combine(block.rows(member_names), methods, phi))
        for block in blocks
    ]
    pqio.write_forecast_csv(out / "ensemble_forecasts.csv", combined)
    print(f"ensemble: {len(combined)} series x {len(producers)} producers")
    return EXIT_OK


# -- evaluate -----------------------------------------------------------------

def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve_run_config(args)
    if args.top_n < 1:
        raise ConfigError(f"--top-n must be at least 1, got {args.top_n}")
    out = _ensure_out(args)

    blocks = []
    for path in args.forecasts:
        for block in pqio.read_forecast_csv(Path(path)):
            if block.values.shape[1] != cfg.horizon:
                raise DataError(f"{path}: {block.series_id}: {block.values.shape[1]} steps, "
                                f"horizon is {cfg.horizon}")
            blocks.append(block)

    weekly = pqio.read_weekly_csv(Path(args.weekly))
    weekly_by_id = {s.series_id: s for s in weekly}
    needed = cfg.train_len + cfg.horizon
    actuals = {}  # in sorted order, as evaluate_corpus orders its series
    for sid in sorted({block.series_id for block in blocks}):
        s = weekly_by_id.get(sid)
        if s is None:
            raise DataError(f"forecasts reference series {sid} absent from {args.weekly}")
        if len(s) < needed:
            raise DataError(f"{sid}: {len(s)} weeks < required {needed}")
        actuals[sid] = s.values[cfg.train_len : needed]

    individual, has_ensembles = [], False
    for block in blocks:
        names = [p for p in block.producers if parse_producer(p) is None]
        has_ensembles |= len(names) < len(block.producers)
        if names:
            individual.append(ForecastBlock(block.series_id, names, block.rows(names)))
    if not individual:
        raise DataError("no individual model forecasts to evaluate")
    if not any(BENCHMARK_PRODUCER in block.producers for block in individual):
        raise ConfigError(f"benchmark producer {BENCHMARK_PRODUCER} missing from forecasts")

    manifest = []
    _, board_individual = evaluate_corpus(individual, actuals)
    pqio.write_leaderboard_csv(out / "leaderboard_individual.csv", board_individual)
    print(f"evaluate: {board_individual.n_series} series, "
          f"{len(board_individual.rows)} individual producers")
    best = board_individual.rows[0]
    print(f"  best individual: {best.producer} "
          f"(mean sMAPE {best.mean_smape:.2f} %, BR {best.benchmark_ratio:.3f})")

    if has_ensembles:
        smapes, board_union = evaluate_corpus(blocks, actuals)
        ensemble_rows = [r for r in board_union.rows if parse_producer(r.producer) is not None]
        board_ensembles = Leaderboard(rows=ensemble_rows, n_series=board_union.n_series)
        pqio.write_leaderboard_csv(out / "leaderboard_ensembles.csv", board_ensembles)

        composition = composition_analysis(board_union, args.top_n)
        if composition.clipped:
            print(f"  warning: top-n {args.top_n} clipped to {composition.top_n} ensembles")
            manifest.append(pqio.ManifestEntry(
                "evaluate", "", "", f"top-n clipped to {composition.top_n}"))
        pqio.write_composition_csv(out / "composition_top.csv", composition)
        pqio.write_size_aggregates_csv(out / "size_aggregates.csv", composition.size_aggregates)

        best_ensemble = ensemble_rows[0]
        comparison = compare_best(list(actuals), best.producer, smapes[best.producer],
                                  best_ensemble.producer, smapes[best_ensemble.producer])
        pqio.write_comparison_csv(out / "comparison.csv", comparison)
        pqio.write_ecdf_csv(out / "ecdf.csv", comparison)
        print(f"  best ensemble: {best_ensemble.producer} "
              f"(mean sMAPE {best_ensemble.mean_smape:.2f} %, BR {best_ensemble.benchmark_ratio:.3f})")
        print(f"  ensemble wins on {100 * comparison.win_fraction:.1f} % of series; "
              f"median improvement when winning "
              f"{100 * comparison.median_improvement_when_winning:.1f} %")

    pqio.write_manifest(out / "manifest.jsonl", manifest)
    return EXIT_OK


# -- report -------------------------------------------------------------------

def cmd_report(args: argparse.Namespace) -> int:
    eval_dir = Path(args.eval_dir)
    out = _ensure_out(args)
    figures = (
        ("size_aggregates.csv", pqio.read_size_aggregates_csv,
         pqreport.render_size_aggregates_svg, "fig_size_aggregates.svg"),
        ("composition_top.csv", pqio.read_composition_csv,
         pqreport.render_composition_svg, "fig_composition.svg"),
        ("comparison.csv", pqio.read_comparison_csv,
         pqreport.render_comparison_svg, "fig_comparison.svg"),
    )
    for table, read, render, figure in figures:
        if (eval_dir / table).exists():
            render(out / figure, read(eval_dir / table))
    print(f"report: figures written to {out}")
    return EXIT_OK


# -- entry point ---------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="pqforecast",
                     description="Weekly PQ utilization forecasting and ensembling pipeline")
    sub = parser.add_subparsers(dest="command", required=True)

    def stage(name: str, help_text: str, func) -> _Parser:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=func)
        return p

    def protocol(p: _Parser) -> None:
        p.add_argument("--train-len", type=int, default=None)
        p.add_argument("--horizon", type=int, default=None)

    p = stage("synth", "generate a synthetic corpus", cmd_synth)
    p.add_argument("--seed", type=int, default=0, help="seed for synthetic generation")
    p.add_argument("--n-series", type=int, required=True)
    p.add_argument("--length-weeks", type=int, default=157)
    p.add_argument("--mode", choices=("weekly", "raw"), default="weekly")
    p.add_argument("--missing-rate", type=float, default=0.0)

    p = stage("preprocess", "raw 10-minute CSV to weekly utilization CSV", cmd_preprocess)
    p.add_argument("--raw", nargs="+", required=True, help="raw measurement CSV file(s)")
    p.add_argument("--planning-levels", required=True, help="planning level INI file")

    p = stage("forecast", "fit models and emit 52-step forecasts", cmd_forecast)
    protocol(p)
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--weekly", required=True, help="weekly series CSV")
    p.add_argument("--models", default="all", help="comma list of models or 'all'")

    p = stage("ensemble", "combine model forecasts into ensembles", cmd_ensemble)
    p.add_argument("--forecasts", required=True, help="individual model forecast CSV")
    p.add_argument("--leaderboard", default=None,
                   help="individual leaderboard CSV supplying weights for weighted methods")
    p.add_argument("--methods", default="all", help="comma list of methods or 'all'")

    p = stage("evaluate", "score forecasts and emit leaderboards", cmd_evaluate)
    protocol(p)
    p.add_argument("--forecasts", nargs="+", required=True, help="forecast CSV file(s)")
    p.add_argument("--weekly", required=True, help="weekly series CSV with the actuals")
    p.add_argument("--top-n", type=int, default=100)

    p = stage("report", "render SVG figures from evaluation output", cmd_report)
    p.add_argument("--eval-dir", required=True, help="directory produced by evaluate")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:  # noqa: BLE001 - last-resort mapping to exit code
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
