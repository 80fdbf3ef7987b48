"""Command-line pipeline: synth, preprocess, forecast, ensemble, evaluate, report.

Each stage reads and writes the documented CSV contracts, so stages can be
rerun and inspected independently. Exit codes: 0 success, 1 usage or
configuration error, 2 data error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import configparser
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import io as pqio
from . import report as pqreport
from .ensembles import ALL_METHODS, CombinationMethod, combine, enumerate_ensembles, parse_producer
from .errors import ConfigError, DataError
from .evaluation import (
    BENCHMARK_PRODUCER,
    Leaderboard,
    compare_best,
    composition_analysis,
    evaluate_corpus,
)
from .models import FitConfig, Forecast, ModelId, PUBLIC_MODELS, fit_predict, model_from_name
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
    fit: FitConfig = field(default_factory=FitConfig)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _load_config_file(path: Path) -> dict:
    parser = configparser.ConfigParser()
    if not parser.read(path, encoding="utf-8"):
        raise ConfigError(f"{path}: cannot read config file")
    out: dict = {}
    if parser.has_section("protocol"):
        for key in ("train_len", "horizon"):
            if parser.has_option("protocol", key):
                out[key] = parser.getint("protocol", key)
    fit_kwargs: dict = {}
    if parser.has_section("prophet"):
        for key, cast in (("n_changepoints", int), ("fourier_order", int),
                          ("changepoint_ridge", float), ("changepoint_span", float)):
            if parser.has_option("prophet", key):
                fit_kwargs[key] = cast(parser.get("prophet", key))
    if parser.has_section("stl"):
        for key in ("stl_inner_iterations", "stl_robustness_iterations", "stl_seasonal_window"):
            short = key.removeprefix("stl_")
            if parser.has_option("stl", short):
                fit_kwargs[key] = parser.getint("stl", short)
    out["fit_kwargs"] = fit_kwargs
    return out


def _resolve_run_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    file_overrides: dict = {}
    if args.config:
        file_overrides = _load_config_file(args.config)
        if file_overrides.get("fit_kwargs"):
            cfg.fit = replace(cfg.fit, **file_overrides["fit_kwargs"])

    train_len, horizon = args.train_len, args.horizon
    if (train_len is None) != (horizon is None):
        raise ConfigError("--train-len and --horizon must be overridden together")
    if train_len is not None:
        cfg.train_len, cfg.horizon = train_len, horizon
    elif "train_len" in file_overrides or "horizon" in file_overrides:
        if ("train_len" in file_overrides) != ("horizon" in file_overrides):
            raise ConfigError("config file must override train_len and horizon together")
        cfg.train_len = file_overrides["train_len"]
        cfg.horizon = file_overrides["horizon"]
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

def _fit_series(payload) -> tuple[str, list[tuple[str, list[float], list[str]]], dict[str, float]]:
    """Fit all requested models on one series (runs in worker processes)."""
    series_id, train_values, model_names, horizon, fit_config = payload
    y = np.asarray(train_values, dtype=float)
    results = []
    timings: dict[str, float] = {}
    for name in model_names:
        model = ModelId(name)
        started = time.perf_counter()
        fit = fit_predict(model, y, horizon, fit_config)
        timings[name] = time.perf_counter() - started
        results.append((model.value, [float(v) for v in fit.values], fit.notes))
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
        (s.series_id, s.values[: cfg.train_len].tolist(), [m.value for m in models],
         cfg.horizon, cfg.fit)
        for s in series
    ]
    if args.jobs > 1:
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            raw_results = list(pool.map(_fit_series, payloads))
    else:
        raw_results = [_fit_series(p) for p in payloads]
    by_series = {sid: (fits, timings) for sid, fits, timings in raw_results}

    forecasts = []
    manifest = []
    total_time: dict[str, float] = {m.value: 0.0 for m in models}
    for s in series:
        fits, timings = by_series[s.series_id]
        for producer, values, notes in fits:
            forecasts.append(Forecast(series_id=s.series_id, producer=producer,
                                      values=np.array(values), horizon=cfg.horizon))
            for note in notes:
                manifest.append(pqio.ManifestEntry("forecast", s.series_id, producer, note))
        for name, seconds in timings.items():
            total_time[name] += seconds

    pqio.write_forecast_csv(out / "forecasts.csv", forecasts)
    pqio.write_manifest(out / "manifest.jsonl", manifest)
    print(f"forecast: {len(series)} series x {len(models)} models "
          f"({len(forecasts) * cfg.horizon} rows)")
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
            methods.append(CombinationMethod(name))
        except ValueError as exc:
            valid = ", ".join(m.value for m in ALL_METHODS)
            raise ConfigError(f"unknown combination method {name!r}; valid: {valid}") from exc
    if not methods:
        raise ConfigError("no combination methods selected")
    return methods


def cmd_ensemble(args: argparse.Namespace) -> int:
    out = _ensure_out(args)
    methods = _parse_methods(args.methods)
    forecasts = pqio.read_forecast_csv(Path(args.forecasts))

    phi_by_model: dict[str, tuple[float, float]] = {}
    if any(m.needs_phi for m in methods):
        if not args.leaderboard:
            raise ConfigError("weighted methods need --leaderboard with individual model scores")
        board = pqio.read_leaderboard_csv(Path(args.leaderboard))
        for row in board.rows:
            phi_by_model[row.producer] = (row.mean_smape, row.mean_rank)

    by_series: dict[str, dict[str, Forecast]] = {}
    for fc in forecasts:
        by_series.setdefault(fc.series_id, {})[fc.producer] = fc

    member_names = [m.value for m in PUBLIC_MODELS]
    combined: list[Forecast] = []
    for series_id, members in by_series.items():
        missing = [name for name in member_names if name not in members]
        if missing:
            raise DataError(f"{series_id}: missing member forecasts: {', '.join(missing)}")
        for ens in enumerate_ensembles():
            member_fcs = [members[m.value] for m in ens.members]
            for method in methods:
                phi = None
                if method.needs_phi:
                    try:
                        idx = 0 if method is CombinationMethod.SMAPE_WEIGHTED else 1
                        phi = [phi_by_model[m.value][idx] for m in ens.members]
                    except KeyError as exc:
                        raise ConfigError(f"leaderboard lacks scores for model {exc}") from exc
                combined.append(combine(member_fcs, method, phi=phi,
                                        producer=ens.producer(method)))

    pqio.write_forecast_csv(out / "ensemble_forecasts.csv", combined)
    n_series = len(by_series)
    print(f"ensemble: {n_series} series x {len(combined) // max(n_series, 1)} producers")
    return EXIT_OK


# -- evaluate -----------------------------------------------------------------

def cmd_evaluate(args: argparse.Namespace) -> int:
    out = _ensure_out(args)
    cfg = _resolve_run_config(args)

    forecasts: list[Forecast] = []
    for path in args.forecasts:
        forecasts.extend(pqio.read_forecast_csv(Path(path)))

    weekly = pqio.read_weekly_csv(Path(args.weekly))
    weekly_by_id = {s.series_id: s for s in weekly}
    needed = cfg.train_len + cfg.horizon
    actuals = {}
    for sid in sorted({fc.series_id for fc in forecasts}):
        s = weekly_by_id.get(sid)
        if s is None:
            raise DataError(f"forecasts reference series {sid} absent from {args.weekly}")
        if len(s) < needed:
            raise DataError(f"{sid}: {len(s)} weeks < required {needed}")
        actuals[sid] = s.values[cfg.train_len : needed]

    individual = [fc for fc in forecasts if parse_producer(fc.producer) is None]
    ensembles = [fc for fc in forecasts if parse_producer(fc.producer) is not None]
    if not individual:
        raise DataError("no individual model forecasts to evaluate")
    if not any(fc.producer == BENCHMARK_PRODUCER for fc in individual):
        raise ConfigError(f"benchmark producer {BENCHMARK_PRODUCER} missing from forecasts")

    manifest = []
    _, board_individual = evaluate_corpus(individual, actuals)
    pqio.write_leaderboard_csv(out / "leaderboard_individual.csv", board_individual)
    print(f"evaluate: {board_individual.n_series} series, "
          f"{len(board_individual.rows)} individual producers")
    best = board_individual.rows[0]
    print(f"  best individual: {best.producer} "
          f"(mean sMAPE {best.mean_smape:.2f} %, BR {best.benchmark_ratio:.3f})")

    if ensembles:
        records_all, board_union = evaluate_corpus(individual + ensembles, actuals)
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
        comparison = compare_best(
            [r for r in records_all if r.producer == best.producer],
            [r for r in records_all if r.producer == best_ensemble.producer],
        )
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
        p.add_argument("--config", type=Path, default=None, help="INI file with model knobs")
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
