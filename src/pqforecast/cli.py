"""Command-line pipeline: synth, preprocess, forecast, ensemble, evaluate.

Each stage reads and writes the documented CSV contracts, so stages can be
rerun and inspected independently. The final ``evaluate``, given ensemble
forecasts, also draws its three analyses as SVG figures. Exit codes: 0
success, 1 usage or configuration error, 2 data error, 3 internal failure.
"""

from __future__ import annotations

import argparse
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Generator, Iterator, Optional, Sequence

import numpy as np

from . import io as pqio
from .ensembles import combine, ensemble_producers, ensemble_weights
from .errors import ConfigError, DataError
from .evaluation import TOP_N, compare_best, composition_analysis, evaluate_corpus
from .models import ForecastBlock, ModelFit, PUBLIC_MODELS, fit_predict, load_fitters
from .weekly import TEST_WEEKS, TRAIN_WEEKS, SeriesKey, WeeklySeries, aggregate_weekly, fill_gaps, normalize, split_train_test

if TYPE_CHECKING:
    from .models.stl_models import TrainingWindow

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # noqa: D102 - argparse hook
        raise ConfigError(message)


def _ensure_out(args: argparse.Namespace) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


# -- synth -------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SyntheticSpec, generate_corpus, write_truth

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
    else:  # one week of 10-minute samples at a time
        pqio.write_raw_csv(out / "raw.csv", ((s, t.missing_weeks) for s, t in zip(corpus, truths)))
        pairs = sorted({tuple(s.series_id.split(":")[1:]) for s in corpus})
        levels = [pqio.PlanningLevel(parameter=p, voltage_level=v, level=100.0) for p, v in pairs]
        pqio.write_planning_levels(out / "planning_levels.ini", levels)
        print(f"synth: wrote {len(corpus)} raw series to {out / 'raw.csv'} "
              f"(+ planning_levels.ini)")
    return EXIT_OK


# -- preprocess ---------------------------------------------------------------

def cmd_preprocess(args: argparse.Namespace) -> int:
    levels = pqio.load_planning_levels(Path(args.planning_levels))

    accepted: list[WeeklySeries] = []
    rejections = []
    source: dict[str, str] = {}
    for path in args.raw:
        for series_id, start_week, p95 in pqio.read_raw_csv(Path(path), aggregate_weekly):
            if series_id in source:
                raise DataError(f"{series_id}: in both {source[series_id]} and {path}")
            source[series_id] = path
            key = SeriesKey.try_parse(series_id)
            if key is None:
                raise DataError(f"{path}: {series_id}: series id is not site:parameter:voltage")
            pl = levels.get((key.parameter, key.voltage_level))
            if pl is None:
                raise ConfigError(f"no planning level for ({key.parameter}, {key.voltage_level}) "
                                  f"needed by {series_id}")
            result = fill_gaps(series_id, start_week, p95)
            if isinstance(result, WeeklySeries):
                accepted.append(normalize(result, pl))
            else:
                rejections.append(result)

    out = _ensure_out(args)
    pqio.write_weekly_csv(out / "weekly.csv", accepted)
    pqio.write_rejections_csv(out / "rejections.csv", rejections)
    print(f"preprocess: accepted {len(accepted)}, rejected {len(rejections)}")
    for r in rejections:
        print(f"  rejected {r.series_id}: {r.reason.value}")
    return EXIT_OK


# -- forecast ------------------------------------------------------------------

def _fit_series(window: TrainingWindow) -> list[tuple[ModelFit, float]]:
    """Each model's fit on one series and its seconds (runs in worker processes)."""
    fits = []
    for model in PUBLIC_MODELS:
        started = time.perf_counter()
        fit = fit_predict(model, window)
        fits.append((fit, time.perf_counter() - started))
    return fits


def cmd_forecast(args: argparse.Namespace) -> int:
    from .models.stl_models import TrainingWindow

    if args.jobs < 1:
        raise ConfigError(f"--jobs must be at least 1, got {args.jobs}")
    out = _ensure_out(args)
    series = pqio.read_weekly_csv(Path(args.weekly))

    windows = [TrainingWindow(split_train_test(s)[0].values) for s in series]
    workers = min(args.jobs, len(series))  # the pool starts every worker at once
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        load_fitters()  # the forked workers inherit them instead of each compiling them
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_fit_series, windows))
    else:
        results = [_fit_series(w) for w in windows]

    producers = [m.value for m in PUBLIC_MODELS]
    blocks, manifest, total_time = [], [], dict.fromkeys(producers, 0.0)
    for s, fits in zip(series, results):  # map keeps the series order
        blocks.append(ForecastBlock(s.series_id, producers, np.vstack([fit.values for fit, _ in fits])))
        for fit, seconds in fits:
            manifest += [pqio.ManifestEntry("forecast", s.series_id, fit.model.value, note) for note in fit.notes]
            total_time[fit.model.value] += seconds

    pqio.write_forecast_csv(out / "forecasts.csv", blocks)
    pqio.write_manifest(out / "manifest.jsonl", manifest)
    print(f"forecast: {len(series)} series x {len(producers)} models "
          f"({len(series) * len(producers) * TEST_WEEKS} rows)")
    for name in total_time:
        print(f"  {name:<10} {total_time[name]:8.2f} s")
    if manifest:
        print(f"  {len(manifest)} fallback warning(s) recorded in manifest.jsonl")
    return EXIT_OK


# -- ensemble -----------------------------------------------------------------

def cmd_ensemble(args: argparse.Namespace) -> int:
    out = _ensure_out(args)
    member_names = [m.value for m in PUBLIC_MODELS]
    board = pqio.read_leaderboard_csv(Path(args.leaderboard))
    try:  # every weight, computed before any member row is read
        weights = ensemble_weights(board)
    except (ConfigError, DataError) as exc:
        raise type(exc)(f"{args.leaderboard}: {exc}") from exc

    producers = ensemble_producers()
    members = pqio.iter_forecast_csv(Path(args.forecasts))
    combined = (  # one series at a time, from reading its members to writing its ensembles
        ForecastBlock(series_id=block.series_id, producers=producers,
                      values=combine(block.rows(member_names), weights))
        for block in members
    )
    with _malformed_first(members):
        n_series = pqio.write_forecast_csv(out / "ensemble_forecasts.csv", combined)
    print(f"ensemble: {n_series} series x {len(producers)} producers")
    return EXIT_OK


# -- evaluate -----------------------------------------------------------------

@contextmanager
def _malformed_first(blocks: Generator):
    """Close the forecast reader when the block ends. On a data error, read
    the rest of its files, holding nothing, and raise the first error that
    one pass over the files, one after another, meets: a malformed line
    anywhere before an error in the content of a series read earlier. A
    reader that raised the error itself has ended, so nothing more is read."""
    try:
        yield
    except DataError:
        for _ in blocks:
            pass
        raise
    finally:
        blocks.close()


def cmd_evaluate(args: argparse.Namespace) -> int:
    out = _ensure_out(args)

    weekly = {s.series_id: s for s in pqio.read_weekly_csv(Path(args.weekly))}
    actuals: dict[str, np.ndarray] = {}  # the test weeks of each forecast series, in file order
    blocks = ((path, block) for path in args.forecasts  # each file's blocks in turn, in one pass
              for block in pqio.iter_forecast_csv(Path(path)))

    def checked() -> Iterator[ForecastBlock]:
        for path, block in blocks:
            sid = block.series_id
            if block.values.shape[1] != TEST_WEEKS:
                raise DataError(f"{path}: {sid}: {block.values.shape[1]} steps, "
                                f"horizon is {TEST_WEEKS}")
            if sid not in actuals:
                if sid not in weekly:
                    raise DataError(f"forecasts reference series {sid} absent from {args.weekly}")
                actuals[sid] = split_train_test(weekly[sid])[1].values
            yield block

    manifest = []
    with _malformed_first(blocks):
        smapes, board_ensembles, board_individual = evaluate_corpus(checked(), actuals)
    pqio.write_leaderboard_csv(out / "leaderboard_individual.csv", board_individual)
    print(f"evaluate: {board_individual.n_series} series, "
          f"{len(board_individual.rows)} individual producers")
    best = board_individual.rows[0]
    print(f"  best individual: {best.producer} "
          f"(mean sMAPE {best.mean_smape:.2f} %, BR {best.benchmark_ratio:.3f})")

    if board_ensembles.rows:
        from . import report as pqreport

        pqio.write_leaderboard_csv(out / "leaderboard_ensembles.csv", board_ensembles)
        composition = composition_analysis(board_ensembles)
        if composition.clipped:
            print(f"  warning: top {TOP_N} clipped to {composition.top_n} ensembles")
            manifest.append(pqio.ManifestEntry(
                "evaluate", "", "", f"top {TOP_N} clipped to {composition.top_n}"))
        pqio.write_composition_csv(out / "composition_top.csv", composition)
        pqio.write_size_aggregates_csv(out / "size_aggregates.csv", composition.size_aggregates)
        pqreport.render_composition_svg(out / "fig_composition.svg", composition)
        pqreport.render_size_aggregates_svg(out / "fig_size_aggregates.svg", composition.size_aggregates)

        best_ensemble = board_ensembles.rows[0]
        comparison = compare_best(sorted(actuals), best.producer, smapes[best.producer],
                                  best_ensemble.producer, smapes[best_ensemble.producer])
        pqio.write_comparison_csv(out / "comparison.csv", comparison)
        pqio.write_ecdf_csv(out / "ecdf.csv", comparison)
        pqreport.render_comparison_svg(out / "fig_comparison.svg", comparison)
        print(f"  best ensemble: {best_ensemble.producer} "
              f"(mean sMAPE {best_ensemble.mean_smape:.2f} %, BR {best_ensemble.benchmark_ratio:.3f})")
        print(f"  ensemble wins on {100 * comparison.win_fraction:.1f} % of series; "
              f"median improvement when winning "
              f"{100 * comparison.median_improvement_when_winning:.1f} %")

    pqio.write_manifest(out / "manifest.jsonl", manifest)
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

    p = stage("synth", "generate a synthetic corpus", cmd_synth)
    p.add_argument("--seed", type=int, default=0, help="seed for synthetic generation")
    p.add_argument("--n-series", type=int, required=True)
    p.add_argument("--length-weeks", type=int, default=TRAIN_WEEKS + TEST_WEEKS)
    p.add_argument("--mode", choices=("weekly", "raw"), default="weekly")
    p.add_argument("--missing-rate", type=float, default=0.0)

    p = stage("preprocess", "raw 10-minute CSV to weekly utilization CSV", cmd_preprocess)
    p.add_argument("--raw", nargs="+", required=True, help="raw measurement CSV file(s)")
    p.add_argument("--planning-levels", required=True, help="planning level INI file")

    p = stage("forecast", "fit models and emit 52-step forecasts", cmd_forecast)
    p.add_argument("--jobs", type=int, default=1, help="parallel worker processes")
    p.add_argument("--weekly", required=True, help="weekly series CSV")

    p = stage("ensemble", "combine model forecasts into ensembles", cmd_ensemble)
    p.add_argument("--forecasts", required=True, help="individual model forecast CSV")
    p.add_argument("--leaderboard", required=True,
                   help="individual leaderboard CSV supplying the weighted methods' weights")

    p = stage("evaluate", "score forecasts and emit leaderboards, analyses and figures", cmd_evaluate)
    p.add_argument("--forecasts", nargs="+", required=True, help="forecast CSV file(s)")
    p.add_argument("--weekly", required=True, help="weekly series CSV with the actuals")

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except Exception:  # noqa: BLE001 - last-resort mapping to exit code
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
