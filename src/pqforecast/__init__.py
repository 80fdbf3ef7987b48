"""Weekly power-quality utilization forecasting toolkit.

Preprocesses 10-minute measurements into weekly utilization series, fits
eight classical forecasting models, combines them into all 247 ensemble
configurations under four combination rules, and evaluates everything
with rank-based corpus statistics.
"""

__version__ = "0.1.0"

from .ensembles import CombinationMethod, EnsembleId, combine, compute_weights, enumerate_ensembles
from .errors import ConfigError, DataError, PQForecastError
from .evaluation import Leaderboard, benchmark_ratio, evaluate_corpus, mae, smape
from .models import FitConfig, Forecast, ModelId, PUBLIC_MODELS, fit_predict
from .weekly import (
    PlanningLevel,
    RawSeries,
    Rejection,
    WeeklySeries,
    aggregate_weekly,
    fill_gaps,
    normalize,
    split_train_test,
)

__all__ = [
    "__version__",
    "CombinationMethod",
    "EnsembleId",
    "combine",
    "compute_weights",
    "enumerate_ensembles",
    "ConfigError",
    "DataError",
    "PQForecastError",
    "Leaderboard",
    "benchmark_ratio",
    "evaluate_corpus",
    "mae",
    "smape",
    "FitConfig",
    "Forecast",
    "ModelId",
    "PUBLIC_MODELS",
    "fit_predict",
    "PlanningLevel",
    "RawSeries",
    "Rejection",
    "WeeklySeries",
    "aggregate_weekly",
    "fill_gaps",
    "normalize",
    "split_train_test",
]
