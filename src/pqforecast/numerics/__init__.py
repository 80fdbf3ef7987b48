"""Numerical kernels shared by the forecasting models."""

from .criteria import aicc, gaussian_loglik
from .diffops import difference, integrate_forecast
from .linreg import least_squares
from .loess import loess_window, tricube
from .optimize import OptimizerResult, nelder_mead
from .stl import Decomposition, STLConfig, stl_decompose

__all__ = [
    "aicc",
    "gaussian_loglik",
    "difference",
    "integrate_forecast",
    "least_squares",
    "loess_window",
    "tricube",
    "OptimizerResult",
    "nelder_mead",
    "Decomposition",
    "STLConfig",
    "stl_decompose",
]
