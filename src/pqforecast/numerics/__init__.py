"""Numerical kernels shared by the forecasting models."""

from .criteria import aicc, gaussian_loglik
from .diffops import difference, integrate_forecast
from .linreg import least_squares
from .loess import loess_window
from .optimize import OptimizerResult, nelder_mead
from .stl import Decomposition, stl_decompose

__all__ = [
    "aicc",
    "gaussian_loglik",
    "difference",
    "integrate_forecast",
    "least_squares",
    "loess_window",
    "OptimizerResult",
    "nelder_mead",
    "Decomposition",
    "stl_decompose",
]
