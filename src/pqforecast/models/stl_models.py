"""The training window every model of a series fits on, and its one STL
decomposition."""

from __future__ import annotations

import numpy as np

from ..numerics import Decomposition, stl_decompose
from .base import SEASONAL_PERIOD


class TrainingWindow:
    """The training values of one series. The four STL composites and
    SARIMA's seasonal-differencing choice read one STL decomposition of
    these values, computed on first use, so a series is decomposed at most
    once and a model selection without them decomposes nothing."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = np.asarray(values, dtype=float)
        self._decomposition: Decomposition | None = None

    def decomposition(self) -> Decomposition:
        """The STL split at the weekly period; ``DataError`` below two cycles."""
        if self._decomposition is None:
            self._decomposition = stl_decompose(self.values, SEASONAL_PERIOD)
        return self._decomposition
