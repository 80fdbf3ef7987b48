"""Linear least squares with a per-column ridge penalty."""

from __future__ import annotations

import numpy as np

from ..errors import DataError


def least_squares(X: np.ndarray, y: np.ndarray, ridge: np.ndarray) -> np.ndarray:
    """Solve min ||y - X b||^2 + ||sqrt(ridge) * b||^2 by ``lstsq`` on an augmented system.

    ``ridge`` is a per-column vector; zero entries leave those coefficients
    unpenalized, and add no row to the system. A rank-deficient system (by
    ``lstsq``'s rank) is an error rather than a silent minimum-norm solution.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if X.ndim != 2:
        raise DataError("least_squares: X must be a matrix")
    n, k = X.shape
    if len(y) != n:
        raise DataError(f"least_squares: {n} rows in X but {len(y)} targets")
    ridge = np.asarray(ridge, dtype=float)
    if ridge.shape != (k,) or np.any(ridge < 0):
        raise DataError("least_squares: ridge must be a nonnegative per-column vector")

    penalized = np.nonzero(ridge > 0)[0]
    extra = np.zeros((len(penalized), k))
    extra[np.arange(len(penalized)), penalized] = np.sqrt(ridge[penalized])
    A = np.vstack([X, extra])
    b = np.concatenate([y, np.zeros(len(penalized))])
    beta, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < k:
        raise DataError("least_squares: singular system")
    return beta
