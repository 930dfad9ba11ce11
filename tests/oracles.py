"""Slow, structurally independent least-squares oracles for the tests.

``oracle_ols`` solves the normal equations by explicit Gaussian
elimination; ``oracle_nnls`` enumerates every sign pattern. Neither shares
code with the QR reduction or the Lawson-Hanson loop of ``chartflow.solver``,
so agreement between them is evidence for both.
"""

from __future__ import annotations

import numpy as np

from chartflow.errors import ChartFlowError, DimensionError, SingularMatrixError
from chartflow.solver import Coefficients, _training_rmse, _validated


def oracle_ols(x, y) -> Coefficients:
    """Normal-equations oracle: explicit Gaussian elimination, <= 12 columns.

    Independent of the production QR path; for testing only.
    """
    x, y = _validated(x, y)
    k = x.shape[1]
    if k > 12:
        raise DimensionError(f"oracle_ols handles at most 12 columns, got {k}")
    a = x.T @ x
    b = x.T @ y
    beta = _gaussian_solve(a, b)
    return Coefficients(
        values=beta, variant="ols", training_rmse=_training_rmse(x, y, beta)
    )


def _gaussian_solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Solve a small dense symmetric system with partial pivoting."""
    a = a.copy()
    b = b.copy()
    k = a.shape[0]
    tol = 1e-12 * max(1.0, float(np.abs(a).max()))
    for col in range(k):
        pivot_row = col + int(np.argmax(np.abs(a[col:, col])))
        if abs(a[pivot_row, col]) <= tol:
            raise SingularMatrixError("normal matrix is numerically singular")
        if pivot_row != col:
            a[[col, pivot_row]] = a[[pivot_row, col]]
            b[[col, pivot_row]] = b[[pivot_row, col]]
        for row in range(col + 1, k):
            factor = a[row, col] / a[col, col]
            a[row, col:] -= factor * a[col, col:]
            b[row] -= factor * b[col]
    beta = np.zeros(k)
    for col in range(k - 1, -1, -1):
        beta[col] = (b[col] - a[col, col + 1 :] @ beta[col + 1 :]) / a[col, col]
    return beta


def oracle_nnls(x, y) -> Coefficients:
    """Exhaustive NNLS oracle: try every zero pattern, <= 10 columns.

    Solves the reduced unconstrained problem for each subset of columns
    pinned to zero, keeps the feasible candidates, and returns the one with
    the smallest residual. For testing only.
    """
    x, y = _validated(x, y)
    k = x.shape[1]
    if k > 10:
        raise DimensionError(f"oracle_nnls handles at most 10 columns, got {k}")
    best_beta: np.ndarray | None = None
    best_residual = np.inf
    for pattern in range(2**k):
        free = np.array([(pattern >> i) & 1 == 1 for i in range(k)])
        beta = np.zeros(k)
        if free.any():
            try:
                reduced = oracle_ols(x[:, free], y)
            except SingularMatrixError:
                continue
            if reduced.values.min() < -1e-12:
                continue
            beta[free] = np.maximum(reduced.values, 0.0)
        residual = float(np.linalg.norm(x @ beta - y))
        if residual < best_residual - 1e-15:
            best_residual = residual
            best_beta = beta
    if best_beta is None:
        raise ChartFlowError("no feasible zero pattern found")
    return Coefficients(
        values=best_beta,
        variant="nnls",
        training_rmse=_training_rmse(x, y, best_beta),
    )
