"""Least-squares fitting: unconstrained, non-negative, and test oracles.

The production paths are ``fit_ols`` (minimum-norm solution via
column-pivoted rank-revealing QR, LAPACK *gelsy*) and ``fit_nnls``
(Lawson-Hanson active set). Neither solves on the n x k design itself:
``[X | y]`` is first folded, ``REDUCE_BLOCK_ROWS`` rows at a time, into the
upper-triangular factor ``[R | Q^T y]`` of its QR decomposition (streaming
TSQR). Because ``||X b - y||^2 = ||R b - Q^T y||^2 + const``, both problems
have the same solution set, and the solvers then work on at most k + 1 rows.
``oracle_ols`` and ``oracle_nnls`` are slow, structurally independent
reimplementations kept for cross-checking: the first solves the normal
equations by explicit Gaussian elimination, the second enumerates every
sign pattern.
"""

from __future__ import annotations

import csv
import io
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.linalg

from .errors import (
    ChartFlowError,
    ConvergenceError,
    DimensionError,
    NonFiniteError,
    SingularMatrixError,
)

# Relative cutoff under which pivots / singular values count as zero rank.
RANK_TOL = 1e-10
# Absolute tolerance on the dual vector for NNLS termination.
DUAL_TOL = 1e-10
# Rows of [X | y] stacked under the running triangle per QR step.
REDUCE_BLOCK_ROWS = 1024


@dataclass(frozen=True)
class Coefficients:
    """A fitted coefficient vector plus fit diagnostics."""

    values: np.ndarray
    variant: str  # "ols" or "nnls"
    training_rmse: float
    iterations: int = 0
    rank_deficient: bool = False

    def __len__(self) -> int:
        return len(self.values)


def _validated(x, y) -> tuple[np.ndarray, np.ndarray]:
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"x must be 2-D, got shape {x.shape}")
    if y.ndim != 1:
        raise DimensionError(f"y must be 1-D, got shape {y.shape}")
    if x.shape[0] == 0 or x.shape[1] == 0:
        raise DimensionError(f"x must be non-empty, got shape {x.shape}")
    if x.shape[0] != y.shape[0]:
        raise DimensionError(
            f"row mismatch: x has {x.shape[0]} rows, y has {y.shape[0]}"
        )
    if not np.isfinite(x).all() or not np.isfinite(y).all():
        raise NonFiniteError("non-finite entries in x or y")
    return x, y


def _reduce(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold ``[x | y]`` into its triangular QR factor, block by block.

    Returns ``(r, qty)`` with at most k + 1 rows such that
    ``||x b - y|| == ||r b - qty||`` for every b. Only one block of rows is
    copied at a time, never the whole design.
    """
    k = x.shape[1]
    r = np.empty((0, k + 1))
    for start in range(0, x.shape[0], REDUCE_BLOCK_ROWS):
        stop = start + REDUCE_BLOCK_ROWS
        block = np.column_stack([x[start:stop], y[start:stop]])
        r = np.linalg.qr(np.vstack([r, block]), mode="r")
    return r[:, :k], r[:, k]


@contextmanager
def _lapack_failures_as_singular():
    try:
        yield
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"linear algebra failure: {exc}") from exc


def _training_rmse(x: np.ndarray, y: np.ndarray, beta: np.ndarray) -> float:
    residual = x @ beta - y
    return float(np.sqrt(np.mean(residual**2)))


def fit_ols(x, y, ridge: float = 0.0) -> Coefficients:
    """Minimum-norm least-squares fit.

    Rank is revealed by column-pivoted QR with relative cutoff ``RANK_TOL``;
    a deficient system still returns the minimum-norm solution but is
    flagged. ``ridge > 0`` solves the Tikhonov-augmented system instead (and
    is always full rank).
    """
    x, y = _validated(x, y)
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    n_cols = x.shape[1]
    with _lapack_failures_as_singular():
        r, qty = _reduce(x, y)
        if ridge > 0:
            r = np.vstack([r, np.sqrt(ridge) * np.eye(n_cols)])
            qty = np.concatenate([qty, np.zeros(n_cols)])
        beta, _, rank, _ = scipy.linalg.lstsq(
            r, qty, cond=RANK_TOL, lapack_driver="gelsy"
        )
    return Coefficients(
        values=beta,
        variant="ols",
        training_rmse=_training_rmse(x, y, beta),
        rank_deficient=bool(rank < n_cols) if ridge == 0 else False,
    )


def fit_nnls(x, y, max_iter: int | None = None) -> Coefficients:
    """Lawson-Hanson active-set solve of min ||x b - y|| s.t. b >= 0.

    Terminates when the zero set is empty or its largest dual component is
    at most ``DUAL_TOL``. Constrained coefficients are exact zeros. The
    iteration cap defaults to ``max(10 * n_cols, 100)``.
    """
    x, y = _validated(x, y)
    cap = max(10 * x.shape[1], 100) if max_iter is None else max_iter
    with _lapack_failures_as_singular():
        r, qty = _reduce(x, y)
        beta, iterations = _lawson_hanson(r, qty, cap, x.shape)
    return Coefficients(
        values=beta,
        variant="nnls",
        training_rmse=_training_rmse(x, y, beta),
        iterations=iterations,
    )


def _lawson_hanson(
    x: np.ndarray, y: np.ndarray, cap: int, shape: tuple[int, int]
) -> tuple[np.ndarray, int]:
    """The active-set loop of ``fit_nnls``; ``shape`` names the system in errors."""
    n_cols = x.shape[1]
    beta = np.zeros(n_cols)
    free = np.zeros(n_cols, dtype=bool)  # the positive (passive) set
    w = x.T @ y  # dual vector: -gradient at beta = 0
    iterations = 0
    while True:
        zero_set = ~free
        if not zero_set.any():
            break
        w_zero = np.where(zero_set, w, -np.inf)
        j = int(np.argmax(w_zero))
        if w_zero[j] <= DUAL_TOL:
            break
        free[j] = True
        while True:
            iterations += 1
            if iterations > cap:
                raise ConvergenceError(
                    f"NNLS exceeded {cap} iterations on a "
                    f"{shape[0]}x{shape[1]} system"
                )
            trial = np.zeros(n_cols)
            trial[free], _, _, _ = np.linalg.lstsq(x[:, free], y, rcond=None)
            if trial[free].min() > 0:
                beta = trial
                break
            # Step from beta toward the trial until the first coefficient
            # hits zero, then clamp the blockers out of the free set exactly.
            # A zero denominator means beta and trial are both at the bound;
            # the step ratio is 0 and the variable drops out immediately.
            blocking = free & (trial <= 0)
            ratios = np.full(n_cols, np.inf)
            denom = beta[blocking] - trial[blocking]
            ratios[blocking] = np.divide(
                beta[blocking],
                denom,
                out=np.zeros_like(denom),
                where=denom > 0,
            )
            alpha = float(ratios.min())
            beta = beta + alpha * (trial - beta)
            free[ratios <= alpha] = False
            free[free & (beta <= 0.0)] = False
            beta[~free] = 0.0
        w = x.T @ (y - x @ beta)
    return np.where(free, beta, 0.0), iterations


def predict(x, coefficients: Coefficients) -> np.ndarray:
    """Apply a fitted coefficient vector: returns ``x @ beta``."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2:
        raise DimensionError(f"x must be 2-D, got shape {x.shape}")
    if x.shape[1] != len(coefficients.values):
        raise DimensionError(
            f"x has {x.shape[1]} columns, coefficients have "
            f"{len(coefficients.values)}"
        )
    return x @ coefficients.values


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


def coefficients_csv_text(
    coefficients: Coefficients, col_meta: Sequence[tuple[str, int]]
) -> str:
    """Serialize a coefficient vector as ``city,lag,value`` CSV."""
    if len(col_meta) != len(coefficients.values):
        raise DimensionError(
            f"{len(col_meta)} column labels for "
            f"{len(coefficients.values)} coefficients"
        )
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("city", "lag", "value"))
    for (city, lag), value in zip(col_meta, coefficients.values):
        writer.writerow((city, lag, repr(float(value))))
    return buffer.getvalue()
