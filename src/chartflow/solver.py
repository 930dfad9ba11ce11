"""Least-squares fitting: unconstrained and non-negative.

The two paths are ``fit_ols`` (minimum-norm solution via the SVD,
``np.linalg.lstsq``) and ``fit_nnls`` (Lawson-Hanson active
set). Neither solves on the n x k design itself: ``[X | y]`` is first
reduced to the (k + 1) x (k + 1) upper triangle ``[R | Q^T y]`` of its QR
decomposition. Because ``||X b - y||^2 = ||R b - Q^T y||^2 + const``, both
problems have the same solution set, and the solvers then work on at most
k + 1 rows. The triangle is normally the Cholesky factor of the augmented
Gram matrix ``[X | y]^T [X | y]`` (one pass of matrix products over X, as
in FNNLS). A system whose Gram matrix is not positive definite, or whose R
has a condition number above ``MAX_GRAM_COND``, is folded by streaming QR
instead, ``REDUCE_BLOCK_ROWS`` rows at a time; that path alone sees
rank-deficient systems, so the SVD's rank flag is taken on an accurate R.

Each inner step of the Lawson-Hanson loop solves least squares on the free
columns of R. On a Cholesky-path triangle it solves the normal equations
``G[F, F] b = h[F]`` of ``G = R^T R`` and ``h = R^T Q^T y``, formed once
per fit, and takes the dual as ``h - G b`` (FNNLS, Bro and de Jong 1997):
``cond(G[F, F]) <= MAX_GRAM_COND**2``, so the squaring stays bounded. A
triangle from the QR fold, which may be wide, duplicate-column or nearly
so, keeps the SVD step ``lstsq(R[:, F], Q^T y)``.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceError,
    DimensionError,
    GramOverflowError,
    NonFiniteError,
    SingularMatrixError,
)

# Relative cutoff under which singular values count as zero rank.
RANK_TOL = 1e-10
# Absolute tolerance on the dual vector for NNLS termination.
DUAL_TOL = 1e-10
# Rows of [X | y] stacked under the running triangle per QR step.
REDUCE_BLOCK_ROWS = 1024
# Largest cond(R) accepted from the Cholesky fold. The Gram matrix has
# condition cond(R)**2, so eps * MAX_GRAM_COND**2 ~ 2e-10 bounds the
# relative error the squaring can add; worse systems take the QR fold.
MAX_GRAM_COND = 1e3


@dataclass(frozen=True)
class Coefficients:
    """A fitted coefficient vector plus fit diagnostics: the NNLS
    iteration count and the OLS rank flag."""

    values: np.ndarray
    iterations: int = 0
    rank_deficient: bool = False


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
    return x, y


def _gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """The augmented Gram matrix ``[x | y]^T [x | y]``; NonFiniteError when
    x or y holds a NaN or an infinity.

    Such an entry makes its column's diagonal entry, a sum of squares,
    non-finite, so the entrywise test (an n x k mask) runs only when the
    (k + 1) x (k + 1) matrix is not finite. When that test finds every entry
    finite, the products overflowed, through x or through y alone, and
    GramOverflowError is raised: no fit can be read from such a matrix.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gram = _augmented_gram(x, y)
    if np.isfinite(gram).all():
        return gram
    if not np.isfinite(x).all() or not np.isfinite(y).all():
        raise NonFiniteError("non-finite entries in x or y")
    raise GramOverflowError(
        f"the Gram matrix of a finite {x.shape[0]}x{x.shape[1]} system "
        "overflows float64"
    )


def _augmented_gram(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    k = x.shape[1]
    gram = np.empty((k + 1, k + 1))
    gram[:k, :k] = x.T @ x
    gram[:k, k] = gram[k, :k] = x.T @ y
    gram[k, k] = y @ y
    return gram


def _reduce(
    x: np.ndarray, y: np.ndarray, gram: np.ndarray
) -> tuple[np.ndarray, np.ndarray, bool]:
    """Fold ``[x | y]`` into a (k + 1) x (k + 1) upper triangle ``[r | qty]``.

    Returns ``(r, qty, cholesky)`` such that ``||x b - y|| == ||r b - qty||``
    for every b. The triangle is the upper Cholesky factor of the augmented
    Gram matrix ``[x | y]^T [x | y]`` (``gram``, formed by ``_gram``), which
    equals the R factor of the QR decomposition of ``[x | y]`` up to row
    signs. Forming the Gram matrix squares the condition number, so when
    Cholesky fails or ``cond(r)`` exceeds ``MAX_GRAM_COND`` the QR fold of
    ``_qr_fold`` is used instead; only that path sees rank-deficient or
    ill-conditioned systems. ``cholesky`` says which path gave the triangle.
    """
    k = x.shape[1]
    try:
        factor = np.linalg.cholesky(gram, upper=True)
    except np.linalg.LinAlgError:
        return *_qr_fold(x, y), False
    singular = np.linalg.svd(factor[:k, :k], compute_uv=False)
    if not singular[0] <= MAX_GRAM_COND * singular[-1]:
        return *_qr_fold(x, y), False
    return factor[:, :k], factor[:, k], True


def _qr_fold(x: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fold ``[x | y]`` into its triangular QR factor, block by block.

    The same contract as ``_reduce``, with at most k + 1 rows. Only one
    block of rows is copied at a time, never the whole design.
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


def fit_ols(x, y, ridge: float = 0.0) -> Coefficients:
    """Minimum-norm least-squares fit.

    Rank counts the singular values above ``RANK_TOL`` times the largest;
    a deficient system still returns the minimum-norm solution but is
    flagged. ``ridge > 0`` solves the Tikhonov-augmented system instead (and
    is always full rank).
    """
    x, y = _validated(x, y)
    gram = _gram(x, y)
    if ridge < 0:
        raise ValueError(f"ridge must be >= 0, got {ridge}")
    n_cols = x.shape[1]
    with _lapack_failures_as_singular():
        r, qty, _ = _reduce(x, y, gram)
        if ridge > 0:
            r = np.vstack([r, np.sqrt(ridge) * np.eye(n_cols)])
            qty = np.concatenate([qty, np.zeros(n_cols)])
        beta, _, rank, _ = np.linalg.lstsq(r, qty, rcond=RANK_TOL)
    return Coefficients(
        values=beta,
        rank_deficient=bool(rank < n_cols) if ridge == 0 else False,
    )


def fit_nnls(x, y) -> Coefficients:
    """Lawson-Hanson active-set solve of min ||x b - y|| s.t. b >= 0.

    Terminates when the zero set is empty or its largest dual component is
    at most ``DUAL_TOL``. Constrained coefficients are exact zeros. After
    ``max(10 * n_cols, 100)`` iterations it raises ConvergenceError.
    """
    x, y = _validated(x, y)
    gram = _gram(x, y)
    cap = max(10 * x.shape[1], 100)
    with _lapack_failures_as_singular():
        r, qty, cholesky = _reduce(x, y, gram)
        beta, iterations = _lawson_hanson(r, qty, cholesky, cap, x.shape)
    return Coefficients(values=beta, iterations=iterations)


def _lawson_hanson(
    r: np.ndarray,
    qty: np.ndarray,
    cholesky: bool,
    cap: int,
    shape: tuple[int, int],
) -> tuple[np.ndarray, int]:
    """The active-set loop of ``fit_nnls`` on the triangle ``[r | qty]``.

    ``cholesky`` (from ``_reduce``) selects the step: the normal equations
    of the Gram matrix, or ``lstsq`` on the free columns of ``r``. ``shape``
    names the system in errors.
    """
    n_cols = r.shape[1]
    if cholesky:
        gram, h = r.T @ r, r.T @ qty

        def step(free):
            return np.linalg.solve(gram[np.ix_(free, free)], h[free])

        def dual(beta):
            return h - gram @ beta
    else:

        def step(free):
            return np.linalg.lstsq(r[:, free], qty, rcond=None)[0]

        def dual(beta):
            return r.T @ (qty - r @ beta)

    beta = np.zeros(n_cols)
    free = np.zeros(n_cols, dtype=bool)  # the positive (passive) set
    w = dual(beta)  # -gradient at beta = 0
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
            trial[free] = step(free)
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
        w = dual(beta)
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
