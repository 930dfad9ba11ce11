"""Slow, structurally independent oracles for the tests.

``oracle_ols`` solves the normal equations by explicit Gaussian
elimination; ``oracle_nnls`` enumerates every sign pattern. Neither shares
code with the Gram/QR reduction or the Lawson-Hanson loop of
``chartflow.solver``, so agreement between them is evidence for both.
``build_design_by_columns`` assembles a design one column at a time from
per-(week, city) dense rows, the way ``chartflow.design.build_design`` did
before it gathered each week's block at once. The ``oracle_*`` preprocessing
functions build the per-week matrices with ``scipy.sparse``, the way
``chartflow.preprocess`` did before it kept them as plain numpy arrays, and
``oracle_filter_by_tag`` rebuilds a corpus of the tagged records, the way
the ``pre`` filter stage did before it sliced the weekly matrices.
``oracle_chart_top`` picks each synthetic chart with a stable sort of every
whole row, and ``oracle_chart_csv`` renders the canonical CSV row by row
with f-strings: both are how ``chartflow`` did it before it partitioned the
rows and laid the CSV out as byte matrices.
"""

from __future__ import annotations

from datetime import timedelta

import numpy as np
from scipy import sparse

from chartflow.chart_store import (
    CHART_HEADER,
    ChartSeries,
    _csv_fields,
)
from chartflow.design import ACTIVE_TARGET, LabeledDesign, LagConfig
from chartflow.errors import ChartFlowError, DimensionError, SingularMatrixError
from chartflow.preprocess import VelocitySeries
from chartflow.solver import Coefficients, _validated


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
    return Coefficients(values=beta)


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
    return Coefficients(values=best_beta)


def _dense_row(matrix, row: int, width: int) -> np.ndarray:
    out = np.zeros(width)
    start, end = matrix.indptr[row], matrix.indptr[row + 1]
    out[matrix.indices[start:end]] = matrix.data[start:end]
    return out


def build_design_by_columns(
    velocities: VelocitySeries,
    target_city: str,
    config: LagConfig,
    active_rule: str = ACTIVE_TARGET,
) -> LabeledDesign:
    """Per-column design assembly; valid input only, for testing only."""
    cities = velocities.cities
    col_meta = config.columns()
    city_row = {c: i for i, c in enumerate(cities)}
    target_row = city_row[target_city]
    week_of = {w: i for i, w in enumerate(velocities.weeks)}
    n_artists = len(velocities.artists)
    defined = velocities.defined

    eligible: list[tuple[int, list[int]]] = []
    for i, week in enumerate(velocities.weeks):
        if not defined[i, target_row]:
            continue
        lag_idx = []
        for lag in range(1, config.lag_count + 1):
            j = week_of.get(week - timedelta(days=7 * lag))
            if j is None or not defined[j, target_row]:
                break
            lag_idx.append(j)
        if len(lag_idx) == config.lag_count:
            eligible.append((i, lag_idx))

    row_cache: dict[tuple[int, int], np.ndarray] = {}

    def dense(week_idx: int, row: int) -> np.ndarray:
        key = (week_idx, row)
        if key not in row_cache:
            row_cache[key] = _dense_row(
                velocities.matrices[week_idx], row, n_artists
            )
        return row_cache[key]

    included_rows = [city_row[c] for c in dict.fromkeys(c for c, _ in col_meta)]
    x_blocks: list[np.ndarray] = []
    y_parts: list[np.ndarray] = []
    week_parts: list[np.ndarray] = []
    artist_parts: list[np.ndarray] = []
    for i, lag_idx in eligible:
        if active_rule == ACTIVE_TARGET:
            matrix = velocities.matrices[i]
            start, end = matrix.indptr[target_row], matrix.indptr[target_row + 1]
            active = matrix.indices[start:end]
        else:
            mask = np.zeros(n_artists, dtype=bool)
            for j in [i, *lag_idx]:
                matrix = velocities.matrices[j]
                for r in included_rows:
                    mask[matrix.indices[matrix.indptr[r] : matrix.indptr[r + 1]]] = True
            active = np.flatnonzero(mask)
        if active.size == 0:
            continue
        block = np.zeros((active.size, len(col_meta)))
        for col, (city, lag) in enumerate(col_meta):
            block[:, col] = dense(lag_idx[lag - 1], city_row[city])[active]
        x_blocks.append(block)
        y_parts.append(dense(i, target_row)[active])
        week_parts.append(np.full(active.size, i, dtype=np.int32))
        artist_parts.append(active.astype(np.int32))

    if x_blocks:
        x = np.vstack(x_blocks)
        y = np.concatenate(y_parts)
        week_idx = np.concatenate(week_parts)
        artist_idx = np.concatenate(artist_parts)
    else:
        x = np.zeros((0, len(col_meta)))
        y = np.zeros(0)
        week_idx = artist_idx = np.zeros(0, dtype=np.int32)
    return LabeledDesign(
        x=x,
        y=y,
        week_idx=week_idx,
        artist_idx=artist_idx,
        weeks=velocities.weeks,
        artists=velocities.artists,
        col_meta=col_meta,
    )


def oracle_listeners_matrices(
    series: ChartSeries, artists: tuple[str, ...]
) -> list[sparse.csr_matrix]:
    """One ``scipy.sparse`` float64 CSR counts matrix per week, built from
    COO, with column ``j`` for ``artists[j]``."""
    shape = (len(series.cities), len(artists))
    column_of = {a: i for i, a in enumerate(artists)}
    column = np.array([column_of[a] for a in series.artists], dtype=np.int32)
    cols = column[series.artist_idx]
    data = series.listeners.astype(np.float64)
    return [
        sparse.csr_matrix(
            (data[rows], (series.city_idx[rows], cols[rows])),
            shape=shape,
            dtype=np.float64,
        )
        for _, rows in series.week_slices()
    ]


def oracle_normalize_rows(matrix: sparse.csr_matrix) -> sparse.csr_matrix:
    """Unit rows through ``scipy.sparse`` arithmetic."""
    m = matrix.astype(np.float64).tocsr(copy=True)
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    m.data *= np.repeat(inv, np.diff(m.indptr))
    return m


def oracle_compute_velocities(
    weeks, normalized, cities, artists
) -> VelocitySeries:
    """Week-by-week dense differences of adjacent unit rows, stored on the
    ``scipy.sparse`` sum of the two weeks' stored-entry patterns."""
    present = np.array(
        [np.diff(m.indptr) > 0 for m in normalized], dtype=bool
    )
    matrices, defined_rows = [], []
    for i in range(1, len(normalized)):
        if (weeks[i] - weeks[i - 1]).days == 7:
            defined = present[i] & present[i - 1]
        else:
            defined = np.zeros(len(cities), dtype=bool)
        later, earlier = normalized[i], normalized[i - 1]
        # Ones on each stored entry, so the sum keeps stored zeros too.
        pattern = (_ones(later) + _ones(earlier)).tocsr()
        rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
        diff = (later.toarray() - earlier.toarray())[rows, pattern.indices]
        pattern.data = np.where(defined[rows], diff, 0.0)
        matrices.append(pattern)
        defined_rows.append(defined)
    return VelocitySeries(
        weeks=tuple(weeks[1:]),
        matrices=tuple(matrices),
        defined=np.array(defined_rows, dtype=bool),
        cities=tuple(cities),
        artists=tuple(artists),
    )


def _ones(m) -> sparse.csr_matrix:
    return sparse.csr_matrix(
        (np.ones(m.nnz), m.indices, m.indptr), shape=m.shape
    )


def oracle_restrict_artists(normalized, artists, artist_subset):
    """Column-slice ``scipy.sparse`` unit rows over ``artists`` to an artist
    subset."""
    keep = [i for i, a in enumerate(artists) if a in artist_subset]
    sliced = [m[:, keep].tocsr() for m in normalized]
    return sliced, tuple(artists[i] for i in keep)


def oracle_filter_by_tag(series: ChartSeries, tagged_artists) -> ChartSeries:
    """The corpus of the records whose artist is tagged, rebuilt through
    ``ChartSeries.from_columns``: weeks, cities and artists left without a
    record drop out."""
    tagged = np.array([a in tagged_artists for a in series.artists], dtype=bool)
    keep = tagged[series.artist_idx]
    return ChartSeries.from_columns(
        series.weeks,
        series.cities,
        series.artists,
        series.week_idx[keep],
        series.city_idx[keep],
        series.artist_idx[keep],
        series.listeners[keep],
    )


def oracle_chart_top(counts: np.ndarray, width: int) -> np.ndarray:
    """Each row's top ``width`` columns, by count descending and column
    index on ties, as ascending column indices: a stable sort of each row."""
    return np.sort(np.argsort(-counts, axis=1, kind="stable")[:, :width], axis=1)


def oracle_chart_csv(series: ChartSeries) -> bytes:
    """The canonical CSV, joined row by row with f-strings, week by week."""
    cities = _csv_fields(series.cities)
    artists = _csv_fields(series.artists)
    parts = [",".join(CHART_HEADER) + "\n"]
    for week, rows in series.week_slices():
        prefix = week.isoformat() + ","
        parts.extend(
            f"{prefix}{cities[c]},{artists[a]},{n}\n"
            for c, a, n in zip(
                series.city_idx[rows].tolist(),
                series.artist_idx[rows].tolist(),
                series.listeners[rows].tolist(),
            )
        )
    return "".join(parts).encode("utf-8")
