"""Per-week sparse matrices: listener counts, unit-norm rows, velocities.

Each week of a corpus becomes a city x artist matrix of listener counts.
Rows are scaled to unit Euclidean norm so cities compare by listening
proportions rather than audience size, and the week-over-week difference of
those unit rows is the city's velocity through artist space. A velocity row
exists only where the city charts in two consecutive (7-day) weeks; gaps and
absences yield flagged-undefined rows, never imputed values.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from datetime import date
from typing import Sequence

import numpy as np
from scipy import sparse

from .chart_store import ArtistIndex, ChartSeries, build_artist_index
from .errors import InsufficientDataError

# Weekly charts list at most this many artists per city; more non-zeros in a
# row means the corpus was not produced by chart truncation.
CHART_ROW_LIMIT = 500


@dataclass(frozen=True)
class ListenersMatrix:
    """Raw listener counts for one week (rows: cities, columns: artists)."""

    week_start: date
    entries: sparse.csr_matrix


@dataclass(frozen=True)
class NormalizedMatrix:
    """One week's counts with every non-empty city row scaled to unit norm."""

    week_start: date
    entries: sparse.csr_matrix


@dataclass(frozen=True)
class VelocitySeries:
    """Week-over-week changes of the normalized rows.

    ``matrices[i]`` holds the change from ``weeks[i] - 7 days`` to
    ``weeks[i]``. ``defined[i, c]`` marks whether city ``c`` has a valid
    velocity row there (non-empty at both endpoints, exactly 7 days apart);
    undefined rows are stored as all zeros. ``support[i]`` is the boolean
    union of the two endpoint charts, i.e. which artists the city listed at
    either endpoint week.
    """

    weeks: tuple[date, ...]
    matrices: tuple[sparse.csr_matrix, ...]
    defined: np.ndarray
    support: tuple[sparse.csr_matrix, ...]
    cities: tuple[str, ...]
    artists: tuple[str, ...]

    @property
    def n_weeks(self) -> int:
        return len(self.weeks)

    def week_index(self) -> dict[date, int]:
        return {w: i for i, w in enumerate(self.weeks)}


def to_listeners_matrices(
    series: ChartSeries, index: ArtistIndex
) -> list[ListenersMatrix]:
    """One sparse counts matrix per distinct week of the corpus."""
    shape = (len(series.cities), index.size)
    column = np.array(
        [index.column_of(a) for a in series.artists], dtype=np.int32
    )
    cols = column[series.artist_idx]
    data = series.listeners.astype(np.float64)
    matrices: list[ListenersMatrix] = []
    for week, rows in series.week_slices():
        mat = sparse.csr_matrix(
            (data[rows], (series.city_idx[rows], cols[rows])),
            shape=shape,
            dtype=np.float64,
        )
        row_nnz = np.diff(mat.indptr)
        if np.any(row_nnz > CHART_ROW_LIMIT):
            worst = int(row_nnz.max())
            warnings.warn(
                f"week {week}: a city row has {worst} non-zeros, above the "
                f"top-{CHART_ROW_LIMIT} chart limit",
                stacklevel=2,
            )
        matrices.append(ListenersMatrix(week, mat))
    return matrices


def normalize_rows(matrix: ListenersMatrix) -> NormalizedMatrix:
    """Scale every non-empty row to unit Euclidean norm."""
    m = matrix.entries.astype(np.float64).tocsr(copy=True)
    norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    m.data *= np.repeat(inv, np.diff(m.indptr))
    return NormalizedMatrix(matrix.week_start, m)


def compute_velocities(
    normalized: Sequence[NormalizedMatrix],
    cities: Sequence[str],
    artists: Sequence[str],
) -> VelocitySeries:
    """Difference consecutive normalized matrices into a velocity series.

    Produces one matrix per adjacent pair of input weeks. A city's row is
    defined only when both endpoint rows are non-empty and the pair is
    exactly 7 days apart; everything else is zeroed and flagged undefined.
    """
    if len(normalized) < 2:
        raise InsufficientDataError(
            f"need at least 2 weeks to compute velocities, got {len(normalized)}"
        )
    week_dates = [m.week_start for m in normalized]
    if any(b <= a for a, b in zip(week_dates, week_dates[1:])):
        raise ValueError("normalized matrices must be ordered by week_start")

    present = np.array(
        [np.diff(m.entries.indptr) > 0 for m in normalized], dtype=bool
    )
    weeks: list[date] = []
    matrices: list[sparse.csr_matrix] = []
    defined_rows: list[np.ndarray] = []
    supports: list[sparse.csr_matrix] = []
    for i in range(1, len(normalized)):
        gap = (week_dates[i] - week_dates[i - 1]).days
        consecutive = gap == 7
        defined = (
            present[i] & present[i - 1]
            if consecutive
            else np.zeros(len(cities), dtype=bool)
        )
        vel = (normalized[i].entries - normalized[i - 1].entries).tocsr()
        if not defined.all():
            vel.data *= np.repeat(
                defined.astype(np.float64), np.diff(vel.indptr)
            )
        vel.eliminate_zeros()
        support = (
            normalized[i].entries.astype(bool)
            + normalized[i - 1].entries.astype(bool)
        ).tocsr()
        weeks.append(week_dates[i])
        matrices.append(vel)
        defined_rows.append(defined)
        supports.append(support)
    return VelocitySeries(
        weeks=tuple(weeks),
        matrices=tuple(matrices),
        defined=np.array(defined_rows, dtype=bool),
        support=tuple(supports),
        cities=tuple(cities),
        artists=tuple(artists),
    )


def build_velocities(
    series: ChartSeries, index: ArtistIndex | None = None
) -> VelocitySeries:
    """Convenience pipeline: corpus -> counts -> unit rows -> velocities."""
    if index is None:
        index = build_artist_index(series)
    listeners = to_listeners_matrices(series, index)
    normalized = [normalize_rows(m) for m in listeners]
    return compute_velocities(normalized, series.cities, index.artists)


def restrict_artists(
    normalized: Sequence[NormalizedMatrix],
    index: ArtistIndex,
    artist_subset: set[str],
) -> tuple[list[NormalizedMatrix], tuple[str, ...]]:
    """Column-slice normalized matrices to an artist subset.

    Used for post-normalization genre filtering: row norms are taken over the
    full corpus first, then attention narrows to the tagged columns (rows are
    deliberately not re-normalized).
    """
    keep = [i for i, a in enumerate(index.artists) if a in artist_subset]
    kept_artists = tuple(index.artists[i] for i in keep)
    sliced = [
        NormalizedMatrix(m.week_start, m.entries[:, keep].tocsr())
        for m in normalized
    ]
    return sliced, kept_artists


def week_gaps(weeks: Sequence[date]) -> list[tuple[date, date, int]]:
    """Adjacent week pairs more than 7 days apart, with the gap in days."""
    gaps = []
    for a, b in zip(weeks, weeks[1:]):
        days = (b - a).days
        if days != 7:
            gaps.append((a, b, days))
    return gaps

