"""Per-week sparse matrices: listener counts, unit-norm rows, velocities.

Each week of a corpus becomes a city x artist matrix of listener counts.
Rows are scaled to unit Euclidean norm so cities compare by listening
proportions rather than audience size, and the week-over-week difference of
those unit rows is the city's velocity through artist space. A velocity row
exists only where the city charts in two consecutive (7-day) weeks; gaps and
absences yield rows flagged undefined that hold 0.0, never imputed values.

The matrices are ``CsrMatrix`` records of plain numpy arrays in compressed
sparse row layout, columns ascending within each row. The corpus is already
sorted by (week, city, artist), so every week's matrix is a slice of its
columns, and each velocity matrix comes from one merge of the sorted
(city, artist) keys of two adjacent weeks and stores every key of either.

A city's velocities depend on its own rows alone, so the pipeline can build
the rows of some cities only (``build_velocities(..., cities=...)``), with
the same values and every week of the corpus; ``chartflow evaluate`` builds
just the cities it fits. A genre tag narrows the artists by slicing columns
(``build_velocities(..., artists=...)``): of the counts, so rows are
normalized over the tagged artists alone (``filter_stage="pre"``), or of
the unit rows, keeping norms over every artist (``"post"``). Either way
the weeks and cities stay the corpus's.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace
from datetime import date
from functools import cached_property
from typing import Collection, Sequence

import numpy as np

from .chart_store import ChartSeries, build_artist_index
from .errors import InsufficientDataError, UnknownCityError

# Weekly charts list at most this many artists per city; more non-zeros in a
# row means the corpus was not produced by chart truncation.
CHART_ROW_LIMIT = 500


@dataclass(frozen=True)
class CsrMatrix:
    """A sparse matrix in compressed sparse row layout.

    Row ``r`` stores ``data[indptr[r]:indptr[r + 1]]`` at the columns
    ``indices[indptr[r]:indptr[r + 1]]``, which ascend.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)

    def rows(self) -> np.ndarray:
        """The row of every stored entry."""
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def toarray(self) -> np.ndarray:
        out = np.zeros(self.shape, dtype=self.data.dtype)
        out[self.rows(), self.indices] = self.data
        return out


@dataclass(frozen=True)
class VelocitySeries:
    """Week-over-week changes of the normalized rows.

    ``matrices[i]`` holds the change from ``weeks[i] - 7 days`` to
    ``weeks[i]``. Row ``c`` stores an entry for every artist city ``c``
    listed (stored an entry for) at either endpoint week, so its columns
    are the endpoint charts' union. ``defined[i, c]`` marks whether the row
    is a valid velocity (non-empty at both endpoints, exactly 7 days
    apart): a defined row stores the differences, exact zeros included; an
    undefined row stores +0.0 throughout.
    """

    weeks: tuple[date, ...]
    matrices: tuple[CsrMatrix, ...]
    defined: np.ndarray
    cities: tuple[str, ...]
    artists: tuple[str, ...]

    @property
    def n_weeks(self) -> int:
        return len(self.weeks)

    @cached_property
    def slab_positions(self) -> tuple[np.ndarray, ...]:
        """Where each week's stored entries land in a dense slab; built on
        first use.

        A slab is one week's ``(artists, cities)`` array over every row of
        the series. Week ``w``'s entries go to the flat int32 positions
        ``artist * len(cities) + row``, in the order of its CSR ``data``.
        """
        n_cities = len(self.cities)
        return tuple(
            (matrix.indices * n_cities + matrix.rows()).astype(np.int32)
            for matrix in self.matrices
        )


def to_listeners_matrices(
    series: ChartSeries, cities: Collection[str] | None = None
) -> list[CsrMatrix]:
    """One sparse counts matrix per entry of ``series.weeks``.

    The columns are the corpus's artists, so its artist codes are the
    column codes, and the data are the corpus's integer counts: with every
    city kept, each matrix's ``indices`` and ``data`` are views of the
    corpus's own columns. ``cities``, when given, keeps only those cities'
    rows, in corpus order (see :func:`_corpus_cities`). Every week of the
    corpus gets a matrix, and the ``CHART_ROW_LIMIT`` warning still looks
    at every city's row.
    """
    kept = _corpus_cities(series, cities)
    shape = (len(kept), len(series.artists))
    city_start = np.arange(len(series.cities) + 1,
                           dtype=series.city_idx.dtype)
    is_kept = np.array([c in kept for c in series.cities], dtype=bool)
    subset = not is_kept.all()
    matrices: list[CsrMatrix] = []
    for week, rows in series.week_slices():
        # A week's rows are sorted by city, then artist.
        indptr = np.searchsorted(series.city_idx[rows], city_start)
        row_nnz = np.diff(indptr)
        if np.any(row_nnz > CHART_ROW_LIMIT):
            worst = int(row_nnz.max())
            warnings.warn(
                f"week {week}: a city row has {worst} non-zeros, above the "
                f"top-{CHART_ROW_LIMIT} chart limit",
                stacklevel=2,
            )
        if subset:
            indptr = np.concatenate(([0], np.cumsum(row_nnz[is_kept])))
            rows = rows.start + np.flatnonzero(is_kept[series.city_idx[rows]])
        matrices.append(CsrMatrix(indptr, series.artist_idx[rows],
                                  series.listeners[rows], shape))
    return matrices


def _corpus_cities(
    series: ChartSeries, cities: Collection[str] | None
) -> tuple[str, ...]:
    """The corpus cities among ``cities``, in corpus order; all of them for
    None. A name that is not a corpus city raises UnknownCityError."""
    if cities is None:
        return series.cities
    wanted = set(cities)
    unknown = sorted(wanted.difference(series.cities))
    if unknown:
        raise UnknownCityError(f"cities not in corpus: {unknown}")
    return tuple(c for c in series.cities if c in wanted)


def normalize_rows(m: CsrMatrix) -> CsrMatrix:
    """Scale every non-empty row to unit Euclidean norm, in a float64 copy.

    Each row's sum of squares is one ``np.add.reduceat`` segment, the
    summation order of ``scipy.sparse`` row sums, so the bits match them.
    """
    data = m.data.astype(np.float64)
    nonempty = np.flatnonzero(np.diff(m.indptr))
    norms = np.zeros(m.shape[0])
    if nonempty.size:
        norms[nonempty] = np.sqrt(
            np.add.reduceat(data * data, m.indptr[nonempty])
        )
    inv = np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)
    data *= np.repeat(inv, np.diff(m.indptr))
    return replace(m, data=data)


def compute_velocities(
    weeks: Sequence[date],
    normalized: Sequence[CsrMatrix],
    cities: Sequence[str],
    artists: Sequence[str],
) -> VelocitySeries:
    """Difference consecutive normalized matrices into a velocity series.

    ``normalized[i]`` is week ``weeks[i]``'s matrix. Produces one matrix
    per adjacent pair of input weeks, each row stored on the union of its
    two endpoint rows' columns. A city's row is defined only when both
    endpoint rows are non-empty and the pair is exactly 7 days apart;
    everything else is flagged undefined and stores +0.0. Each week's
    entries are keyed by (city, artist) as the merge reaches it, so beside
    the output only two weeks' keys are held at a time.
    """
    if len(weeks) != len(normalized):
        raise ValueError(
            f"{len(weeks)} weeks for {len(normalized)} normalized matrices"
        )
    if len(normalized) < 2:
        raise InsufficientDataError(
            f"need at least 2 weeks to compute velocities, got {len(normalized)}"
        )
    if any(b <= a for a, b in zip(weeks, weeks[1:])):
        raise ValueError("weeks must ascend")
    n_cities, n_artists = len(cities), len(artists)
    present = np.array([np.diff(m.indptr) > 0 for m in normalized],
                       dtype=bool)
    consecutive = np.array(
        [(b - a).days == 7 for a, b in zip(weeks, weeks[1:])]
    )
    defined = present[1:] & present[:-1] & consecutive[:, None]
    row_start = np.arange(n_cities + 1) * n_artists
    shape = (n_cities, n_artists)
    matrices = []
    # Key each stored entry by (city, artist) as its week is merged; the
    # keys ascend in a week. Only two weeks' keys are held at a time.
    later = _cells(normalized[0], n_artists)
    for i in range(len(defined)):
        # Velocity week i is week i + 1 minus week i. Each week's keys are a
        # sorted run holding a key at most once, so a stable sort of the two
        # runs is a linear merge that puts a key's week-i + 1 entry right
        # before its week-i entry.
        earlier, later = later, _cells(normalized[i + 1], n_artists)
        key = np.concatenate((later, earlier))
        # 0.0 - b, not -b: a stored zero must not become -0.0.
        value = np.concatenate(
            (normalized[i + 1].data, 0.0 - normalized[i].data)
        )
        order = np.argsort(key, kind="stable")
        key, value = key.take(order), value.take(order)
        repeat = key[1:] == key[:-1]  # entry j + 1 has entry j's key
        value[1:] += np.where(repeat, value[:-1], 0.0)  # -b + a is exactly a - b
        # Masks select through flatnonzero + take: boolean indexing is
        # several times slower on masks this irregular.
        last = np.flatnonzero(np.append(~repeat, len(key) > 0))  # one per key
        union, diff = key.take(last), value.take(last)
        indptr = np.searchsorted(union, row_start)
        row_size = np.diff(indptr)
        columns = (union - np.repeat(row_start[:-1], row_size)).astype(np.int32)
        diff[np.repeat(~defined[i], row_size)] = 0.0
        matrices.append(CsrMatrix(indptr, columns, diff, shape))
    return VelocitySeries(
        weeks=tuple(weeks[1:]),
        matrices=tuple(matrices),
        defined=defined,
        cities=tuple(cities),
        artists=tuple(artists),
    )


def _cells(m: CsrMatrix, n_artists: int) -> np.ndarray:
    """The key ``row * n_artists + column`` of each stored entry."""
    return m.rows() * n_artists + m.indices


def build_velocities(
    series: ChartSeries,
    artists: set[str] | None = None,
    cities: Collection[str] | None = None,
    *,
    filter_stage: str = "pre",
) -> VelocitySeries:
    """The pipeline: corpus -> counts -> unit rows -> velocities.

    ``artists``, when given, keeps only those artists' columns (see
    :func:`_restrict_artists`): of the counts before the rows are
    normalized for ``filter_stage="pre"``, of the unit rows after for
    ``"post"``. ``cities``, when given, builds only those cities' rows (see
    :func:`_corpus_cities`): each city's velocities depend on its own rows
    alone, so they equal the rows built for every city. The weeks are the
    corpus's weeks in every case.
    """
    if filter_stage not in ("pre", "post"):
        raise ValueError(
            f"filter_stage must be pre or post, got {filter_stage!r}"
        )
    corpus_artists = build_artist_index(series)
    kept_cities = _corpus_cities(series, cities)
    matrices = to_listeners_matrices(series, kept_cities)
    kept = corpus_artists
    if artists is not None and filter_stage == "pre":
        matrices, kept = _restrict_artists(matrices, corpus_artists, artists)
    normalized = [normalize_rows(m) for m in matrices]
    del matrices  # counts copied for a subset; unit rows share indices
    if artists is not None and filter_stage == "post":
        normalized, kept = _restrict_artists(normalized, corpus_artists,
                                             artists)
    return compute_velocities(series.weeks, normalized, kept_cities, kept)


def _restrict_artists(
    matrices: Sequence[CsrMatrix],
    artists: Sequence[str],
    artist_subset: set[str],
) -> tuple[list[CsrMatrix], tuple[str, ...]]:
    """Column-slice matrices over ``artists`` to an artist subset.

    Sliced counts normalize over the subset alone (the ``pre`` filter
    stage); sliced unit rows keep the norms of every artist (``post``: rows
    are deliberately not re-normalized). A row with no subset artist is
    left empty, never dropped.
    """
    keep = [i for i, a in enumerate(artists) if a in artist_subset]
    kept_artists = tuple(artists[i] for i in keep)
    column = np.full(len(artists), -1, dtype=np.int32)
    column[keep] = np.arange(len(keep), dtype=np.int32)

    def sliced(m: CsrMatrix) -> CsrMatrix:
        new = column[m.indices]
        kept = new >= 0
        before = np.concatenate(([0], np.cumsum(kept)))
        return CsrMatrix(
            before[m.indptr], new[kept], m.data[kept], (m.shape[0], len(keep))
        )

    return [sliced(m) for m in matrices], kept_artists


def week_gaps(weeks: Sequence[date]) -> list[tuple[date, date, int]]:
    """Adjacent week pairs more than 7 days apart, with the gap in days."""
    gaps = []
    for a, b in zip(weeks, weeks[1:]):
        days = (b - a).days
        if days != 7:
            gaps.append((a, b, days))
    return gaps
