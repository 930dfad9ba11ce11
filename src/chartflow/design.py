"""Lagged design matrices for one target city, plus the temporal split.

A sample is an (artist, week) pair: the response is the target city's
velocity for that artist at that week, and the predictors are the velocities
of that artist in each included city at each of the previous ``lag_count``
weeks. One ``LagConfig``, a city list and a lag count, describes both of
the paper's models: the all-history model includes every city, and the
own-history model is the one-city case, the target alone. Eligibility
requires the target city to have defined velocity rows at the sample week
and at every one of the lag weeks. Under the ``target`` active rule the
sample set therefore depends on the target city alone; under ``union`` it
also depends on which cities are included, so a one-city design and an
all-city design can hold different rows. Evaluation sidesteps this by
fitting the own-history model on the target city's columns of the
all-history design. Both rules read which artists a city charts from the
velocity matrices, whose rows store the columns of their two endpoint
charts. Lagged values of *other* cities that are undefined (absence, gap)
enter as 0.0, the no-change value.

The design is gathered from a small ring of dense (artist, city) slabs,
one per velocity week, whose columns are the velocity series' own city
rows, so the values one sample row needs, all included cities at one lag
week, lie side by side. Each week's slab is filled from its CSR matrix
when the week enters the ring: its ``data`` is scattered at positions that
depend on the series alone, ``VelocitySeries.slab_positions``, computed by
the first design built from a series and cached on it for every later one.
One lag table, the velocity week index ``7 * (l + 1)`` days before each
week, decides which weeks are eligible and how many weeks the ring holds.
Each eligible week's block of rows is then read lag-major from the ring
with one ``take``, (artist, lag, city), its included cities' columns
picked as a slice when their rows run consecutively and ascending, and
written through a transposed view straight into the preallocated design;
the response is read from the target's column of the sample week's slab.
Rows come out in ascending week order, so ``temporal_split`` cuts the
design into two row slices, views that share the design's memory.
"""

from __future__ import annotations

import csv
import io
from bisect import bisect_left
from dataclasses import dataclass, replace
from datetime import date, timedelta
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateSplitError, InsufficientDataError, UnknownCityError
from .preprocess import VelocitySeries

ACTIVE_TARGET = "target"
ACTIVE_UNION = "union"


class ColMeta(NamedTuple):
    city: str
    lag: int


@dataclass(frozen=True)
class LagConfig:
    """How many past weeks feed the predictor, and whose history counts:
    the included cities' lags, in this order, are the design's columns."""

    lag_count: int
    cities_included: tuple[str, ...]

    def __post_init__(self):
        if self.lag_count < 1:
            raise ValueError(f"lag_count must be >= 1, got {self.lag_count}")
        if not self.cities_included:
            raise ValueError("cities_included must name at least one city")
        for i, city in enumerate(self.cities_included):
            if city in self.cities_included[:i]:
                raise ValueError(f"cities_included names {city!r} more than once")

    def columns(self) -> tuple[ColMeta, ...]:
        """Column labels: configured city order, lags ascending within city."""
        return tuple(
            ColMeta(city, lag)
            for city in self.cities_included
            for lag in range(1, self.lag_count + 1)
        )

    def city_columns(self, city: str) -> slice:
        """The columns of ``city``'s lags; ValueError if it is not included."""
        first = self.cities_included.index(city) * self.lag_count
        return slice(first, first + self.lag_count)


@dataclass(frozen=True)
class LabeledDesign:
    """Dense design matrix with row and column labels.

    Row ``r`` is the sample of artist ``artists[artist_idx[r]]`` at week
    ``weeks[week_idx[r]]``; the label tuples are the velocity series' own.
    """

    x: np.ndarray
    y: np.ndarray
    week_idx: np.ndarray
    artist_idx: np.ndarray
    weeks: tuple[date, ...]
    artists: tuple[str, ...]
    col_meta: tuple[ColMeta, ...]

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class SplitDesign:
    train: LabeledDesign
    test: LabeledDesign


def check_lag_count(velocities: VelocitySeries, lag_count: int) -> None:
    """Raise InsufficientDataError when the series has too few velocity
    weeks for any sample to have ``lag_count`` lags."""
    if lag_count >= velocities.n_weeks:
        raise InsufficientDataError(
            f"{velocities.n_weeks} velocity weeks cannot support "
            f"{lag_count} lags"
        )


def design_rows(
    velocities: VelocitySeries,
    target_city: str,
    config: LagConfig,
    active_rule: str = ACTIVE_TARGET,
) -> int:
    """The row count of :func:`build_design`'s design for these arguments,
    found without building it. It raises what ``build_design`` raises,
    InsufficientDataError for a design with no rows included."""
    _, eligible = _eligible_samples(velocities, target_city, config,
                                    active_rule)
    return sum(active.size for _, active in eligible)


def build_design(
    velocities: VelocitySeries,
    target_city: str,
    config: LagConfig,
    active_rule: str = ACTIVE_TARGET,
    *,
    out: np.ndarray | None = None,
) -> LabeledDesign:
    """Assemble the lagged design matrix and target vector for one city.

    The columns are the lags of ``config.cities_included``, which need not
    name the target city: ``LagConfig(lag_count, (target_city,))`` gives
    the own-history design. The ``target`` active rule admits an (artist,
    week) sample when the artist appears in the target city's chart at
    either endpoint of the sample week's velocity, i.e. among the stored
    columns of the target's row of that velocity matrix; ``union`` widens
    that to any included city's row across the sample week and the whole
    lag window. Rows come out in ascending week order, artists ascending
    within a week. The slab scatter reads ``velocities.slab_positions``,
    so only the first design built from a series computes them. A design
    with no rows raises InsufficientDataError.

    ``out``, a 1-D float64 array of at least :func:`design_rows` times
    ``lag_count * len(cities_included)`` elements, holds ``x``: the design
    is the C-contiguous reshape of its first elements, so one buffer can
    serve many designs in turn. Without it ``x`` is allocated.
    """
    lags, eligible = _eligible_samples(velocities, target_city, config,
                                       active_rule)
    cities = velocities.cities
    city_row = {c: i for i, c in enumerate(cities)}
    target_row = city_row[target_city]
    included_rows = [city_row[c] for c in config.cities_included]
    n_included, n_artists = len(included_rows), len(velocities.artists)
    positions = velocities.slab_positions
    # The included cities' slab columns: a slice when their rows run
    # consecutively and ascending, as the CLI builds them.
    first = included_rows[0]
    if included_rows == list(range(first, first + n_included)):
        columns = slice(first, first + n_included)
    else:
        columns = included_rows

    col_meta = config.columns()
    n_rows = sum(active.size for _, active in eligible)
    if out is None:
        x = np.empty((n_rows, len(col_meta)))
    else:
        x = out[:n_rows * len(col_meta)].reshape(n_rows, len(col_meta))
    y = np.empty(n_rows)
    week_idx = np.empty(n_rows, dtype=np.int32)
    artist_idx = np.empty(n_rows, dtype=np.int32)
    # The rows of week i read week i and its lag weeks, the furthest
    # lags[i, -1]; a ring of `depth` slabs, week j in slab j % depth, holds
    # all of them. A week's slab is filled when the week enters the ring.
    depth = 1 + max(i - int(lags[i, -1]) for i, _ in eligible)
    ring = np.empty((depth * n_artists, len(cities)))
    slabs = ring.reshape(depth, -1)
    lag_rows = lags % depth * n_artists
    filled = -1
    start = 0
    for i, active in eligible:
        for j in range(max(filled + 1, i + 1 - depth), i + 1):
            slab = slabs[j % depth]
            slab.fill(0.0)
            # An intp copy of the positions scatters twice as fast as
            # int32 positions, which numpy casts one by one.
            slab[positions[j].astype(np.intp)] = velocities.matrices[j].data
        filled = i
        stop = start + active.size
        # Columns run city-major, so the rows' (artist, city, lag) view,
        # transposed, takes the (artist, lag, city) block as read.
        block = x[start:stop].reshape(active.size, n_included, config.lag_count)
        block.transpose(0, 2, 1)[...] = ring.take(
            lag_rows[i][None, :] + active[:, None], axis=0
        )[..., columns]
        y[start:stop] = ring[i % depth * n_artists + active, target_row]
        week_idx[start:stop] = i
        artist_idx[start:stop] = active
        start = stop
    return LabeledDesign(
        x=x,
        y=y,
        week_idx=week_idx,
        artist_idx=artist_idx,
        weeks=velocities.weeks,
        artists=velocities.artists,
        col_meta=col_meta,
    )


def _eligible_samples(
    velocities: VelocitySeries,
    target_city: str,
    config: LagConfig,
    active_rule: str,
) -> tuple[np.ndarray, list[tuple[int, np.ndarray]]]:
    """Check the arguments of :func:`build_design` and find its samples.

    Returns the lag table, ``lags[i, l]`` the velocity week 7 * (l + 1)
    days before week ``i`` or -1, and ``(i, active)`` for each week ``i``
    that contributes rows, ``active`` its rows' ascending artist columns.
    A design with no rows raises InsufficientDataError.
    """
    if active_rule not in (ACTIVE_TARGET, ACTIVE_UNION):
        raise ValueError(f"unknown active rule {active_rule!r}")
    cities = velocities.cities
    if target_city not in cities:
        raise UnknownCityError(f"city {target_city!r} not in corpus")
    included = config.cities_included
    missing = sorted(set(included) - set(cities))
    if missing:
        raise UnknownCityError(f"cities not in corpus: {missing}")
    if not velocities.artists:
        raise InsufficientDataError("velocity series has no artists")
    check_lag_count(velocities, config.lag_count)
    target_row = cities.index(target_city)

    # A week is eligible when the target city's velocity is defined there
    # and at every lag week.
    ordinals = np.array([w.toordinal() for w in velocities.weeks])
    wanted = ordinals[:, None] - 7 * np.arange(1, config.lag_count + 1)
    lags = np.searchsorted(ordinals, wanted)
    lags[ordinals[lags] != wanted] = -1
    defined = velocities.defined[:, target_row]
    eligible_weeks = np.flatnonzero(
        defined & (lags >= 0).all(1) & defined[lags].all(1)
    )

    if active_rule == ACTIVE_UNION:
        # listed[j, a]: some included city lists artist a at either end of
        # velocity week j.
        listed = np.zeros((velocities.n_weeks, len(velocities.artists)),
                          dtype=bool)
        is_included = np.array([c in included for c in cities])
        for j, matrix in enumerate(velocities.matrices):
            listed[j, matrix.indices[is_included[matrix.rows()]]] = True

    eligible: list[tuple[int, np.ndarray]] = []
    for i in eligible_weeks.tolist():
        if active_rule == ACTIVE_TARGET:
            matrix = velocities.matrices[i]
            start, end = matrix.indptr[target_row], matrix.indptr[target_row + 1]
            active = matrix.indices[start:end]
        else:
            active = np.flatnonzero(listed[[i, *lags[i]]].any(0))
        if active.size:
            eligible.append((i, active))
    if not eligible:
        raise InsufficientDataError(
            f"city {target_city!r} has no eligible samples: none with its "
            f"velocity defined at the sample week and all {config.lag_count} "
            "lag weeks"
        )
    return lags, eligible


def temporal_split(design: LabeledDesign, boundary: date) -> SplitDesign:
    """Partition samples into target weeks before vs. from the boundary on.

    Rows are in ascending week order, so each part is a row slice: a view
    of the design's arrays, not a copy.
    """
    cut = int(
        np.searchsorted(design.week_idx, bisect_left(design.weeks, boundary))
    )
    if cut == 0 or cut == design.n_rows:
        raise DegenerateSplitError(
            f"boundary {boundary} leaves an empty partition "
            f"({cut} train rows of {design.n_rows})"
        )

    def part(rows: slice) -> LabeledDesign:
        return replace(
            design,
            x=design.x[rows],
            y=design.y[rows],
            week_idx=design.week_idx[rows],
            artist_idx=design.artist_idx[rows],
        )

    return SplitDesign(
        train=part(slice(None, cut)),
        test=part(slice(cut, None)),
    )


def default_boundary(weeks: Sequence[date]) -> date:
    """Two-thirds point of the week span (the train side gets two-thirds)."""
    if not weeks:
        raise InsufficientDataError("no weeks to split")
    span_days = (weeks[-1] - weeks[0]).days + 7
    return weeks[0] + timedelta(days=(span_days * 2) // 3)


def design_csv_text(design: LabeledDesign) -> str:
    """Dump a design as CSV: ``artist,week,y,<city>@lag<k>...``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ("artist", "week", "y")
        + tuple(f"{c.city}@lag{c.lag}" for c in design.col_meta)
    )
    weeks = [w.isoformat() for w in design.weeks]
    rows = zip(design.artist_idx.tolist(), design.week_idx.tolist())
    for row, (a, w) in enumerate(rows):
        writer.writerow(
            (design.artists[a], weeks[w], repr(float(design.y[row])))
            + tuple(repr(float(v)) for v in design.x[row])
        )
    return buffer.getvalue()
