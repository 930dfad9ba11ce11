"""Lagged design matrices for one target city, plus the temporal split.

A sample is an (artist, week) pair: the response is the target city's
velocity for that artist at that week, and the predictors are the velocities
of that artist in each included city at each of the previous ``lag_count``
weeks. Eligibility requires the target city to have defined velocity rows at
the sample week and at every one of the lag weeks. Under the ``target``
active rule the sample set therefore depends on the target city alone;
under ``union`` it also depends on which cities are included, so an
own-history design and an all-history design can hold different rows.
Evaluation sidesteps this by fitting the own-history model on the target
city's columns of the all-history design. Lagged values of *other* cities
that are undefined (absence, gap) enter as 0.0, the no-change value.

The design is gathered from a dense velocity cube: ``densify`` spreads the
chosen city rows of every velocity week into one (week, artist, city)
array, so the values one sample row needs, all included cities at one lag
week, lie side by side. ``evaluate_region`` densifies the included cities
once and passes that cube to every ``build_design`` call; called alone,
``build_design`` densifies the cities it needs. One lag table, the velocity
week index ``7 * (l + 1)`` days before each week, decides which weeks are
eligible. Each eligible week's block of rows is then read lag-major from
the cube, (artist, lag, city), and written through a transposed view
straight into the preallocated design. Rows come out in ascending week
order, so ``temporal_split`` cuts the design into two row slices, views
that share the design's memory.
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

OWN_HISTORY = "own_history"
ALL_HISTORY = "all_history"
ACTIVE_TARGET = "target"
ACTIVE_UNION = "union"


class ColMeta(NamedTuple):
    city: str
    lag: int


@dataclass(frozen=True)
class LagConfig:
    """How many past weeks feed the predictor, and whose history counts."""

    lag_count: int = 8
    scope: str = ALL_HISTORY
    cities_included: tuple[str, ...] = ()

    def __post_init__(self):
        if self.lag_count < 1:
            raise ValueError(f"lag_count must be >= 1, got {self.lag_count}")
        if self.scope not in (OWN_HISTORY, ALL_HISTORY):
            raise ValueError(f"unknown scope {self.scope!r}")
        if self.scope == ALL_HISTORY and not self.cities_included:
            raise ValueError("all_history scope needs a non-empty city list")
        for i, city in enumerate(self.cities_included):
            if city in self.cities_included[:i]:
                raise ValueError(f"cities_included names {city!r} more than once")

    def cities(self, target_city: str) -> tuple[str, ...]:
        """The cities whose lags are columns, in configured order."""
        return (
            (target_city,) if self.scope == OWN_HISTORY else self.cities_included
        )

    def columns(self, target_city: str) -> tuple[ColMeta, ...]:
        """Column labels: configured city order, lags ascending within city."""
        return tuple(
            ColMeta(city, lag)
            for city in self.cities(target_city)
            for lag in range(1, self.lag_count + 1)
        )


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
    target_city: str

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class SplitDesign:
    train: LabeledDesign
    test: LabeledDesign


def densify(velocities: VelocitySeries, rows: Sequence[int]) -> np.ndarray:
    """The given city rows of every velocity week as one dense cube.

    Returns shape ``(weeks, artists, len(rows))``; entry ``[w, a, p]`` is
    city ``rows[p]``'s velocity for artist ``a`` in week ``w``, 0.0 where
    the week's CSR matrix stores no entry.
    """
    n_cities = len(velocities.cities)
    position = np.full(n_cities, -1)
    position[list(rows)] = np.arange(len(rows))
    out = np.zeros((velocities.n_weeks, len(velocities.artists), len(rows)))
    for w, matrix in enumerate(velocities.matrices):
        city = position[matrix.rows()]
        keep = city >= 0
        out[w, matrix.indices[keep], city[keep]] = matrix.data[keep]
    return out


def check_lag_count(velocities: VelocitySeries, lag_count: int) -> None:
    """Raise InsufficientDataError when the series has too few velocity
    weeks for any sample to have ``lag_count`` lags."""
    if lag_count >= velocities.n_weeks:
        raise InsufficientDataError(
            f"{velocities.n_weeks} velocity weeks cannot support "
            f"{lag_count} lags"
        )


def build_design(
    velocities: VelocitySeries,
    target_city: str,
    config: LagConfig,
    active_rule: str = ACTIVE_TARGET,
    *,
    cube: np.ndarray | None = None,
) -> LabeledDesign:
    """Assemble the lagged design matrix and target vector for one city.

    The ``target`` active rule admits an (artist, week) sample when the
    artist appears in the target city's chart at either endpoint of the
    sample week's velocity; ``union`` widens that to any included city's
    chart across the sample week and the whole lag window. Rows come out in
    ascending week order, artists ascending within a week.

    ``cube`` is ``densify(velocities, rows)`` for the rows of
    ``config.cities(target_city)``, in that order, followed by the target
    city's row when it is not among them; callers building several designs
    pass one cube to all of them. A cube of any other shape raises
    ValueError. Without it the design densifies those rows itself.
    """
    if active_rule not in (ACTIVE_TARGET, ACTIVE_UNION):
        raise ValueError(f"unknown active rule {active_rule!r}")
    cities = velocities.cities
    if target_city not in cities:
        raise UnknownCityError(f"city {target_city!r} not in corpus")
    included = config.cities(target_city)
    missing = sorted(set(included) - set(cities))
    if missing:
        raise UnknownCityError(f"cities not in corpus: {missing}")
    if not velocities.artists:
        raise InsufficientDataError("velocity series has no artists")
    check_lag_count(velocities, config.lag_count)
    col_meta = config.columns(target_city)

    city_row = {c: i for i, c in enumerate(cities)}
    target_row = city_row[target_city]
    included_rows = [city_row[c] for c in included]
    rows = list(dict.fromkeys([*included_rows, target_row]))
    n_included, y_pos = len(included_rows), rows.index(target_row)
    n_artists = len(velocities.artists)
    shape = (velocities.n_weeks, n_artists, len(rows))
    if cube is None:
        cube = densify(velocities, rows)
    elif cube.shape != shape:
        raise ValueError(f"cube has shape {cube.shape}, expected {shape}")

    # lags[i, l] is the velocity week 7 * (l + 1) days before week i, or -1.
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
        listed = np.zeros((velocities.n_weeks, n_artists), dtype=bool)
        is_included = np.zeros(len(cities), dtype=bool)
        is_included[included_rows] = True
        for j, support in enumerate(velocities.support):
            listed[j, support.indices[is_included[support.rows()]]] = True

    eligible: list[tuple[int, np.ndarray]] = []
    for i in eligible_weeks.tolist():
        if active_rule == ACTIVE_TARGET:
            support = velocities.support[i]
            start, end = support.indptr[target_row], support.indptr[target_row + 1]
            active = support.indices[start:end]
        else:
            active = np.flatnonzero(listed[[i, *lags[i]]].any(0))
        if active.size:
            eligible.append((i, active))

    n_rows = sum(active.size for _, active in eligible)
    x = np.empty((n_rows, len(col_meta)))
    y = np.empty(n_rows)
    week_idx = np.empty(n_rows, dtype=np.int32)
    artist_idx = np.empty(n_rows, dtype=np.int32)
    start = 0
    for i, active in eligible:
        stop = start + active.size
        # Columns run city-major, so the rows' (artist, city, lag) view,
        # transposed, takes the (artist, lag, city) block as read.
        block = x[start:stop].reshape(active.size, n_included, config.lag_count)
        block.transpose(0, 2, 1)[...] = cube[
            lags[i][None, :], active[:, None], :n_included
        ]
        y[start:stop] = cube[i, active, y_pos]
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
        target_city=target_city,
    )


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
