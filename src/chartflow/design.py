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
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path
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


class RowMeta(NamedTuple):
    artist: str
    week: date


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

    def columns(self, target_city: str) -> tuple[ColMeta, ...]:
        """Column labels: configured city order, lags ascending within city."""
        cities = (
            (target_city,)
            if self.scope == OWN_HISTORY
            else self.cities_included
        )
        return tuple(
            ColMeta(city, lag)
            for city in cities
            for lag in range(1, self.lag_count + 1)
        )


@dataclass(frozen=True)
class LabeledDesign:
    """Dense design matrix with row and column labels."""

    x: np.ndarray
    y: np.ndarray
    row_meta: tuple[RowMeta, ...]
    col_meta: tuple[ColMeta, ...]
    target_city: str

    @property
    def n_rows(self) -> int:
        return self.x.shape[0]


@dataclass(frozen=True)
class SplitDesign:
    train: LabeledDesign
    test: LabeledDesign
    boundary: date


def _dense_row(matrix, row: int, width: int) -> np.ndarray:
    out = np.zeros(width)
    start, end = matrix.indptr[row], matrix.indptr[row + 1]
    out[matrix.indices[start:end]] = matrix.data[start:end]
    return out


def build_design(
    velocities: VelocitySeries,
    target_city: str,
    config: LagConfig,
    active_rule: str = ACTIVE_TARGET,
) -> LabeledDesign:
    """Assemble the lagged design matrix and target vector for one city.

    The ``target`` active rule admits an (artist, week) sample when the
    artist appears in the target city's chart at either endpoint of the
    sample week's velocity; ``union`` widens that to any included city's
    chart across the sample week and the whole lag window.
    """
    if active_rule not in (ACTIVE_TARGET, ACTIVE_UNION):
        raise ValueError(f"unknown active rule {active_rule!r}")
    cities = velocities.cities
    if target_city not in cities:
        raise UnknownCityError(f"city {target_city!r} not in corpus")
    col_meta = config.columns(target_city)
    missing = sorted({c for c, _ in col_meta} - set(cities))
    if missing:
        raise UnknownCityError(f"cities not in corpus: {missing}")
    if config.lag_count >= velocities.n_weeks:
        raise InsufficientDataError(
            f"{velocities.n_weeks} velocity weeks cannot support "
            f"{config.lag_count} lags"
        )

    city_row = {c: i for i, c in enumerate(cities)}
    target_row = city_row[target_city]
    week_of = velocities.week_index()
    n_artists = len(velocities.artists)
    defined = velocities.defined

    # Weeks where the target city's velocity and all its lagged velocities
    # exist at exact 7-day spacing.
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
    row_meta: list[RowMeta] = []
    for i, lag_idx in eligible:
        if active_rule == ACTIVE_TARGET:
            support = velocities.support[i]
            start, end = support.indptr[target_row], support.indptr[target_row + 1]
            active = support.indices[start:end]
        else:
            mask = np.zeros(n_artists, dtype=bool)
            for j in [i, *lag_idx]:
                support = velocities.support[j]
                for r in included_rows:
                    mask[support.indices[support.indptr[r] : support.indptr[r + 1]]] = True
            active = np.flatnonzero(mask)
        if active.size == 0:
            continue
        block = np.zeros((active.size, len(col_meta)))
        for col, (city, lag) in enumerate(col_meta):
            block[:, col] = dense(lag_idx[lag - 1], city_row[city])[active]
        x_blocks.append(block)
        y_parts.append(dense(i, target_row)[active])
        week = velocities.weeks[i]
        row_meta.extend(RowMeta(velocities.artists[a], week) for a in active)

    if x_blocks:
        x = np.vstack(x_blocks)
        y = np.concatenate(y_parts)
    else:
        x = np.zeros((0, len(col_meta)))
        y = np.zeros(0)
    return LabeledDesign(
        x=x,
        y=y,
        row_meta=tuple(row_meta),
        col_meta=col_meta,
        target_city=target_city,
    )


def temporal_split(design: LabeledDesign, boundary: date) -> SplitDesign:
    """Partition samples into target weeks before vs. from the boundary on."""
    mask = np.array([m.week < boundary for m in design.row_meta], dtype=bool)
    if not mask.any() or mask.all():
        raise DegenerateSplitError(
            f"boundary {boundary} leaves an empty partition "
            f"({int(mask.sum())} train rows of {len(mask)})"
        )

    def part(keep: np.ndarray) -> LabeledDesign:
        return LabeledDesign(
            x=design.x[keep],
            y=design.y[keep],
            row_meta=tuple(m for m, k in zip(design.row_meta, keep) if k),
            col_meta=design.col_meta,
            target_city=design.target_city,
        )

    return SplitDesign(train=part(mask), test=part(~mask), boundary=boundary)


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
    for row, meta in enumerate(design.row_meta):
        writer.writerow(
            (meta.artist, meta.week.isoformat(), repr(float(design.y[row])))
            + tuple(repr(float(v)) for v in design.x[row])
        )
    return buffer.getvalue()


def dump_design_csv(design: LabeledDesign, path: str | Path) -> None:
    Path(path).write_text(design_csv_text(design), encoding="utf-8")
