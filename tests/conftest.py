"""Shared fixtures: hand-built corpora and reference synthetic specs."""

from __future__ import annotations

from datetime import date, timedelta

import numpy as np
import pytest

from chartflow import (
    ChartSeries,
    Influence,
    PlantSpec,
    build_velocities,
    generate_planted,
)

W0 = date(2007, 1, 7)


def week(k: int) -> date:
    """The k-th week of the shared fixture grid."""
    return W0 + timedelta(days=7 * k)


def series_from_rows(rows):
    """Build a ChartSeries from (week_start, city, artist, listeners) tuples.

    Labels are coded in order of first appearance and the columns go to
    ``ChartSeries.from_columns``, which sorts and validates them.
    """
    labels: tuple[dict, dict, dict] = ({}, {}, {})
    columns: tuple[list, list, list, list] = ([], [], [], [])
    for *keys, listeners in rows:
        for label, key, column in zip(labels, keys, columns):
            column.append(label.setdefault(key, len(label)))
        columns[3].append(listeners)
    return ChartSeries.from_columns(
        *(tuple(label) for label in labels), *columns
    )


def make_series(rows):
    """Build a ChartSeries from (week_offset, city, artist, listeners) tuples."""
    return series_from_rows(
        [(week(k), city, artist, n) for k, city, artist, n in rows]
    )


def row_norms(matrix) -> np.ndarray:
    """Euclidean norm of every row of a sparse matrix, through its dense array."""
    dense = matrix.toarray()
    return np.sqrt((dense * dense).sum(axis=1))


# Five cities, one planted edge: beta echoes alpha two weeks later at 0.8.
REFERENCE_CITIES = (
    ("alpha", "leader"),
    ("beta", "follower"),
    ("gamma", "unlabeled"),
    ("delta", "unlabeled"),
    ("epsilon", "unlabeled"),
)

REFERENCE_SPEC = PlantSpec(
    cities=REFERENCE_CITIES,
    influence=(Influence("alpha", "beta", 2, 0.8),),
    weeks=260,
    artists=240,
    noise_sigma=0.032,
    walk_sigma=0.04,
    city_size=2000.0,
    seed=20070107,
)

NULL_SPEC = PlantSpec(
    cities=REFERENCE_CITIES,
    influence=(),
    weeks=260,
    artists=240,
    noise_sigma=0.032,
    walk_sigma=0.04,
    city_size=2000.0,
    seed=31337,
)

# Small and fast; used where statistical strength is not the point.
SMALL_PLANT = PlantSpec(
    cities=(("lead", "leader"), ("echo", "follower"), ("other", "unlabeled")),
    influence=(Influence("lead", "echo", 2, 0.8),),
    weeks=60,
    artists=40,
    noise_sigma=0.04,
    seed=99,
)


@pytest.fixture(scope="session")
def reference_velocities():
    return build_velocities(generate_planted(REFERENCE_SPEC))


@pytest.fixture(scope="session")
def small_velocities():
    return build_velocities(generate_planted(SMALL_PLANT))


@pytest.fixture(scope="session")
def small_series():
    return generate_planted(SMALL_PLANT)
