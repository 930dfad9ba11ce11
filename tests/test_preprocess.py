"""Listeners matrices, row normalization, velocity computation."""

import numpy as np
import pytest

from chartflow import (
    build_artist_index,
    build_velocities,
    compute_velocities,
    normalize_rows,
    restrict_artists,
    to_listeners_matrices,
)
from chartflow.errors import IndexingError, InsufficientDataError
from chartflow.preprocess import ListenersMatrix

from conftest import make_series, week


def pipeline(rows):
    series = make_series(rows)
    index = build_artist_index(series)
    matrices = to_listeners_matrices(series, index)
    normalized = [normalize_rows(m) for m in matrices]
    return series, index, matrices, normalized


class TestListenersMatrices:
    def test_direct_placement(self):
        _, _, matrices, _ = pipeline([(0, "c1", "a1", 3), (0, "c1", "a2", 4)])
        assert len(matrices) == 1
        assert matrices[0].entries.toarray().tolist() == [[3.0, 4.0]]

    def test_absent_city_is_zero_row(self):
        _, _, matrices, _ = pipeline(
            [(0, "c1", "a", 1), (0, "c2", "a", 2), (1, "c1", "a", 3)]
        )
        second = matrices[1].entries.toarray()
        assert second[1].tolist() == [0.0]

    def test_shared_column_space(self):
        _, index, matrices, _ = pipeline([(0, "c", "x", 1), (1, "c", "y", 2)])
        assert index.size == 2
        assert all(m.entries.shape == (1, 2) for m in matrices)

    def test_missing_artist_raises(self):
        series = make_series([(0, "c", "a", 1)])
        other = build_artist_index(make_series([(0, "c", "b", 1)]))
        with pytest.raises(IndexingError):
            to_listeners_matrices(series, other)

    def test_overfull_row_warns(self):
        rows = [(0, "c", f"a{i:04d}", 1) for i in range(501)]
        series = make_series(rows)
        index = build_artist_index(series)
        with pytest.warns(UserWarning, match="top-500"):
            to_listeners_matrices(series, index)


class TestNormalizeRows:
    def test_three_four_five(self):
        _, _, matrices, normalized = pipeline(
            [(0, "c", "a", 3), (0, "c", "b", 4)]
        )
        row = normalized[0].entries.toarray()[0]
        assert row == pytest.approx([0.6, 0.8], abs=1e-12)

    def test_idempotent(self):
        _, _, _, normalized = pipeline([(0, "c", "a", 3), (0, "c", "b", 4)])
        again = normalize_rows(
            ListenersMatrix(normalized[0].week_start, normalized[0].entries)
        )
        diff = (again.entries - normalized[0].entries).toarray()
        assert np.abs(diff).max() < 1e-12

    def test_zero_row_preserved(self):
        _, _, matrices, normalized = pipeline(
            [(0, "c1", "a", 5), (0, "c2", "a", 1), (1, "c1", "a", 5)]
        )
        assert normalized[1].entries.toarray()[1].tolist() == [0.0]

    def test_unit_norms(self):
        _, _, _, normalized = pipeline(
            [(0, "c", a, n) for a, n in (("w", 17), ("x", 3), ("y", 999))]
        )
        norms = np.sqrt(
            np.asarray(
                normalized[0].entries.multiply(normalized[0].entries).sum(axis=1)
            ).ravel()
        )
        assert abs(norms[0] - 1.0) < 1e-9


class TestComputeVelocities:
    def test_identical_weeks_give_zero(self):
        _, index, _, normalized = pipeline(
            [(0, "c", "a", 3), (0, "c", "b", 4), (1, "c", "a", 3), (1, "c", "b", 4)]
        )
        vel = compute_velocities(normalized, ("c",), index.artists)
        assert vel.defined[0, 0]
        assert vel.matrices[0].nnz == 0

    def test_orthogonal_swap(self):
        _, index, _, normalized = pipeline(
            [(0, "c", "a", 7), (1, "c", "b", 12)]
        )
        vel = compute_velocities(normalized, ("c",), index.artists)
        assert vel.matrices[0].toarray()[0].tolist() == [-1.0, 1.0]

    def test_gap_fixture(self):
        # Weeks 0, 1, 3: the 1 -> 3 transition spans 14 days, so the second
        # velocity matrix exists but carries no defined rows.
        _, index, _, normalized = pipeline(
            [(0, "c", "a", 2), (1, "c", "a", 3), (3, "c", "a", 4)]
        )
        vel = compute_velocities(normalized, ("c",), index.artists)
        assert vel.n_weeks == 2
        assert vel.weeks == (week(1), week(3))
        assert vel.defined[0, 0] and not vel.defined[1, 0]
        assert vel.matrices[1].nnz == 0

    def test_city_absence_undefines_row(self):
        _, index, _, normalized = pipeline(
            [(0, "c1", "a", 1), (0, "c2", "a", 1), (1, "c1", "a", 2)]
        )
        vel = compute_velocities(normalized, ("c1", "c2"), index.artists)
        assert vel.defined[0, 0]
        assert not vel.defined[0, 1]
        assert vel.matrices[0].toarray()[1].tolist() == [0.0]

    def test_support_is_endpoint_union(self):
        _, index, _, normalized = pipeline(
            [(0, "c", "a", 1), (0, "c", "b", 1), (1, "c", "b", 2), (1, "c", "d", 3)]
        )
        vel = compute_velocities(normalized, ("c",), index.artists)
        support = vel.support[0].toarray()[0]
        assert support.tolist() == [True, True, True]

    def test_too_few_weeks(self):
        _, index, _, normalized = pipeline([(0, "c", "a", 1)])
        with pytest.raises(InsufficientDataError):
            compute_velocities(normalized, ("c",), index.artists)

    def test_unordered_weeks_rejected(self):
        _, index, _, normalized = pipeline(
            [(0, "c", "a", 1), (1, "c", "a", 2)]
        )
        with pytest.raises(ValueError):
            compute_velocities(normalized[::-1], ("c",), index.artists)


class TestVelocityInvariants:
    def test_entries_bounded(self, small_velocities):
        for m in small_velocities.matrices:
            if m.nnz:
                assert np.abs(m.data).max() <= 1.0 + 1e-12

    def test_row_norms_bounded(self, small_velocities):
        for m in small_velocities.matrices:
            norms = np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel())
            assert norms.max() <= 2.0 + 1e-12

    def test_telescoping(self):
        rows = []
        counts = [(3, 4, 5), (6, 1, 2), (2, 2, 9)]
        for k, week_counts in enumerate(counts):
            for a, c in zip("xyz", week_counts):
                rows.append((k, "c", a, c))
        _, index, _, normalized = pipeline(rows)
        vel = compute_velocities(normalized, ("c",), index.artists)
        lhs = (vel.matrices[0] + vel.matrices[1]).toarray()
        rhs = (normalized[2].entries - normalized[0].entries).toarray()
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_scale_invariance(self):
        base = [(0, "c", "a", 3), (0, "c", "b", 4), (1, "c", "a", 5), (1, "c", "b", 1)]
        scaled = [(k, c, a, n * 17) if k == 0 else (k, c, a, n) for k, c, a, n in base]
        _, index, _, norm_a = pipeline(base)
        _, _, _, norm_b = pipeline(scaled)
        vel_a = compute_velocities(norm_a, ("c",), index.artists)
        vel_b = compute_velocities(norm_b, ("c",), index.artists)
        diff = (vel_a.matrices[0] - vel_b.matrices[0]).toarray()
        assert np.abs(diff).max() < 1e-12


def test_build_velocities_pipeline(small_series):
    vel = build_velocities(small_series)
    assert vel.n_weeks == len(small_series.weeks) - 1
    assert vel.cities == small_series.cities


def test_restrict_artists():
    series = make_series(
        [(0, "c", "a", 3), (0, "c", "b", 4), (1, "c", "a", 1), (1, "c", "b", 1)]
    )
    index = build_artist_index(series)
    normalized = [normalize_rows(m) for m in to_listeners_matrices(series, index)]
    sliced, kept = restrict_artists(normalized, index, {"b"})
    assert kept == ("b",)
    # Norms are from the full corpus: week-0 b entry stays 0.8.
    assert sliced[0].entries.toarray()[0].tolist() == [0.8]
