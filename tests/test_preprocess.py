"""Listeners matrices, row normalization, velocity computation."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chartflow import Influence, PlantSpec, build_velocities, generate_planted
from chartflow.errors import (
    InsufficientDataError,
    UnknownCityError,
)
from chartflow.preprocess import (
    CsrMatrix,
    _restrict_artists,
    compute_velocities,
    normalize_rows,
    to_listeners_matrices,
)

from conftest import make_series, row_norms, week
from oracles import (
    oracle_compute_velocities,
    oracle_filter_by_tag,
    oracle_listeners_matrices,
    oracle_normalize_rows,
    oracle_restrict_artists,
)


def pipeline(rows):
    series = make_series(rows)
    matrices = to_listeners_matrices(series)
    normalized = [normalize_rows(m) for m in matrices]
    return series, series.artists, matrices, normalized


class TestListenersMatrices:
    def test_direct_placement(self):
        _, _, matrices, _ = pipeline([(0, "c1", "a1", 3), (0, "c1", "a2", 4)])
        assert len(matrices) == 1
        assert matrices[0].toarray().tolist() == [[3.0, 4.0]]

    def test_absent_city_is_zero_row(self):
        _, _, matrices, _ = pipeline(
            [(0, "c1", "a", 1), (0, "c2", "a", 2), (1, "c1", "a", 3)]
        )
        second = matrices[1].toarray()
        assert second[1].tolist() == [0.0]

    def test_shared_column_space(self):
        _, artists, matrices, _ = pipeline([(0, "c", "x", 1), (1, "c", "y", 2)])
        assert len(artists) == 2
        assert all(m.shape == (1, 2) for m in matrices)

    def test_overfull_row_warns(self):
        rows = [(0, "c", f"a{i:04d}", 1) for i in range(501)]
        series = make_series(rows)
        with pytest.warns(UserWarning, match="top-500"):
            to_listeners_matrices(series)


class TestNormalizeRows:
    def test_three_four_five(self):
        _, _, matrices, normalized = pipeline(
            [(0, "c", "a", 3), (0, "c", "b", 4)]
        )
        row = normalized[0].toarray()[0]
        assert row == pytest.approx([0.6, 0.8], abs=1e-12)

    def test_idempotent(self):
        _, _, _, normalized = pipeline([(0, "c", "a", 3), (0, "c", "b", 4)])
        again = normalize_rows(normalized[0])
        diff = again.toarray() - normalized[0].toarray()
        assert np.abs(diff).max() < 1e-12

    def test_zero_row_preserved(self):
        _, _, matrices, normalized = pipeline(
            [(0, "c1", "a", 5), (0, "c2", "a", 1), (1, "c1", "a", 5)]
        )
        assert normalized[1].toarray()[1].tolist() == [0.0]

    def test_unit_norms(self):
        _, _, _, normalized = pipeline(
            [(0, "c", a, n) for a, n in (("w", 17), ("x", 3), ("y", 999))]
        )
        norms = row_norms(normalized[0])
        assert abs(norms[0] - 1.0) < 1e-9


class TestComputeVelocities:
    def test_identical_weeks_give_zero(self):
        series, artists, _, normalized = pipeline(
            [(0, "c", "a", 3), (0, "c", "b", 4), (1, "c", "a", 3), (1, "c", "b", 4)]
        )
        vel = compute_velocities(
            series.weeks, normalized, ("c",), artists
        )
        assert vel.defined[0, 0]
        # Both charted artists are stored, as +0.0.
        assert vel.matrices[0].indices.tolist() == [0, 1]
        assert vel.matrices[0].data.tobytes() == np.zeros(2).tobytes()

    def test_stored_zero_leaving_gives_positive_zero(self):
        # Corpora drop zero counts, but a caller's unit rows may store a
        # 0.0: when only the earlier week stores it, 0.0 - 0.0 must be
        # stored as +0.0, not -0.0.
        def unit_row(columns, data):
            return CsrMatrix(np.array([0, len(columns)]), np.array(columns),
                             np.array(data), (1, 2))

        normalized = [unit_row([0, 1], [0.0, 1.0]), unit_row([1], [1.0])]
        vel = compute_velocities((week(0), week(1)), normalized, ("c",),
                                 ("a", "b"))
        assert vel.matrices[0].indices.tolist() == [0, 1]
        assert not np.signbit(vel.matrices[0].data).any()

    def test_orthogonal_swap(self):
        series, artists, _, normalized = pipeline(
            [(0, "c", "a", 7), (1, "c", "b", 12)]
        )
        vel = compute_velocities(
            series.weeks, normalized, ("c",), artists
        )
        assert vel.matrices[0].toarray()[0].tolist() == [-1.0, 1.0]

    def test_gap_fixture(self):
        # Weeks 0, 1, 3: the 1 -> 3 transition spans 14 days, so the second
        # velocity matrix exists but carries no defined rows: its one row
        # stores the endpoints' artist as +0.0.
        series, artists, _, normalized = pipeline(
            [(0, "c", "a", 2), (1, "c", "a", 3), (3, "c", "a", 4)]
        )
        vel = compute_velocities(
            series.weeks, normalized, ("c",), artists
        )
        assert vel.n_weeks == 2
        assert vel.weeks == (week(1), week(3))
        assert vel.defined[0, 0] and not vel.defined[1, 0]
        assert vel.matrices[1].indices.tolist() == [0]
        assert vel.matrices[1].data.tobytes() == np.zeros(1).tobytes()

    def test_city_absence_undefines_row(self):
        series, artists, _, normalized = pipeline(
            [(0, "c1", "a", 1), (0, "c2", "a", 1), (1, "c1", "a", 2)]
        )
        vel = compute_velocities(
            series.weeks, normalized, ("c1", "c2"), artists
        )
        assert vel.defined[0, 0]
        assert not vel.defined[0, 1]
        assert vel.matrices[0].toarray()[1].tolist() == [0.0]

    def test_support_is_endpoint_union(self):
        # "gone" charts only in week 0, so its row is undefined; it still
        # stores its week-0 artists, as +0.0.
        series, artists, _, normalized = pipeline(
            [(0, "c", "a", 1), (0, "c", "b", 1), (1, "c", "b", 2),
             (1, "c", "d", 3), (0, "gone", "a", 4)]
        )
        vel = compute_velocities(
            series.weeks, normalized, ("c", "gone"), artists
        )
        m = vel.matrices[0]
        assert vel.defined[0].tolist() == [True, False]
        assert m.indptr.tolist() == [0, 3, 4]
        assert m.indices.tolist() == [0, 1, 2, 0]
        half, thirteenth = np.sqrt(0.5), np.sqrt(1 / 13)
        assert m.data[:3] == pytest.approx(
            [-half, 2 * thirteenth - half, 3 * thirteenth], abs=1e-12
        )
        assert m.data[3:].tobytes() == np.zeros(1).tobytes()

    def test_too_few_weeks(self):
        series, artists, _, normalized = pipeline([(0, "c", "a", 1)])
        with pytest.raises(InsufficientDataError):
            compute_velocities(series.weeks, normalized, ("c",), artists)

    def test_unordered_weeks_rejected(self):
        series, artists, _, normalized = pipeline(
            [(0, "c", "a", 1), (1, "c", "a", 2)]
        )
        with pytest.raises(ValueError, match="ascend"):
            compute_velocities(series.weeks[::-1], normalized[::-1], ("c",),
                               artists)
        with pytest.raises(ValueError, match="2 weeks for 1"):
            compute_velocities(series.weeks, normalized[:1], ("c",),
                               artists)


class TestVelocityInvariants:
    def test_entries_bounded(self, small_velocities):
        for m in small_velocities.matrices:
            if m.nnz:
                assert np.abs(m.data).max() <= 1.0 + 1e-12

    def test_row_norms_bounded(self, small_velocities):
        for m in small_velocities.matrices:
            norms = row_norms(m)
            assert norms.max() <= 2.0 + 1e-12

    def test_telescoping(self):
        rows = []
        counts = [(3, 4, 5), (6, 1, 2), (2, 2, 9)]
        for k, week_counts in enumerate(counts):
            for a, c in zip("xyz", week_counts):
                rows.append((k, "c", a, c))
        series, artists, _, normalized = pipeline(rows)
        vel = compute_velocities(
            series.weeks, normalized, ("c",), artists
        )
        lhs = vel.matrices[0].toarray() + vel.matrices[1].toarray()
        rhs = normalized[2].toarray() - normalized[0].toarray()
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_scale_invariance(self):
        base = [(0, "c", "a", 3), (0, "c", "b", 4), (1, "c", "a", 5), (1, "c", "b", 1)]
        scaled = [(k, c, a, n * 17) if k == 0 else (k, c, a, n) for k, c, a, n in base]
        series, artists, _, norm_a = pipeline(base)
        _, _, _, norm_b = pipeline(scaled)
        vel_a = compute_velocities(series.weeks, norm_a, ("c",), artists)
        vel_b = compute_velocities(series.weeks, norm_b, ("c",), artists)
        diff = vel_a.matrices[0].toarray() - vel_b.matrices[0].toarray()
        assert np.abs(diff).max() < 1e-12


def test_build_velocities_pipeline(small_series):
    vel = build_velocities(small_series)
    assert vel.n_weeks == len(small_series.weeks) - 1
    assert vel.cities == small_series.cities


def test_restrict_artists():
    series = make_series(
        [(0, "c", "a", 3), (0, "c", "b", 4), (1, "c", "a", 1), (1, "c", "b", 1)]
    )
    normalized = [normalize_rows(m) for m in to_listeners_matrices(series)]
    sliced, kept = _restrict_artists(normalized, series.artists, {"b"})
    assert kept == ("b",)
    # Norms are from the full corpus: week-0 b entry stays 0.8.
    assert sliced[0].toarray()[0].tolist() == [0.8]


def _assert_same_csr(new, old):
    """The numpy CSR record holds the scipy matrix's arrays, bit for bit."""
    assert tuple(new.shape) == tuple(old.shape)
    assert np.array_equal(new.indptr, old.indptr)
    assert np.array_equal(new.indices, old.indices)
    assert new.data.dtype == old.data.dtype
    assert new.data.tobytes() == old.data.tobytes()


def _assert_same_velocities(new, old):
    assert (new.weeks, new.cities, new.artists) == (
        old.weeks, old.cities, old.artists
    )
    assert np.array_equal(new.defined, old.defined)
    assert len(new.matrices) == len(old.matrices)
    for a, b in zip(new.matrices, old.matrices):
        _assert_same_csr(a, b)


def _assert_one_pattern(velocities, normalized):
    """Each velocity row stores the union of its endpoint rows' columns,
    defined or not, and an undefined row stores +0.0 only."""
    for i, m in enumerate(velocities.matrices):
        later, earlier = normalized[i + 1], normalized[i]
        for r in range(m.shape[0]):
            row = slice(m.indptr[r], m.indptr[r + 1])
            union = np.union1d(
                later.indices[later.indptr[r]:later.indptr[r + 1]],
                earlier.indices[earlier.indptr[r]:earlier.indptr[r + 1]],
            )
            assert np.array_equal(m.indices[row], union)
            if not velocities.defined[i, r]:
                assert m.data[row].tobytes() == np.zeros(len(union)).tobytes()


def _gap_and_absence_series():
    """Weeks 0-9 and 12-20 (a 21-day gap); c2 is absent in weeks 3-5 and
    c3 charts only in even weeks. Artists come and go at random, and artist
    "solo" charts only in c1's weeks 0, 1 and 7."""
    rnd = np.random.default_rng(17)
    rows = [(k, "c1", "solo", 5 + k) for k in (0, 1, 7)]
    for k in [*range(10), *range(12, 21)]:
        for city in ("c1", "c2", "c3"):
            if (city == "c2" and 3 <= k <= 5) or (city == "c3" and k % 2):
                continue
            for a in range(30):
                if rnd.random() < 0.4:
                    rows.append((k, city, f"a{a:02d}", int(rnd.integers(1, 10**6))))
    return make_series(rows)


class TestMatchesScipyOracle:
    """Velocities and ``defined`` equal the scipy.sparse pipeline, and each
    velocity row is stored on its endpoints' union."""

    @staticmethod
    def _check(series, subset=None):
        listeners = to_listeners_matrices(series)
        old_listeners = oracle_listeners_matrices(series, series.artists)
        normalized = [normalize_rows(m) for m in listeners]
        old_normalized = [oracle_normalize_rows(m) for m in old_listeners]
        assert len(listeners) == len(old_listeners) == len(series.weeks)
        for new, old in zip(listeners, old_listeners):
            # Views of the corpus's own integer counts, equal to the float64
            # ones.
            assert np.shares_memory(new.data, series.listeners)
            assert new.data.dtype == series.listeners.dtype
            assert np.array_equal(new.indptr, old.indptr)
            assert np.array_equal(new.indices, old.indices)
            assert np.array_equal(new.data, old.data)
        for new, old in zip(normalized, old_normalized):
            _assert_same_csr(new, old)
        artists = series.artists
        if subset is not None:
            normalized, artists = _restrict_artists(normalized, artists, subset)
            old_normalized, old_artists = oracle_restrict_artists(
                old_normalized, series.artists, subset
            )
            assert artists == old_artists
            for new, old in zip(normalized, old_normalized):
                _assert_same_csr(new, old)
        new = compute_velocities(series.weeks, normalized, series.cities,
                                 artists)
        old = oracle_compute_velocities(series.weeks, old_normalized,
                                        series.cities, artists)
        _assert_same_velocities(new, old)
        _assert_one_pattern(new, normalized)
        return new

    def test_small_plant(self, small_series):
        velocities = self._check(small_series)
        _assert_same_velocities(build_velocities(small_series), velocities)

    def test_week_gap_and_absent_city(self):
        velocities = self._check(_gap_and_absence_series())
        assert not velocities.defined[9].any()  # the 9 -> 12 transition
        assert not velocities.defined[2:5, 1].any()  # c2 absent
        assert velocities.defined[:, 0].sum() == velocities.n_weeks - 1

    def test_post_filter_stage(self, small_series):
        subset = set(small_series.artists[::3])
        velocities = self._check(small_series, subset)
        assert len(velocities.artists) == len(subset)

    def test_post_filter_leaving_empty_weeks(self):
        velocities = self._check(_gap_and_absence_series(), {"solo"})
        assert velocities.artists == ("solo",)
        # A row empty after the cut is undefined: only weeks 0 -> 1 move,
        # but the other endpoint unions (weeks 1 -> 2, 6 -> 7, 7 -> 8) are
        # stored too, as +0.0.
        assert sum(m.nnz for m in velocities.matrices) == 4
        assert sum(np.count_nonzero(m.data) for m in velocities.matrices) == 1


@st.composite
def tagged_corpora(draw):
    """A corpus of at most 6 chart weeks (a 14-day gap possible) over 3
    cities and 6 artists, with a tag naming some of the 6."""
    artists = [f"a{i}" for i in range(6)]
    cells = draw(st.dictionaries(
        st.tuples(st.sampled_from([0, 1, 2, 3, 5, 6]),
                  st.sampled_from(["c1", "c2", "c3"]),
                  st.sampled_from(artists)),
        st.integers(min_value=1, max_value=10**6),
        min_size=2, max_size=60,
    ))
    series = make_series([(k, c, a, n) for (k, c, a), n in cells.items()])
    return series, draw(st.sets(st.sampled_from(artists), min_size=1))


class TestPreFilterStage:
    """``filter_stage="pre"`` slices the counts before the rows are
    normalized, on the corpus's own weeks and cities."""

    @given(tagged_corpora())
    @settings(max_examples=80, deadline=None)
    def test_equals_filter_then_build(self, case):
        # Where the tag leaves every week and every city a tagged record,
        # rebuilding the corpus from the tagged records keeps its weeks and
        # cities, and the velocities are the same bits.
        series, tag = case
        filtered = oracle_filter_by_tag(series, tag)
        assume(len(series.weeks) >= 2)
        assume((filtered.weeks, filtered.cities)
               == (series.weeks, series.cities))
        _assert_same_velocities(
            build_velocities(series, tag, filter_stage="pre"),
            build_velocities(filtered),
        )

    def test_rows_normalize_over_the_tag(self):
        series = make_series(
            [(0, "c", "a", 3), (0, "c", "b", 4), (1, "c", "a", 1),
             (1, "c", "b", 1)]
        )
        velocities = build_velocities(series, {"b"}, filter_stage="pre")
        assert velocities.artists == ("b",)
        # b is each week's whole tagged row, so its unit row is 1.0 twice.
        assert velocities.defined.tolist() == [[True]]
        assert velocities.matrices[0].data.tolist() == [0.0]
        post = build_velocities(series, {"b"}, filter_stage="post")
        assert post.matrices[0].data[0] == 1 / np.sqrt(2) - 0.8

    def test_a_city_the_tag_empties_keeps_its_rows(self):
        # "solo" charts only in c1's weeks 0, 1 and 7: c2 and c3 keep their
        # rows, all undefined, and every corpus week gets a velocity week.
        series = _gap_and_absence_series()
        velocities = build_velocities(series, {"solo"}, filter_stage="pre")
        assert velocities.cities == series.cities
        assert velocities.weeks == series.weeks[1:]
        assert velocities.defined[:, 0].tolist() == [
            i == 0 for i in range(velocities.n_weeks)
        ]
        assert not velocities.defined[:, 1:].any()

    def test_unknown_stage_raises(self, small_series):
        with pytest.raises(ValueError, match="filter_stage"):
            build_velocities(small_series, {"x"}, filter_stage="mid")


class TestCitySubset:
    """Velocities built for some cities equal those rows of the full build."""

    @staticmethod
    def _check(series, cities, artists=None, stage="post"):
        full = build_velocities(series, artists, filter_stage=stage)
        part = build_velocities(series, artists, cities, filter_stage=stage)
        assert part.cities == tuple(c for c in series.cities if c in cities)
        assert (part.weeks, part.artists) == (full.weeks, full.artists)
        rows = [full.cities.index(c) for c in part.cities]
        assert np.array_equal(part.defined, full.defined[:, rows])
        for new, old in zip(part.matrices, full.matrices):
            assert new.shape == (len(rows), old.shape[1])
            for r, o in enumerate(rows):
                n0, n1 = new.indptr[r], new.indptr[r + 1]
                o0, o1 = old.indptr[o], old.indptr[o + 1]
                assert np.array_equal(new.indices[n0:n1], old.indices[o0:o1])
                assert new.data[n0:n1].tobytes() == old.data[o0:o1].tobytes()
        return part

    @pytest.mark.parametrize(
        "cities", [("c2",), ("c3", "c1"), ("c1", "c2", "c3")]
    )
    def test_rows_equal_the_full_build(self, cities):
        self._check(_gap_and_absence_series(), cities)

    def test_post_filter_stage(self, small_series):
        self._check(small_series, {"echo"}, set(small_series.artists[::3]))

    def test_pre_filter_stage(self, small_series):
        self._check(small_series, {"echo"}, set(small_series.artists[::3]),
                    "pre")

    def test_weeks_stay_the_corpus_weeks(self):
        # "solo" only charts in c1's weeks 0, 1 and 7, but every corpus week
        # still gets a velocity week.
        series = _gap_and_absence_series()
        part = self._check(series, ("c2",))
        assert part.n_weeks == len(series.weeks) - 1

    def test_no_city(self, small_series):
        part = self._check(small_series, ())
        assert part.defined.shape == (len(small_series.weeks) - 1, 0)

    def test_unknown_city_raises(self, small_series):
        with pytest.raises(UnknownCityError, match="atlantis"):
            build_velocities(small_series, cities=("echo", "atlantis"))

    def test_left_out_city_still_warns(self):
        rows = [(0, "big", f"a{i:04d}", 1) for i in range(501)]
        rows.append((0, "small", "a0000", 1))
        series = make_series(rows)
        with pytest.warns(UserWarning, match="501 non-zeros, above the top-500"):
            matrices = to_listeners_matrices(series, ("small",))
        assert matrices[0].toarray().tolist() == [[1.0] + [0.0] * 500]
        assert not np.shares_memory(matrices[0].data, series.listeners)


def test_velocity_build_peak_memory_is_bounded_by_the_output():
    """Counts are freed once normalized and each week is keyed as it is
    merged, so the build holds its output plus a few weeks of scratch."""
    names = [f"c{i:02d}" for i in range(12)]
    spec = PlantSpec(
        cities=tuple((n, "unlabeled") for n in names),
        influence=tuple(Influence(names[i], names[i + 4], i + 1, 0.8)
                        for i in range(4)),
        weeks=120,
        artists=600,
        chart_size=120,
        noise_sigma=0.04,
        seed=202,
    )
    series = generate_planted(spec)
    tracemalloc.start()
    try:
        velocities = build_velocities(series)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    arrays = {id(a): a for m in velocities.matrices
              for a in (m.indptr, m.indices, m.data)}
    output = velocities.defined.nbytes + sum(a.nbytes for a in arrays.values())
    assert velocities.n_weeks == 119
    assert peak <= 2 * output, (peak, output)
