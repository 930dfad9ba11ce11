"""Design-matrix assembly checked against a brute-force enumeration."""

import dataclasses
import itertools
import tracemalloc
from datetime import date, timedelta

import numpy as np
import pytest

from chartflow import (
    ColMeta,
    LagConfig,
    PlantSpec,
    build_design,
    build_velocities,
    default_boundary,
    fit_ols,
    generate_planted,
    predict,
    temporal_split,
)
from chartflow.design import design_csv_text, slab_positions
from chartflow.errors import (
    DegenerateSplitError,
    InsufficientDataError,
    UnknownCityError,
)
from chartflow.preprocess import CsrMatrix, VelocitySeries

from conftest import SMALL_PLANT, make_series, week
from oracles import build_design_by_columns


def row_labels(design):
    """The (artist, week) label of every design row."""
    return [
        (design.artists[a], design.weeks[w])
        for w, a in zip(design.week_idx.tolist(), design.artist_idx.tolist())
    ]


def single_city_fixture():
    """10 consecutive weeks, 5 artists always charted, easy to enumerate."""
    counts = np.array(
        [
            [12, 7, 30, 4, 9],
            [14, 7, 28, 5, 9],
            [13, 9, 25, 5, 11],
            [15, 9, 22, 6, 11],
            [15, 10, 22, 8, 12],
            [17, 10, 20, 8, 14],
            [16, 12, 19, 9, 14],
            [18, 12, 17, 9, 15],
            [18, 13, 17, 11, 15],
            [20, 13, 15, 11, 16],
        ],
        dtype=float,
    )
    artists = ["a", "b", "c", "d", "e"]
    rows = [
        (k, "m", artists[j], int(counts[k, j]))
        for k in range(10)
        for j in range(5)
    ]
    return make_series(rows), counts, artists


class TestSingleCityFixture:
    def test_enumerated_design(self):
        series, counts, artists = single_city_fixture()
        velocities = build_velocities(series)
        assert velocities.n_weeks == 9
        design = build_design(
            velocities, "m", LagConfig(8, ("m",))
        )
        # Independent oracle: plain numpy normalization and differencing.
        norm = counts / np.linalg.norm(counts, axis=1, keepdims=True)
        vel = norm[1:] - norm[:-1]  # vel[i] is the change into chart week i+1

        assert design.x.shape == (5, 8)
        assert design.col_meta == tuple(ColMeta("m", lag) for lag in range(1, 9))
        assert row_labels(design) == [(a, week(9)) for a in artists]
        assert design.y == pytest.approx(vel[8], abs=1e-15)
        for lag in range(1, 9):
            assert design.x[:, lag - 1] == pytest.approx(
                vel[8 - lag], abs=1e-15
            ), f"lag {lag}"

    def test_own_scope_matches(self):
        # The own-history design is the one-city config's, whatever other
        # cities the corpus holds.
        series, counts, artists = single_city_fixture()
        rows = [
            (k, city, artists[j], int(counts[k, j]) + shift)
            for k in range(10)
            for j in range(5)
            for city, shift in (("m", 0), ("n", 3 * j - k))
        ]
        own = build_design(build_velocities(series), "m", LagConfig(8, ("m",)))
        beside = build_design(
            build_velocities(make_series(rows)), "m", LagConfig(8, ("m",))
        )
        assert own.col_meta == beside.col_meta
        assert row_labels(own) == row_labels(beside)
        assert own.x.tobytes() == beside.x.tobytes()
        assert own.y.tobytes() == beside.y.tobytes()


class TestColumnCounts:
    def test_twenty_cities_gives_160_and_8(self):
        spec = PlantSpec(
            cities=tuple((f"c{i:02d}", "unlabeled") for i in range(20)),
            weeks=30,
            artists=10,
            noise_sigma=0.05,
            seed=4,
        )
        velocities = build_velocities(generate_planted(spec))
        alls = build_design(
            velocities, "c00", LagConfig(8, velocities.cities)
        )
        own = build_design(velocities, "c00", LagConfig(8, ("c00",)))
        assert alls.x.shape[1] == 160
        assert len(alls.col_meta) == 160
        assert own.x.shape[1] == 8
        assert row_labels(own) == row_labels(alls)


class TestNestedColumns:
    def test_own_columns_embedded_in_all(self, small_velocities):
        target = "echo"
        own = build_design(small_velocities, target, LagConfig(8, (target,)))
        alls = build_design(
            small_velocities,
            target,
            LagConfig(8, small_velocities.cities),
        )
        positions = [
            alls.col_meta.index(ColMeta(target, lag)) for lag in range(1, 9)
        ]
        assert np.array_equal(own.x, alls.x[:, positions])
        assert own.y == pytest.approx(alls.y, abs=0)


class TestEligibilityAndFill:
    def test_gap_blocks_eligibility(self):
        # Weeks 0..10 with week 5 missing: no target week has 8 defined lags.
        rows = [
            (k, "m", "a", 10 + k)
            for k in range(11)
            if k != 5
        ] + [(k, "m", "b", 20 - k) for k in range(11) if k != 5]
        velocities = build_velocities(make_series(rows))
        design = build_design(velocities, "m", LagConfig(8, ("m",)))
        assert design.n_rows == 0

    def test_other_city_undefined_lags_fill_zero(self):
        rows = []
        for k in range(10):
            rows += [(k, "m", "a", 10 + k), (k, "m", "b", 25 - k)]
            if k != 5:  # n skips week 5
                rows += [(k, "n", "a", 7 + k), (k, "n", "b", 9)]
        velocities = build_velocities(make_series(rows))
        design = build_design(
            velocities, "m", LagConfig(8, ("m", "n"))
        )
        assert design.n_rows == 2  # target week 9, artists a and b
        col = {meta: i for i, meta in enumerate(design.col_meta)}
        # n's velocity is undefined at weeks 5 and 6 (absent endpoint).
        assert np.all(design.x[:, col[ColMeta("n", 3)]] == 0.0)
        assert np.all(design.x[:, col[ColMeta("n", 4)]] == 0.0)
        assert np.any(design.x[:, col[ColMeta("n", 1)]] != 0.0)

    def test_active_rules(self):
        rows = []
        for k in range(10):
            rows += [(k, "m", "x", 10 + k), (k, "m", "y", 30 - k)]
            rows += [(k, "n", "x", 5), (k, "n", "z", 8 + k)]
        velocities = build_velocities(make_series(rows))
        config = LagConfig(8, ("m", "n"))
        target_rule = build_design(velocities, "m", config, active_rule="target")
        union_rule = build_design(velocities, "m", config, active_rule="union")
        assert sorted({a for a, _ in row_labels(target_rule)}) == ["x", "y"]
        assert sorted({a for a, _ in row_labels(union_rule)}) == ["x", "y", "z"]
        # z never charts in m, so its response is exactly no-change.
        z_rows = [i for i, (a, _) in enumerate(row_labels(union_rule)) if a == "z"]
        assert np.all(union_rule.y[z_rows] == 0.0)

    def test_no_leakage_lags_positive(self, small_velocities):
        design = build_design(
            small_velocities,
            "echo",
            LagConfig(8, small_velocities.cities),
        )
        assert min(c.lag for c in design.col_meta) >= 1


def off_grid_velocities(seed: int) -> VelocitySeries:
    """A hand-built series whose weekly grid also holds weeks 3 days off it.

    Each off-grid week sits between two grid weeks, so a lag 7 * l days
    back lies more than l velocity weeks back. Entries are random, a stored
    zero among them, and some rows are undefined.
    """
    rng = np.random.default_rng(seed)
    days = sorted(
        {7 * k for k in range(24)} | {7 * k + 3 for k in (2, 5, 6, 9, 13, 14)}
    )
    cities, n_artists = ("m", "n", "o"), 9
    matrices = []
    for _ in days:
        stored = rng.random((len(cities), n_artists)) < 0.5
        stored[0, :3] = True
        values = rng.normal(size=stored.shape)
        values[0, 0] = 0.0
        row, column = np.nonzero(stored)
        indptr = np.searchsorted(row, np.arange(len(cities) + 1))
        matrices.append(
            CsrMatrix(
                indptr,
                column.astype(np.int32),
                values[row, column],
                stored.shape,
            )
        )
    defined = rng.random((len(days), len(cities))) < 0.9
    defined[:, 0] = True
    defined[17, 0] = False
    return VelocitySeries(
        weeks=tuple(week(0) + timedelta(days=d) for d in days),
        matrices=tuple(matrices),
        defined=defined,
        cities=cities,
        artists=tuple(f"a{k}" for k in range(n_artists)),
    )


class TestGatherMatchesColumnLoop:
    """The slab-ring gather gives the per-column assembly, bit for bit.

    It is checked with the positions ``build_design`` computes itself and
    with one ``slab_positions(velocities)`` shared by every configuration,
    as ``evaluate_region`` passes them. The configurations list the cities
    in corpus order (a slice of the slab's columns), reversed, as a subset
    that leaves some targets out, and each city alone: every target's
    own-history config, and one-city configs of other cities.
    """

    @staticmethod
    def configs(cities, lag_count):
        return (
            LagConfig(lag_count, cities),
            LagConfig(lag_count, tuple(reversed(cities))),
            LagConfig(lag_count, cities[1:]),
        ) + tuple(LagConfig(lag_count, (city,)) for city in cities)

    @staticmethod
    def assert_bit_equal(velocities, cities, configs, active_rule):
        shared = slab_positions(velocities)
        for config, city in itertools.product(configs, cities):
            ref = build_design_by_columns(velocities, city, config, active_rule)
            for positions in (None, shared):
                got = build_design(
                    velocities, city, config, active_rule, positions=positions
                )
                assert got.n_rows > 0
                assert got.col_meta == ref.col_meta
                for name in ("x", "y", "week_idx", "artist_idx"):
                    a, b = getattr(got, name), getattr(ref, name)
                    assert a.shape == b.shape and a.dtype == b.dtype, name
                    assert a.tobytes() == b.tobytes(), (config, city, name)
                assert np.all(np.diff(got.week_idx) >= 0)

    @pytest.mark.parametrize("chart_size", [SMALL_PLANT.chart_size, 12])
    @pytest.mark.parametrize("active_rule", ["target", "union"])
    def test_bit_equal(self, chart_size, active_rule):
        spec = dataclasses.replace(SMALL_PLANT, chart_size=chart_size)
        velocities = build_velocities(generate_planted(spec))
        cities = velocities.cities
        configs = self.configs(cities, 8) + (
            LagConfig(3, tuple(reversed(cities))),
        )
        self.assert_bit_equal(velocities, cities, configs, active_rule)

    @pytest.mark.parametrize("active_rule", ["target", "union"])
    def test_bit_equal_across_gaps(self, active_rule):
        # 30 weeks with a 21-day hole after week 11 (weeks 12 and 13 are
        # missing), and city "n" absent from weeks 20-22: lag weeks go
        # missing mid-series, and n's velocity is undefined around its
        # absence.
        rng = np.random.default_rng(11)
        rows = []
        for k in range(30):
            if k in (12, 13):
                continue
            for city in ("m", "n", "o"):
                if city == "n" and 20 <= k <= 22:
                    continue
                for artist in rng.choice(8, size=5, replace=False).tolist():
                    rows.append((k, city, f"a{artist}", int(rng.integers(1, 50))))
        velocities = build_velocities(make_series(rows))
        assert any(
            (b - a).days == 21
            for a, b in zip(velocities.weeks, velocities.weeks[1:])
        )
        assert not velocities.defined[:, velocities.cities.index("n")].all()
        cities = velocities.cities
        configs = self.configs(cities, 4) + (
            LagConfig(2, tuple(reversed(cities))),
        )
        self.assert_bit_equal(velocities, cities, configs, active_rule)

    @pytest.mark.parametrize("active_rule", ["target", "union"])
    def test_bit_equal_off_grid(self, active_rule):
        velocities = off_grid_velocities(5)
        # Some week's furthest lag lies further back than lag_count weeks,
        # so a ring of lag_count + 1 slabs would not hold it.
        ordinals = [w.toordinal() for w in velocities.weeks]
        back = [
            i - ordinals.index(o - 7 * 3)
            for i, o in enumerate(ordinals)
            if o - 7 * 3 in ordinals
        ]
        assert max(back) > 3 + 1
        configs = self.configs(velocities.cities, 3)
        self.assert_bit_equal(velocities, ("m",), configs, active_rule)

    def test_positions_for_other_series(self, small_series, small_velocities):
        config = LagConfig(4, ("echo",))
        positions = slab_positions(small_velocities)
        others = (
            build_velocities(small_series, cities=("echo", "lead")),
            build_velocities(small_series, artists=set(small_series.artists[1:])),
        )
        for other in others:
            assert other.n_weeks == small_velocities.n_weeks
            with pytest.raises(ValueError, match="another velocity series"):
                build_design(
                    small_velocities,
                    "echo",
                    config,
                    positions=slab_positions(other),
                )
            with pytest.raises(ValueError, match="another velocity series"):
                build_design(other, "echo", config, positions=positions)
        with pytest.raises(ValueError, match="another velocity series"):
            build_design(
                small_velocities, "echo", config, positions=positions[:-1]
            )


class TestDeterminismAndEquivariance:
    def test_bit_identical_rebuild(self, small_velocities):
        config = LagConfig(8, small_velocities.cities)
        a = build_design(small_velocities, "echo", config)
        b = build_design(small_velocities, "echo", config)
        assert a.x.tobytes() == b.x.tobytes()
        assert a.y.tobytes() == b.y.tobytes()
        assert row_labels(a) == row_labels(b) and a.col_meta == b.col_meta

    def test_city_permutation(self, small_velocities):
        cities = small_velocities.cities
        permuted = tuple(reversed(cities))
        d1 = build_design(
            small_velocities, "echo", LagConfig(4, cities)
        )
        d2 = build_design(
            small_velocities, "echo", LagConfig(4, permuted)
        )
        mapping = [d2.col_meta.index(meta) for meta in d1.col_meta]
        assert np.array_equal(d1.x, d2.x[:, mapping])
        boundary = default_boundary(small_velocities.weeks)
        s1, s2 = temporal_split(d1, boundary), temporal_split(d2, boundary)
        p1 = predict(s1.test.x, fit_ols(s1.train.x, s1.train.y))
        p2 = predict(s2.test.x, fit_ols(s2.train.x, s2.train.y))
        assert p1 == pytest.approx(p2, abs=1e-10)


class TestErrors:
    def test_unknown_target(self, small_velocities):
        with pytest.raises(UnknownCityError):
            build_design(
                small_velocities, "atlantis", LagConfig(8, ("atlantis",))
            )

    def test_unknown_included_city(self, small_velocities):
        config = LagConfig(8, ("echo", "atlantis"))
        with pytest.raises(UnknownCityError):
            build_design(small_velocities, "echo", config)

    def test_too_few_weeks(self):
        rows = [(k, "m", "a", 5 + k) for k in range(5)] + [
            (k, "m", "b", 9) for k in range(5)
        ]
        velocities = build_velocities(make_series(rows))
        with pytest.raises(InsufficientDataError):
            build_design(velocities, "m", LagConfig(8, ("m",)))

    def test_huge_lag_count_fails_before_labelling_columns(
        self, small_velocities
    ):
        config = LagConfig(10**5, small_velocities.cities)
        tracemalloc.start()
        try:
            with pytest.raises(InsufficientDataError):
                build_design(small_velocities, "echo", config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20
        # An unknown city still wins over the lag count.
        config = LagConfig(10**5, ("echo", "atlantis"))
        with pytest.raises(UnknownCityError):
            build_design(small_velocities, "echo", config)

    def test_bad_active_rule(self, small_velocities):
        with pytest.raises(ValueError):
            build_design(
                small_velocities, "echo", LagConfig(8, ("echo",)), "both"
            )

    def test_bad_config(self):
        with pytest.raises(ValueError, match="lag_count"):
            LagConfig(0, ("a",))
        with pytest.raises(ValueError, match="at least one city"):
            LagConfig(8, ())
        with pytest.raises(TypeError):
            LagConfig(8)
        with pytest.raises(ValueError, match="'a' more than once"):
            LagConfig(8, ("a", "b", "a"))


class TestTemporalSplit:
    def test_partition_and_order(self, small_velocities):
        design = build_design(
            small_velocities,
            "echo",
            LagConfig(8, small_velocities.cities),
        )
        boundary = default_boundary(small_velocities.weeks)
        split = temporal_split(design, boundary)
        assert split.train.n_rows + split.test.n_rows == design.n_rows
        assert all(w < boundary for _, w in row_labels(split.train))
        assert all(w >= boundary for _, w in row_labels(split.test))
        rejoined = row_labels(split.train) + row_labels(split.test)
        assert rejoined == row_labels(design)  # order preserved within parts
        assert split.train.col_meta == split.test.col_meta == design.col_meta
        stacked = np.vstack([split.train.x, split.test.x])
        assert np.array_equal(stacked, design.x)

    def test_parts_are_views(self, small_velocities):
        design = build_design(
            small_velocities,
            "echo",
            LagConfig(8, small_velocities.cities),
        )
        split = temporal_split(design, default_boundary(small_velocities.weeks))
        for part in (split.train, split.test):
            for name in ("x", "y", "week_idx", "artist_idx"):
                assert np.shares_memory(getattr(part, name), getattr(design, name))

    def test_boundary_before_everything(self, small_velocities):
        design = build_design(small_velocities, "echo", LagConfig(8, ("echo",)))
        with pytest.raises(DegenerateSplitError):
            temporal_split(design, date(2000, 1, 1))

    def test_boundary_after_everything(self, small_velocities):
        design = build_design(small_velocities, "echo", LagConfig(8, ("echo",)))
        with pytest.raises(DegenerateSplitError):
            temporal_split(design, date(2030, 1, 1))

    def test_two_thirds_default(self):
        weeks = [week(k) for k in range(156)]
        assert default_boundary(weeks) == week(104)


def test_design_csv_dump():
    series, _, _ = single_city_fixture()
    velocities = build_velocities(series)
    design = build_design(velocities, "m", LagConfig(2, ("m",)))
    text = design_csv_text(design)
    header = text.splitlines()[0]
    assert header == "artist,week,y,m@lag1,m@lag2"
    assert len(text.splitlines()) == design.n_rows + 1
