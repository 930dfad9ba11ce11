"""Scoring, percentages, and region-report assembly."""

import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from chartflow import (
    CityResult,
    LagConfig,
    baseline_rmse,
    build_artist_index,
    build_design,
    build_report,
    build_velocities,
    compute_velocities,
    default_boundary,
    evaluate_city,
    evaluate_region,
    normalize_rows,
    percent_of_baseline,
    read_labels_csv,
    report_csv_text,
    report_json_text,
    generate_planted,
    report_table_text,
    rmse,
    temporal_split,
    to_listeners_matrices,
)
from chartflow import design as design_module
from chartflow import evaluate as evaluate_module
from chartflow.errors import (
    DimensionError,
    ParseError,
    UndefinedBaselineError,
)
from chartflow.design import slab_positions
from chartflow.evaluate import format_pct
from chartflow.preprocess import _restrict_artists

from conftest import SMALL_PLANT, make_series

# Transcribed reference table for the North America all-genres run: rows are
# (city, self_pct, all_pct, difference), followed by the published averages.
NORTH_AMERICA_ALL = [
    ("New York", 71.5, 68.6, 2.9),
    ("Phoenix", 78.1, 74.6, 3.5),
    ("Vancouver", 78.1, 74.7, 3.4),
    ("Pittsburgh", 78.0, 74.9, 3.0),
    ("Philadelphia", 78.9, 75.1, 3.9),
    ("Minneapolis", 79.3, 75.1, 4.2),
    ("Las Vegas", 77.2, 75.2, 2.1),
    ("Atlanta", 79.8, 75.4, 4.5),
    ("Montreal", 78.3, 75.6, 2.7),
    ("Denver", 80.5, 76.1, 4.4),
    ("San Diego", 80.3, 76.1, 4.2),
    ("Portland", 80.4, 76.1, 4.3),
    ("Houston", 80.3, 76.3, 4.0),
    ("Columbus", 80.0, 76.4, 3.6),
    ("Boston", 80.5, 76.7, 3.9),
    ("Austin", 81.9, 77.0, 4.8),
    ("San Francisco", 82.3, 77.3, 5.1),
    ("Toronto", 81.6, 78.2, 3.5),
    ("Seattle", 83.5, 78.5, 5.0),
    ("Los Angeles", 83.9, 78.9, 5.0),
    ("Chicago", 84.1, 79.4, 4.7),
]
NA_LEADERS = {"Pittsburgh", "Atlanta", "Montreal", "Houston", "Toronto", "Chicago"}
NA_FOLLOWERS = {"Vancouver", "Denver", "Portland", "Boston", "San Francisco", "Seattle"}


def transcribed_results():
    return [
        CityResult(
            city=city,
            self_history_pct=self_pct,
            all_history_pct=all_pct,
            difference=diff,
        )
        for city, self_pct, all_pct, diff in NORTH_AMERICA_ALL
    ]


def na_labels():
    labels = {city: "leader" for city in NA_LEADERS}
    labels.update({city: "follower" for city in NA_FOLLOWERS})
    return labels


class TestRmse:
    def test_perfect(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert rmse([3.0, -4.0], [0.0, 0.0]) == pytest.approx(
            3.5355339059327378, abs=1e-12
        )

    def test_constant_error(self):
        assert rmse([1.0] * 4, [0.0, 2.0, 0.0, 2.0]) == pytest.approx(1.0)

    def test_length_mismatch(self):
        with pytest.raises(DimensionError):
            rmse([1.0], [1.0, 2.0])

    def test_empty(self):
        with pytest.raises(DimensionError):
            rmse([], [])


class TestBaseline:
    def test_zeros(self):
        assert baseline_rmse([0.0, 0.0]) == 0.0

    def test_hand_value(self):
        assert baseline_rmse([3.0, -4.0]) == pytest.approx(math.sqrt(12.5))

    def test_definitional_identity(self):
        y = [0.5, -1.5, 2.5]
        assert baseline_rmse(y) == rmse(y, [0.0, 0.0, 0.0])


class TestPercent:
    def test_equal_is_100(self):
        assert percent_of_baseline(2.5, 2.5) == 100.0

    def test_half_is_50(self):
        assert percent_of_baseline(1.25, 2.5) == 50.0

    def test_zero_model(self):
        assert percent_of_baseline(0.0, 2.5) == 0.0

    def test_zero_baseline(self):
        with pytest.raises(UndefinedBaselineError):
            percent_of_baseline(1.0, 0.0)


class TestFormatPct:
    def test_one_decimal_half_up(self):
        assert format_pct(4.35) == "4.4"
        assert format_pct(26.1 / 6) == "4.4"
        assert format_pct(3.9380952) == "3.9"
        assert format_pct(100.0) == "100.0"

    def test_none(self):
        assert format_pct(None) == ""


class TestReportGolden:
    def test_sort_order_matches_reference(self):
        report = build_report(transcribed_results(), na_labels(), "N. America", "all")
        assert [r.city for r in report.rows] == [
            row[0] for row in NORTH_AMERICA_ALL
        ]

    def test_group_averages(self):
        report = build_report(transcribed_results(), na_labels(), "N. America", "all")
        assert format_pct(report.avg_leaders) == "3.7"
        assert format_pct(report.avg_followers) == "4.4"
        assert format_pct(report.avg_all[0]) == "79.9"
        assert format_pct(report.avg_all[1]) == "76.0"

    def test_rendered_table(self):
        report = build_report(transcribed_results(), na_labels(), "N. America", "all")
        lines = report_table_text(report).splitlines()
        assert lines[0] == "City,Self history,All history,Difference"
        assert lines[1] == "New York,71.5,68.6,2.9"
        assert lines[7] == "Las Vegas,77.2,75.2,2.1"
        assert lines[21] == "Chicago,84.1,79.4,4.7"
        assert lines[22].startswith("Avg. all,79.9,76.0,")
        assert lines[23] == "Avg. leaders,,,3.7"
        assert lines[24] == "Avg. followers,,,4.4"

    def test_single_city(self):
        row = CityResult("Solo", 80.0, 75.0, 5.0)
        report = build_report([row], {}, "r", "all")
        assert report.avg_all == (80.0, 75.0, 5.0)

    def test_no_labels_absent_averages(self):
        report = build_report(transcribed_results(), {}, "r", "all")
        assert report.avg_leaders is None
        assert report.avg_followers is None

    def test_unknown_role_rejected(self):
        with pytest.raises(ValueError):
            build_report([], {"x": "pioneer"}, "r", "all")

    def test_stable_ties_and_failures_last(self):
        rows = [
            CityResult("b", 80.0, 75.0, 5.0),
            CityResult("a", 81.0, 75.0, 6.0),
            CityResult("broken", None, None, None, status="boom"),
            CityResult("c", 70.0, 74.0, -4.0),
        ]
        report = build_report(rows, {}, "r", "all")
        assert [r.city for r in report.rows] == ["c", "b", "a", "broken"]


class TestEvaluateCity:
    def test_planted_follower(self, small_velocities):
        alls = LagConfig(8, small_velocities.cities)
        result = evaluate_city(small_velocities, "echo", alls)
        assert result.ok
        assert result.all_history_pct < result.self_history_pct
        assert result.difference == pytest.approx(
            result.self_history_pct - result.all_history_pct, abs=1e-9
        )
        assert result.sample_counts[0] > 0 and result.sample_counts[1] > 0

    def test_config_validated(self, small_velocities):
        alls = LagConfig(8, small_velocities.cities)
        with pytest.raises(ValueError):
            evaluate_city(small_velocities, "echo", alls, solver_variant="lasso")
        with pytest.raises(ValueError, match="does not include target"):
            evaluate_city(
                small_velocities,
                "echo",
                LagConfig(8, ("lead", "other")),
            )

    def test_own_model_is_target_slice_of_all_design(self, small_velocities):
        # Listing the target last moves its columns; the result must not move.
        first = LagConfig(8, ("echo", "lead", "other"))
        last = LagConfig(8, ("lead", "other", "echo"))
        a = evaluate_city(small_velocities, "echo", first)
        b = evaluate_city(small_velocities, "echo", last)
        assert a.self_history_pct == pytest.approx(b.self_history_pct, abs=1e-9)
        assert a.all_history_pct == pytest.approx(b.all_history_pct, abs=1e-9)
        assert a.sample_counts == b.sample_counts

    def test_ridge_rejected_under_nnls(self, small_velocities):
        alls = LagConfig(4, small_velocities.cities)
        with pytest.raises(ValueError, match="ridge"):
            evaluate_city(
                small_velocities,
                "echo",
                alls,
                solver_variant="nnls",
                ridge=1000.0,
            )

    def test_nnls_variant_runs(self, small_velocities):
        alls = LagConfig(4, small_velocities.cities)
        result = evaluate_city(
            small_velocities, "echo", alls, solver_variant="nnls"
        )
        assert result.ok


class TestEvaluateRegion:
    def test_all_cities_scored(self, small_velocities):
        results = evaluate_region(small_velocities)
        assert [r.city for r in results] == list(small_velocities.cities)
        assert all(r.ok for r in results)

    def test_failure_becomes_status_row(self):
        # "tiny" charts only 4 weeks, far too few for an 8-lag design.
        rows = []
        for k in range(40):
            rows += [(k, "big", "a", 10 + k), (k, "big", "b", 52 - k)]
            if k < 4:
                rows += [(k, "tiny", "a", 5 + k)]
        velocities = build_velocities(make_series(rows))
        results = evaluate_region(velocities)
        by_city = {r.city: r for r in results}
        assert by_city["big"].ok
        assert not by_city["tiny"].ok
        assert by_city["tiny"].status != "ok"
        report = build_report(results, {}, "r", "all")
        assert report.rows[-1].city == "tiny"

    def test_non_finite_city_does_not_abort_region(self):
        # Artist "q" charts only in "bad", so a NaN in bad's q velocity
        # reaches bad's own design and no other city's.
        rows = []
        for k in range(40):
            for city in ("bad", "good", "fine"):
                rows += [(k, city, "a", 10 + k), (k, city, "b", 60 - k)]
            rows += [(k, "bad", "q", 5 + (k * 7) % 11)]
        velocities = build_velocities(make_series(rows))
        artist_q = velocities.artists.index("q")
        bad = velocities.cities.index("bad")
        matrix = velocities.matrices[3]
        start, end = matrix.indptr[bad], matrix.indptr[bad + 1]
        hit = start + list(matrix.indices[start:end]).index(artist_q)
        matrix.data[hit] = np.nan
        results = {r.city: r for r in evaluate_region(velocities)}
        assert results["bad"].status.startswith("NonFiniteError")
        assert results["good"].ok and results["fine"].ok

    def test_unknown_included_city_gives_status_rows(self, small_velocities):
        results = evaluate_region(small_velocities, ("echo", "atlantis"))
        assert [r.city for r in results] == ["echo", "atlantis"]
        for result in results:
            assert result.status.startswith("UnknownCityError")

    def test_no_artists_gives_status_rows(self, small_series):
        index = build_artist_index(small_series)
        normalized = [
            normalize_rows(m) for m in to_listeners_matrices(small_series, index)
        ]
        sliced, kept = _restrict_artists(normalized, index, {"nobody"})
        velocities = compute_velocities(sliced, small_series.cities, kept)
        results = evaluate_region(velocities)
        assert [r.city for r in results] == list(small_series.cities)
        for result in results:
            assert result.status == (
                "InsufficientDataError: velocity series has no artists"
            )

    def test_one_position_build_per_region(self, small_velocities, monkeypatch):
        calls = []
        slab_positions = design_module.slab_positions

        def counted(velocities):
            calls.append(velocities)
            return slab_positions(velocities)

        monkeypatch.setattr(evaluate_module, "slab_positions", counted)
        monkeypatch.setattr(design_module, "slab_positions", counted)
        results = evaluate_region(small_velocities, solver_variant="nnls")
        assert all(r.ok for r in results)
        assert len(calls) == 1 and calls[0] is small_velocities

    @pytest.mark.parametrize("active_rule", ["target", "union"])
    def test_peak_memory_is_one_design(self, small_velocities, active_rule):
        """The traced peak is one design, the slab positions and the ring.

        The fixed 96 KiB of slack covers the fit and the rows' index arrays
        (the peak sits 56-80 KiB above the other terms), but not those and
        a region-wide (week, artist, city) array, 55 KiB here, together.
        """
        cities = small_velocities.cities
        config = LagConfig(8, cities)
        design_bytes = max(
            d.x.nbytes + d.y.nbytes
            for d in (
                build_design(small_velocities, c, config, active_rule)
                for c in cities
            )
        )
        position_bytes = sum(
            at.nbytes for at in slab_positions(small_velocities)
        )
        ring_bytes = (8 + 1) * len(small_velocities.artists) * len(cities) * 8
        tracemalloc.start()
        try:
            results = evaluate_region(small_velocities, active_rule=active_rule)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.ok for r in results)
        assert peak <= design_bytes + position_bytes + ring_bytes + 96 * 2**10

    @pytest.mark.parametrize("active_rule", ["target", "union"])
    @pytest.mark.parametrize("solver_variant", ["ols", "nnls"])
    def test_subset_velocities_give_equal_results(
        self, small_series, active_rule, solver_variant
    ):
        """Velocities built only for the included cities give the results
        that velocities built for every city give."""
        included = ("echo", "lead")
        kwargs = dict(lag_count=4, active_rule=active_rule,
                      solver_variant=solver_variant)
        part = build_velocities(small_series, cities=included)
        assert part.cities == ("echo", "lead")
        results = evaluate_region(part, included, **kwargs)
        assert all(r.ok for r in results)
        assert results == evaluate_region(
            build_velocities(small_series), included, **kwargs
        )


class TestUnionActiveSet:
    """Under ``union`` both models share the all-history sample set."""

    @pytest.fixture(scope="class")
    def sparse_chart_velocities(self):
        # 12 of 40 artists chart per city-week, so no city covers them all.
        spec = dataclasses.replace(SMALL_PLANT, chart_size=12)
        return build_velocities(generate_planted(spec))

    def test_every_city_ok(self, sparse_chart_velocities):
        velocities = sparse_chart_velocities
        results = evaluate_region(velocities, lag_count=4, active_rule="union")
        assert [r.status for r in results] == ["ok"] * len(velocities.cities)
        boundary = default_boundary(velocities.weeks)
        for result in results:
            config = LagConfig(4, velocities.cities)
            design = build_design(velocities, result.city, config, "union")
            split = temporal_split(design, boundary)
            assert result.sample_counts == (split.train.n_rows, split.test.n_rows)

    def test_union_widens_target_rule(self, sparse_chart_velocities):
        target = evaluate_region(sparse_chart_velocities, lag_count=4)
        union = evaluate_region(
            sparse_chart_velocities, lag_count=4, active_rule="union"
        )
        for t, u in zip(target, union):
            assert t.ok and u.ok
            assert sum(u.sample_counts) > sum(t.sample_counts)


class TestReportSerialization:
    def test_csv_layout(self):
        rows = [
            CityResult("a", 80.0, 75.0, 5.0),
            CityResult("bad", None, None, None, status="SplitError: nope"),
        ]
        text = report_csv_text(build_report(rows, {"a": "leader"}, "r", "all"))
        lines = text.splitlines()
        assert lines[0] == "city,self_pct,all_pct,difference,role,status"
        assert lines[1] == "a,80.0,75.0,5.0,leader,ok"
        assert lines[2] == "bad,,,,unlabeled,SplitError: nope"

    def test_json_round_trip(self):
        rows = [CityResult("a", 80.0, 75.0, 5.0, (120, 60), (False, True))]
        report = build_report(rows, {}, "region", "indie")
        text = report_json_text(report, {"lag_count": 8, "solver": "ols"})
        payload = json.loads(text)
        assert payload["genre_label"] == "indie"
        assert payload["rows"][0]["all_history_pct"] == 75.0
        assert payload["rows"][0]["rank_deficient_all"] is True
        assert payload["metadata"]["lag_count"] == 8
        assert payload["avg_all"]["difference"] == 5.0

    def test_sum_check_on_pipeline_rows(self, small_velocities):
        results = evaluate_region(small_velocities)
        report = build_report(results, {}, "r", "all")
        assert report.avg_all[2] == pytest.approx(
            report.avg_all[0] - report.avg_all[1], abs=1e-9
        )


def test_read_labels_csv(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("city,role\nmontreal,leader\ntoronto,follower\n")
    assert read_labels_csv(path) == {
        "montreal": "leader",
        "toronto": "follower",
    }


def test_read_labels_bad_role(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("city,role\nmontreal,chief\n")
    with pytest.raises(ParseError) as err:
        read_labels_csv(path)
    assert err.value.line == 2


def test_read_labels_city_labelled_twice(tmp_path):
    path = tmp_path / "labels.csv"
    path.write_text("city,role\nc00,leader\nc00,follower\n")
    with pytest.raises(ParseError, match="'c00' labelled twice") as err:
        read_labels_csv(path)
    assert err.value.line == 3
