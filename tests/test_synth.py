"""Synthetic corpus generator: determinism, planted structure, validation."""

import hashlib
import json
import os
import re
import subprocess
import sys
import tracemalloc
from collections import Counter
from dataclasses import astuple, replace
from datetime import date, timedelta
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartflow import (
    Influence,
    PlantSpec,
    fingerprint,
    generate_planted,
    write_chart_csv,
)
from chartflow.cli import main
from chartflow.errors import PlantSpecError
from chartflow.synth import _chart_top, sidecar_json_text

from conftest import NULL_SPEC, REFERENCE_SPEC, SMALL_PLANT, series_from_rows
from test_golden import REFERENCE_SPEC_SHA256, SMALL_PLANT_SHA256
from oracles import oracle_chart_top

ROOT = Path(__file__).resolve().parent.parent

# Hash of the bare header line; the digest of an empty corpus.
EMPTY_DIGEST = "81269196093390e00fbbc64ea76b3acba7deb5ffde7e84166516b7c7bee38cb7"


def shape_spec(cities, influence=(), **overrides):
    fields = dict(weeks=36, artists=40, chart_size=12, noise_sigma=0.05, seed=29)
    fields.update(overrides)
    return PlantSpec(cities=cities, influence=influence, **fields)


# One spec per shape of influence graph and chart, with the corpus digest
# recorded before charts were written city by city.
SHAPES = {
    "chain": (
        shape_spec(
            (("a", "leader"), ("b", "unlabeled"), ("c", "follower")),
            (Influence("a", "b", 2, 0.7), Influence("b", "c", 3, 0.9)),
        ),
        "0cdb304108112f4f03490ddfaaa38749d59d19a10c183492be89cbcbefe67b3a",
    ),
    "two-leaders": (
        shape_spec(
            (("c", "follower"), ("a", "leader"), ("b", "leader")),
            (Influence("a", "c", 1, 0.5), Influence("b", "c", 4, 0.8)),
        ),
        "ec6be1546176ef24b581f0d0af40ea41dfd6837c0867de96661d33e509c9f83a",
    ),
    "two-followers": (
        shape_spec(
            (("lead", "leader"), ("f2", "follower"), ("f1", "follower")),
            (Influence("lead", "f1", 2, 0.8), Influence("lead", "f2", 5, 1.0)),
        ),
        "22699778937c9b564ac28924978a8b1e2598d78e240e0f3f97876bdf70e9c995",
    ),
    "full-chart": (
        shape_spec(
            (("x", "leader"), ("y", "follower")),
            (Influence("x", "y", 2, 0.6),),
            chart_size=40,
        ),
        "8c9f24e933d7ff3b9ab9d484990e1cb0480e15112ff9d3ceb19d725b2ba5e73b",
    ),
    "no-edges": (
        shape_spec((("q", "unlabeled"), ("p", "unlabeled"))),
        "175139b12d1c1656e0eb19e6c4c36df7056d1a39af5f7ab4e631b9052ca308f4",
    ),
}

# Its walks overflow to +-inf, which clip to counts of 1 and 10**15.
INF_WALK_SPEC = PlantSpec(
    cities=(("solo", "unlabeled"), ("lead", "leader"), ("echo", "follower")),
    influence=(Influence("lead", "echo", 2, 0.5),),
    weeks=40,
    artists=30,
    chart_size=20,
    noise_sigma=0.05,
    walk_sigma=3e307,
    seed=8,
)
INF_WALK_SHA256 = (
    "2c7d420d2771aa2ef6533574aa99e6c01c4f5ae62840a9f9197646c95b69e55c"
)


class TestDeterminism:
    def test_bit_identical_runs(self):
        a = generate_planted(SMALL_PLANT)
        b = generate_planted(SMALL_PLANT)
        assert a == b
        assert fingerprint(a) == fingerprint(b)

    def test_seed_changes_output(self):
        other = PlantSpec(
            cities=SMALL_PLANT.cities,
            influence=SMALL_PLANT.influence,
            weeks=SMALL_PLANT.weeks,
            artists=SMALL_PLANT.artists,
            noise_sigma=SMALL_PLANT.noise_sigma,
            seed=SMALL_PLANT.seed + 1,
        )
        assert fingerprint(generate_planted(other)) != fingerprint(
            generate_planted(SMALL_PLANT)
        )


@pytest.mark.parametrize("shape", SHAPES)
def test_shape_digests(shape):
    spec, digest = SHAPES[shape]
    assert fingerprint(generate_planted(spec)) == digest


def test_peak_memory_is_bounded_by_the_columns():
    names = [f"c{i:02d}" for i in range(30)]
    roles = {"c00": "leader", "c01": "follower"}
    spec = PlantSpec(
        cities=tuple((n, roles.get(n, "unlabeled")) for n in names),
        influence=(Influence("c00", "c01", 2, 0.8),),
        weeks=40,
        artists=200,
        chart_size=50,
        noise_sigma=0.04,
        seed=101,
    )
    tracemalloc.start()
    try:
        series = generate_planted(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(
        column.nbytes
        for column in (series.week_idx, series.city_idx, series.artist_idx,
                       series.listeners)
    )
    assert len(series) == 40 * 30 * 50
    assert peak <= 3 * columns, (peak, columns)


def test_peak_memory_with_four_leaders_is_bounded_by_the_columns():
    """Four leader->follower pairs at lags 1-4 among independent cities:
    each follower is walked right after its leader, which then drops its
    walk, so at most one leader's innovations are held at a time."""
    names = [f"c{i:02d}" for i in range(12)]
    roles = {**{n: "leader" for n in names[:4]},
             **{n: "follower" for n in names[4:8]}}
    spec = PlantSpec(
        cities=tuple((n, roles.get(n, "unlabeled")) for n in names),
        influence=tuple(
            Influence(names[i], names[7 - i], i + 1, 0.8) for i in range(4)
        ),
        weeks=120,
        artists=600,
        chart_size=120,
        noise_sigma=0.04,
        seed=101,
    )
    tracemalloc.start()
    try:
        series = generate_planted(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(
        column.nbytes
        for column in (series.week_idx, series.city_idx, series.artist_idx,
                       series.listeners)
    )
    assert len(series) == 120 * 12 * 120
    assert peak <= 1.6 * columns, (peak, columns)


@st.composite
def tied_counts(draw):
    """A count matrix drawn from few values, so most rows hold ties; some
    rows are all one value. Returns it with a chart width."""
    rows = draw(st.integers(1, 6))
    n = draw(st.integers(2, 12))
    value = st.sampled_from([1, 2, 3, 10**15])
    counts = np.array([
        [draw(value)] * n if draw(st.booleans())
        else draw(st.lists(value, min_size=n, max_size=n))
        for _ in range(rows)
    ], dtype=np.int64)
    width = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n)))
    return counts, width


@given(tied_counts())
@settings(max_examples=200, deadline=None)
def test_chart_top_matches_a_stable_sort(drawn):
    counts, width = drawn
    expected = oracle_chart_top(counts, width)
    for values in (counts, counts.astype(np.float64)):
        np.testing.assert_array_equal(_chart_top(values, width), expected)


class TestPlantedStructure:
    def test_exact_lagged_copy_when_strength_one_no_noise(self):
        spec = PlantSpec(
            cities=(("lead", "leader"), ("echo", "follower")),
            influence=(Influence("lead", "echo", 3, 1.0),),
            weeks=40,
            artists=50,
            noise_sigma=0.0,
            seed=5,
        )
        series = generate_planted(spec)
        charts = {}
        for rec in series.records:
            charts.setdefault((rec.city, rec.week_start), {})[
                rec.artist
            ] = rec.listeners
        checked = 0
        for (city, week), chart in charts.items():
            if city != "echo":
                continue
            source = charts.get(("lead", week - timedelta(days=21)))
            if source is not None:
                assert source == chart
                checked += 1
        assert checked == 40 - 3

    def test_truncation_realism(self):
        spec = PlantSpec(
            cities=(("solo", "unlabeled"),),
            weeks=20,
            artists=600,
            chart_size=500,
            noise_sigma=0.03,
            seed=77,
        )
        series = generate_planted(spec)
        per_week = Counter((r.city, r.week_start) for r in series.records)
        assert set(per_week.values()) == {500}

    def test_no_truncation_below_chart_size(self):
        series = generate_planted(SMALL_PLANT)
        per_week = Counter((r.city, r.week_start) for r in series.records)
        assert set(per_week.values()) == {SMALL_PLANT.artists}

    def test_canonical_ordering(self):
        series = generate_planted(SMALL_PLANT)
        rows = [astuple(r) for r in series.records]
        assert series == series_from_rows(rows, series.region_label)


class TestFingerprint:
    def test_order_independent(self):
        series = generate_planted(SMALL_PLANT)
        rows = [astuple(r) for r in reversed(series.records)]
        shuffled = series_from_rows(rows, series.region_label)
        assert fingerprint(shuffled) == fingerprint(series)

    def test_sensitive_to_one_count(self):
        series = generate_planted(SMALL_PLANT)
        rows = [astuple(r) for r in series.records]
        week_start, city, artist, listeners = rows[0]
        rows[0] = (week_start, city, artist, listeners + 1)
        altered = series_from_rows(rows, series.region_label)
        assert fingerprint(altered) != fingerprint(series)

    def test_empty_digest(self):
        assert fingerprint(series_from_rows([])) == EMPTY_DIGEST

    def test_write_returns_digest_of_bytes_written(self, tmp_path):
        cases = [
            (generate_planted(SMALL_PLANT), SMALL_PLANT_SHA256),
            (generate_planted(REFERENCE_SPEC), REFERENCE_SPEC_SHA256),
            (series_from_rows([]), EMPTY_DIGEST),
        ]
        for series, golden in cases:
            path = tmp_path / "corpus.csv"
            digest = write_chart_csv(series, path)
            assert digest == fingerprint(series) == golden
            assert hashlib.sha256(path.read_bytes()).hexdigest() == golden


class TestSpecValidation:
    def base(self, **overrides):
        fields = dict(
            cities=(("a", "leader"), ("b", "follower")),
            influence=(Influence("a", "b", 2, 0.5),),
            weeks=60,
            artists=10,
            noise_sigma=0.05,
            seed=1,
        )
        fields.update(overrides)
        return fields

    def test_valid(self):
        PlantSpec(**self.base())

    def test_bad_role(self):
        with pytest.raises(PlantSpecError):
            PlantSpec(**self.base(cities=(("a", "boss"), ("b", "follower"))))

    def test_duplicate_city(self):
        with pytest.raises(PlantSpecError):
            PlantSpec(**self.base(cities=(("a", "leader"), ("a", "follower"))))

    def test_self_edge(self):
        with pytest.raises(PlantSpecError):
            PlantSpec(**self.base(influence=(Influence("a", "a", 2, 0.5),)))

    def test_unknown_edge_city(self):
        with pytest.raises(PlantSpecError):
            PlantSpec(**self.base(influence=(Influence("a", "zz", 2, 0.5),)))

    def test_zero_lag(self):
        with pytest.raises(PlantSpecError):
            PlantSpec(**self.base(influence=(Influence("a", "b", 0, 0.5),)))

    def test_strength_out_of_range(self):
        for bad in (0.0, 1.5, -0.2):
            with pytest.raises(PlantSpecError):
                PlantSpec(**self.base(influence=(Influence("a", "b", 2, bad),)))

    def test_too_few_weeks(self):
        with pytest.raises(PlantSpecError):
            PlantSpec(**self.base(weeks=15))

    def test_cycle_rejected(self):
        cities = (("a", "leader"), ("b", "follower"), ("c", "unlabeled"))
        edges = (
            Influence("a", "b", 2, 0.5),
            Influence("b", "c", 1, 0.5),
            Influence("c", "a", 3, 0.5),
        )
        with pytest.raises(PlantSpecError):
            PlantSpec(**self.base(cities=cities, influence=edges))

    def test_chain_allowed(self):
        cities = (("a", "leader"), ("b", "unlabeled"), ("c", "follower"))
        edges = (
            Influence("a", "b", 2, 0.5),
            Influence("b", "c", 1, 0.5),
        )
        series = generate_planted(
            PlantSpec(**self.base(cities=cities, influence=edges))
        )
        assert len(series.cities) == 3


class TestSpecSerialization:
    def test_round_trip(self):
        again = PlantSpec.from_dict(SMALL_PLANT.to_dict())
        assert again == SMALL_PLANT

    def test_unknown_key(self):
        raw = SMALL_PLANT.to_dict()
        raw["sauce"] = 1
        with pytest.raises(PlantSpecError):
            PlantSpec.from_dict(raw)

    def test_missing_key(self):
        raw = SMALL_PLANT.to_dict()
        del raw["weeks"]
        with pytest.raises(PlantSpecError):
            PlantSpec.from_dict(raw)

    def test_absent_keys_take_field_defaults(self):
        required = ("cities", "weeks", "artists", "noise_sigma", "seed")
        raw = {key: SMALL_PLANT.to_dict()[key] for key in required}
        assert PlantSpec.from_dict(raw) == replace(SMALL_PLANT, influence=())

    def test_first_malformed_key_names_the_error(self):
        raw = {**SMALL_PLANT.to_dict(), "weeks": "many", "seed": "lucky"}
        with pytest.raises(PlantSpecError, match="'many'"):
            PlantSpec.from_dict(raw)

    @pytest.mark.parametrize(
        "path, value",
        [
            (("cities", 2, "name"), 5),
            (("influence", 0, "lag"), 2.7),
            (("influence", 0, "strength"), "0.8"),
            (("weeks",), 60.9),
            (("artists",), True),
            (("chart_size",), 12.0),
            (("noise_sigma",), "0.1"),
            (("walk_sigma",), False),
            (("seed",), "7"),
        ],
    )
    def test_ill_typed_value_exits_2(self, path, value, tmp_path, capsys):
        """A value of the wrong JSON type is an error naming it, never
        coerced and never a traceback."""
        raw = SMALL_PLANT.to_dict()
        *parents, key = path
        holder = raw
        for step in parents:
            holder = holder[step]
        holder[key] = value
        named = f"got {re.escape(repr(value))}$"
        with pytest.raises(PlantSpecError, match=named):
            PlantSpec.from_dict(raw)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["synth", str(spec_path), "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "corpus.csv").exists()

    @pytest.mark.parametrize(
        "path, drop, extra",
        [
            (("cities", 0), "role", "rol"),
            (("cities", 2), None, "colour"),
            (("influence", 0), None, "strenght"),
            (("influence", 0), None, "weight"),
        ],
    )
    def test_unknown_entry_key_exits_2(self, path, drop, extra, tmp_path, capsys):
        """A key a ``cities`` or ``influence`` entry does not have is an
        error naming it, never dropped."""
        raw = SMALL_PLANT.to_dict()
        entry = raw[path[0]][path[1]]
        if drop is not None:
            entry[extra] = entry.pop(drop)
        else:
            entry[extra] = 0.9
        with pytest.raises(PlantSpecError, match=rf"unknown keys \['{extra}'\]"):
            PlantSpec.from_dict(raw)
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["synth", str(spec_path), "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "corpus.csv").exists()

    def test_from_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(SMALL_PLANT.to_dict()), encoding="utf-8")
        assert PlantSpec.from_json_file(path) == SMALL_PLANT

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(PlantSpecError):
            PlantSpec.from_json_file(path)

    @pytest.mark.parametrize(
        "key, literal",
        [(key, "1e400") for key in ("weeks", "artists", "chart_size", "seed",
                                    "lag", "noise_sigma", "walk_sigma",
                                    "city_size")]
        + [(key, "NaN") for key in ("noise_sigma", "walk_sigma", "city_size")],
    )
    def test_non_finite_number_exits_2(self, key, literal, tmp_path, capsys):
        # JSON reads 1e400 as infinity; int() of it overflows.
        raw = SMALL_PLANT.to_dict()
        if key == "lag":
            raw["influence"][0]["lag"] = "N"
        else:
            raw[key] = "N"
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw).replace('"N"', literal), encoding="utf-8")
        with pytest.raises(PlantSpecError):
            PlantSpec.from_json_file(path)
        assert main(["synth", str(path), "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "corpus.csv").exists()

    def test_weeks_past_last_date_exit_2(self, tmp_path, capsys):
        last_start = date.max - timedelta(weeks=39)
        assert replace(SMALL_PLANT, weeks=40, start_week=last_start)
        raw = {**SMALL_PLANT.to_dict(), "start_week": "9999-12-01", "weeks": 40}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        with pytest.raises(PlantSpecError, match="run past 9999-12-31"):
            PlantSpec.from_json_file(path)
        assert main(["synth", str(path), "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "corpus.csv").exists()

    def test_sidecar_contains_digest(self):
        text = sidecar_json_text(SMALL_PLANT, "abc123")
        payload = json.loads(text)
        assert payload["fingerprint"] == "abc123"
        assert payload["spec"]["seed"] == SMALL_PLANT.seed

    def test_labels(self):
        assert SMALL_PLANT.labels() == {"lead": "leader", "echo": "follower"}
        assert NULL_SPEC.labels() == {"alpha": "leader", "beta": "follower"}


class TestOverflow:
    def overflow_specs(self):
        base = dict(
            cities=(("a", "leader"), ("b", "follower")),
            influence=(Influence("a", "b", 2, 0.5),),
            weeks=40,
            artists=30,
            chart_size=20,
            noise_sigma=0.05,
            seed=3,
        )
        return {
            "b": PlantSpec(**{**base, "noise_sigma": 1e308}),
            "a": PlantSpec(**{**base, "walk_sigma": 1e308}),
        }

    def test_nan_walk_names_the_city(self):
        for city, spec in self.overflow_specs().items():
            with pytest.raises(PlantSpecError, match=f"city '{city}'"):
                generate_planted(spec)

    def test_nan_walk_exits_2_without_warnings(self, tmp_path):
        for city, spec in self.overflow_specs().items():
            path = tmp_path / "spec.json"
            path.write_text(json.dumps(spec.to_dict()), encoding="utf-8")
            # A fresh interpreter, so stderr shows what a user would see.
            done = subprocess.run(
                [sys.executable, "-m", "chartflow.cli", "synth", str(path),
                 "--output-dir", str(tmp_path)],
                capture_output=True, text=True,
                env={**{k: v for k, v in os.environ.items()
                        if not k.startswith("CHARTFLOW_")},
                     "PYTHONPATH": str(ROOT / "src")},
            )
            assert done.returncode == 2, done.stderr
            assert done.stderr.startswith(f"error: city '{city}'"), done.stderr
            assert done.stderr.count("\n") == 1, done.stderr
            assert "RuntimeWarning" not in done.stderr
            assert not (tmp_path / "corpus.csv").exists()

    def test_infinite_walk_keeps_its_bytes(self):
        series = generate_planted(INF_WALK_SPEC)
        assert fingerprint(series) == INF_WALK_SHA256
        assert {1, 10**15} <= set(series.listeners.tolist())

    def test_spec_too_large_to_allocate_exits_2(self, tmp_path, capsys):
        # The first allocation asks for hundreds of TiB, so it fails at once.
        raw = {**SMALL_PLANT.to_dict(), "artists": 1_000_000_000_000}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["synth", str(path), "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory: "), err
        assert err.count("\n") == 1, err
        assert not (tmp_path / "corpus.csv").exists()
