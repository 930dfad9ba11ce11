"""Synthetic corpus generator: determinism, planted structure, validation."""

import hashlib
import json
from collections import Counter
from dataclasses import astuple, replace
from datetime import date, timedelta

import pytest

from chartflow import (
    Influence,
    PlantSpec,
    fingerprint,
    generate_planted,
    write_chart_csv,
)
from chartflow.cli import main
from chartflow.errors import PlantSpecError
from chartflow.synth import sidecar_json_text

from conftest import NULL_SPEC, REFERENCE_SPEC, SMALL_PLANT, series_from_rows
from test_golden import REFERENCE_SPEC_SHA256, SMALL_PLANT_SHA256

# Hash of the bare header line; the digest of an empty corpus.
EMPTY_DIGEST = "81269196093390e00fbbc64ea76b3acba7deb5ffde7e84166516b7c7bee38cb7"


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
