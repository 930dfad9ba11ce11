"""Command-line driver: exit codes, determinism, config precedence."""

import argparse
import json

import pytest

from chartflow import (
    LagConfig,
    build_design,
    build_velocities,
    parse_chart_csv,
    write_chart_csv,
)
from chartflow.design import design_csv_text
from chartflow.cli import CliInputError, main, parse_config_file, resolve_config
from chartflow.errors import ChartFlowError

from conftest import SMALL_PLANT, make_series


@pytest.fixture()
def corpus_path(tmp_path, small_series):
    path = tmp_path / "corpus.csv"
    write_chart_csv(small_series, path)
    return path


@pytest.fixture()
def spec_path(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SMALL_PLANT.to_dict()), encoding="utf-8")
    return path


def run(argv):
    return main([str(a) for a in argv])


class TestValidate:
    def test_valid_corpus(self, corpus_path, capsys):
        assert run(["validate", "--corpus-path", corpus_path]) == 0
        out = capsys.readouterr().out
        assert "weeks: 60" in out
        assert "cities: 3" in out
        assert "fingerprint:" in out

    def test_corrupt_row_cites_line(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text(
            "week_start,city,artist,listeners\n2007-01-07,a,b,zounds\n"
        )
        assert run(["validate", "--corpus-path", path]) == 2
        assert "line 2" in capsys.readouterr().err

    def test_huge_listener_count_exits_2(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text(
            "week_start,city,artist,listeners\n"
            f"2007-01-07,a,b,1{'0' * 400}\n"
            "2007-01-14,a,b,5\n"
        )
        for command in ("validate", "evaluate"):
            code = run(
                [command, "--corpus-path", path, "--output-dir", tmp_path / "o"]
            )
            assert code == 2
            err = capsys.readouterr().err
            assert "line 2" in err and "listener count above" in err
            assert "Traceback" not in err

    def test_non_utf8_byte_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin.csv"
        path.write_bytes(
            b"week_start,city,artist,listeners\n"
            b"2007-01-07,a,b,5\n"
            b"2007-01-07,a,caf\xff,5\n"
        )
        for command in ("validate", "evaluate"):
            code = run(
                [command, "--corpus-path", path, "--output-dir", tmp_path / "o"]
            )
            assert code == 2
            err = capsys.readouterr().err
            assert "line 3" in err and "0xff" in err

    def test_non_utf8_labels_exit_2(self, corpus_path, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_bytes(b"city,role\n\xff,leader\n")
        code = run(
            [
                "evaluate",
                "--corpus-path", corpus_path,
                "--labels-path", labels,
                "--output-dir", tmp_path / "o",
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "not UTF-8" in err and "line 2" in err

    @pytest.mark.parametrize("flag", ["--corpus-path", "--labels-path"])
    def test_non_utf8_after_carriage_returns_names_line(
        self, flag, corpus_path, tmp_path, capsys
    ):
        # Lines end at a lone carriage return, as csv.reader counts them.
        path = tmp_path / "cr.csv"
        path.write_bytes({
            "--corpus-path": b"week_start,city,artist,listeners\r"
                             b"2007-01-07,a,x,1\r2007-01-07,a,\xff,2\r",
            "--labels-path": b"city,role\rlead,leader\r\xff,follower\r",
        }[flag])
        argv = ["evaluate", "--corpus-path", corpus_path,
                "--output-dir", tmp_path / "o", flag, path]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "line 3: byte 0xff is not UTF-8" in err

    def test_non_utf8_config_names_line(self, corpus_path, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"lag_count = 4\n# caf\xe9\n")
        code = run(["validate", "--config", config,
                    "--corpus-path", corpus_path])
        assert code == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "0xe9" in err

    @pytest.mark.parametrize(
        "flag, text, message",
        [
            ("--corpus-path", 'week_start,city,artist,listeners\n'
             '2007-01-07,"a\nb",x,1\n2007-01-07,a,x,zz\n',
             "bad listener count 'zz'"),
            ("--tags-path", 'artist,tag\n"a\nb",y\nlonely\n',
             "expected 2 fields, got 1"),
            ("--labels-path", 'city,role\n"a\nb",leader\nx,boss\n',
             "unknown role 'boss'"),
        ],
        ids=["corpus", "tags", "labels"],
    )
    def test_error_after_quoted_newline_names_physical_line(
        self, flag, text, message, corpus_path, tmp_path, capsys
    ):
        # Line 2 holds a quoted field that runs on over line 3.
        path = tmp_path / "two-line-field.csv"
        path.write_text(text, encoding="utf-8")
        argv = ["evaluate", "--corpus-path", corpus_path,
                "--output-dir", tmp_path / "o", flag, path]
        if flag == "--tags-path":
            argv += ["--tag", "y"]
        assert run(argv) == 2
        assert f"line 4: {message}" in capsys.readouterr().err

    def test_non_utf8_spec_names_line(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_bytes(b'{\n  "cities": [{"name": "\xff"}]\n}\n')
        assert run(["synth", spec, "--output-dir", tmp_path / "o"]) == 2
        err = capsys.readouterr().err
        assert "line 2" in err and "0xff" in err

    def test_header_only(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        path.write_text("week_start,city,artist,listeners\n")
        assert run(["validate", "--corpus-path", path]) == 0
        assert "weeks: 0" in capsys.readouterr().out

    def test_missing_file(self, tmp_path, capsys):
        assert run(["validate", "--corpus-path", tmp_path / "nope.csv"]) == 2

    def test_gap_report(self, tmp_path, capsys):
        series = make_series(
            [(0, "c", "a", 1), (1, "c", "a", 2), (4, "c", "a", 3)]
        )
        path = tmp_path / "gappy.csv"
        write_chart_csv(series, path)
        assert run(["validate", "--corpus-path", path]) == 0
        out = capsys.readouterr().out
        assert "gaps: 1" in out
        assert "(21 days)" in out


class TestEvaluate:
    def test_writes_reports(self, corpus_path, tmp_path, capsys):
        out_dir = tmp_path / "out"
        code = run(
            [
                "evaluate",
                "--corpus-path",
                corpus_path,
                "--output-dir",
                out_dir,
            ]
        )
        assert code == 0
        csv_text = (out_dir / "report.csv").read_text()
        payload = json.loads((out_dir / "report.json").read_text())
        assert csv_text.splitlines()[0] == (
            "city,self_pct,all_pct,difference,role,status"
        )
        assert {row["city"] for row in payload["rows"]} == {
            "lead",
            "echo",
            "other",
        }
        assert payload["metadata"]["lag_count"] == 8
        assert payload["metadata"]["corpus_fingerprint"]

    def test_byte_identical_runs_and_jobs(self, corpus_path, tmp_path, capsys):
        outputs = []
        for name in ("r1", "r2", "r3"):
            out_dir = tmp_path / name
            assert (
                run(
                    [
                        "evaluate",
                        "--corpus-path",
                        corpus_path,
                        "--output-dir",
                        out_dir,
                    ]
                )
                == 0
            )
            outputs.append(
                (
                    (out_dir / "report.csv").read_bytes(),
                    (out_dir / "report.json").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1] == outputs[2]
        # The thread pool is gone: its flag and config key are rejected.
        with pytest.raises(SystemExit) as exc_info:
            run(["evaluate", "--corpus-path", corpus_path, "--jobs", 2])
        assert exc_info.value.code == 2
        config = tmp_path / "run.cfg"
        config.write_text("jobs = 2\n")
        capsys.readouterr()
        assert run(["evaluate", "--config", config,
                    "--corpus-path", corpus_path]) == 2
        assert "unknown key 'jobs'" in capsys.readouterr().err

    def test_boundary_outside_corpus(self, corpus_path, tmp_path, capsys):
        code = run(
            [
                "evaluate",
                "--corpus-path",
                corpus_path,
                "--output-dir",
                tmp_path / "x",
                "--boundary",
                "2030-01-01",
            ]
        )
        assert code == 2
        assert "boundary" in capsys.readouterr().err

    def test_unknown_city(self, corpus_path, tmp_path, capsys):
        code = run(
            [
                "evaluate",
                "--corpus-path",
                corpus_path,
                "--output-dir",
                tmp_path / "x",
                "--cities-included",
                "lead,atlantis",
            ]
        )
        assert code == 2

    def test_impossible_lag_count_exits_2(self, corpus_path, tmp_path, capsys):
        # evaluate rejects it before any city runs, as dump-design does.
        out_dir = tmp_path / "out"
        flags = ["--corpus-path", corpus_path, "--output-dir", out_dir,
                 "--lag-count", 99999]
        assert run(["evaluate", *flags]) == 2
        err = capsys.readouterr().err
        assert run(["dump-design", *flags, "--city", "lead"]) == 2
        assert capsys.readouterr().err == err
        assert "cannot support 99999 lags" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("weeks", [0, 1])
    def test_fewer_than_two_weeks_exits_2(self, weeks, tmp_path, capsys):
        corpus = tmp_path / "short.csv"
        if weeks:
            write_chart_csv(make_series([(0, "m", "a", 5), (0, "m", "b", 3)]),
                            corpus)
        else:
            corpus.write_text("week_start,city,artist,listeners\n")
        out_dir = tmp_path / "out"
        code = run(
            ["evaluate", "--corpus-path", corpus, "--output-dir", out_dir]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: need at least 2 weeks to compute velocities, got {weeks}\n"
        )
        assert not out_dir.exists()

    def test_all_cities_failing_exits_3(self, tmp_path):
        # 10 chart weeks leave every eligible sample past the boundary, so
        # each city fails its split and the run reports total failure.
        rows = []
        for k in range(10):
            rows += [(k, "m", "a", 10 + k), (k, "m", "b", 22 - k)]
        corpus = tmp_path / "short.csv"
        write_chart_csv(make_series(rows), corpus)
        out_dir = tmp_path / "out"
        code = run(
            ["evaluate", "--corpus-path", corpus, "--output-dir", out_dir]
        )
        assert code == 3
        payload = json.loads((out_dir / "report.json").read_text())
        assert all(row["status"] != "ok" for row in payload["rows"])

    def test_labels_flow_into_report(self, corpus_path, tmp_path):
        labels = tmp_path / "labels.csv"
        labels.write_text("city,role\nlead,leader\necho,follower\n")
        out_dir = tmp_path / "out"
        assert (
            run(
                [
                    "evaluate",
                    "--corpus-path",
                    corpus_path,
                    "--labels-path",
                    labels,
                    "--output-dir",
                    out_dir,
                ]
            )
            == 0
        )
        payload = json.loads((out_dir / "report.json").read_text())
        assert payload["avg_leaders"] is not None
        assert payload["avg_followers"] is not None

    def test_city_labelled_twice_exits_2(self, corpus_path, tmp_path, capsys):
        labels = tmp_path / "labels.csv"
        labels.write_text("city,role\nlead,leader\nlead,follower\n")
        out_dir = tmp_path / "out"
        code = run(
            [
                "evaluate",
                "--corpus-path", corpus_path,
                "--labels-path", labels,
                "--output-dir", out_dir,
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "line 3" in err and "'lead' labelled twice" in err
        assert not (out_dir / "report.json").exists()


class TestTagFilter:
    def test_full_tag_set_is_identity(self, corpus_path, tmp_path, small_series):
        tags = tmp_path / "tags.csv"
        artists = sorted({r.artist for r in small_series.records})
        tags.write_text(
            "artist,tag\n" + "".join(f"{a},indie\n" for a in artists)
        )
        plain_dir, tagged_dir = tmp_path / "plain", tmp_path / "tagged"
        run(["evaluate", "--corpus-path", corpus_path, "--output-dir", plain_dir])
        run(
            [
                "evaluate",
                "--corpus-path",
                corpus_path,
                "--tags-path",
                tags,
                "--tag",
                "indie",
                "--output-dir",
                tagged_dir,
            ]
        )
        plain = json.loads((plain_dir / "report.json").read_text())
        tagged = json.loads((tagged_dir / "report.json").read_text())
        assert tagged["genre_label"] == "indie"
        assert tagged["rows"] == plain["rows"]

    def test_partial_tag_set_changes_results(
        self, corpus_path, tmp_path, small_series
    ):
        tags = tmp_path / "tags.csv"
        artists = sorted({r.artist for r in small_series.records})
        half = artists[: len(artists) // 2]
        tags.write_text("artist,tag\n" + "".join(f"{a},indie\n" for a in half))
        plain_dir, tagged_dir = tmp_path / "plain", tmp_path / "tagged"
        run(["evaluate", "--corpus-path", corpus_path, "--output-dir", plain_dir])
        run(
            [
                "evaluate",
                "--corpus-path",
                corpus_path,
                "--tags-path",
                tags,
                "--tag",
                "indie",
                "--output-dir",
                tagged_dir,
            ]
        )
        plain = json.loads((plain_dir / "report.json").read_text())
        tagged = json.loads((tagged_dir / "report.json").read_text())
        assert tagged["rows"] != plain["rows"]

    def test_unknown_tag(self, corpus_path, tmp_path, capsys):
        tags = tmp_path / "tags.csv"
        tags.write_text("artist,tag\nx,rock\n")
        code = run(
            [
                "evaluate",
                "--corpus-path",
                corpus_path,
                "--tags-path",
                tags,
                "--tag",
                "indie",
                "--output-dir",
                tmp_path / "o",
            ]
        )
        assert code == 2

    def test_post_filter_stage_runs(self, corpus_path, tmp_path, small_series):
        tags = tmp_path / "tags.csv"
        artists = sorted({r.artist for r in small_series.records})
        half = artists[: len(artists) // 2]
        tags.write_text("artist,tag\n" + "".join(f"{a},indie\n" for a in half))
        code = run(
            [
                "evaluate",
                "--corpus-path",
                corpus_path,
                "--tags-path",
                tags,
                "--tag",
                "indie",
                "--filter-stage",
                "post",
                "--output-dir",
                tmp_path / "post",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize("stage", ["pre", "post"])
    def test_tag_naming_no_corpus_artist_exits_2(
        self, corpus_path, tmp_path, capsys, stage
    ):
        tags = tmp_path / "tags.csv"
        tags.write_text("artist,tag\nnobody,rock\na0001,indie\n")
        common = [
            "--corpus-path", corpus_path, "--tags-path", tags,
            "--tag", "rock", "--filter-stage", stage,
        ]
        assert run(["evaluate", *common, "--output-dir", tmp_path / "o"]) == 2
        assert run(["dump-design", *common, "--city", "echo"]) == 2
        err = capsys.readouterr().err
        assert err.count("tag 'rock' names no artist in the corpus") == 2
        assert not (tmp_path / "o").exists()

    def test_pre_filter_emptying_an_included_city_exits_2(
        self, tmp_path, capsys
    ):
        # "z" charts only untagged artists, so the pre-stage filter drops it
        # from the corpus the velocities are built from.
        rows = [(k, c, a, 1 + k % 5) for k in range(12) for c, a in
                [("a", "p"), ("a", "q"), ("b", "p"), ("z", "r"), ("z", "s")]]
        corpus, tags = tmp_path / "corpus.csv", tmp_path / "tags.csv"
        write_chart_csv(make_series(rows), corpus)
        tags.write_text("artist,tag\np,rock\nq,rock\nr,pop\n")
        common = [
            "--corpus-path", corpus, "--tags-path", tags, "--tag", "rock",
            "--filter-stage", "pre", "--cities-included", "a,z",
            "--lag-count", "2",
        ]
        assert run(["evaluate", *common, "--output-dir", tmp_path / "o"]) == 2
        assert run(["dump-design", *common, "--city", "a"]) == 2
        err = capsys.readouterr().err
        assert err.count("error: cities not in corpus: ['z']") == 2
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()


class TestSynth:
    def test_deterministic_corpus(self, spec_path, tmp_path):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        assert run(["synth", spec_path, "--output-dir", d1]) == 0
        assert run(["synth", spec_path, "--output-dir", d2]) == 0
        assert (d1 / "corpus.csv").read_bytes() == (d2 / "corpus.csv").read_bytes()
        assert (d1 / "corpus.meta.json").read_bytes() == (
            d2 / "corpus.meta.json"
        ).read_bytes()

    def test_sidecar_digest_matches(self, spec_path, tmp_path, corpus_path):
        out = tmp_path / "s"
        run(["synth", spec_path, "--output-dir", out])
        sidecar = json.loads((out / "corpus.meta.json").read_text())
        # The sidecar digest equals the digest of the emitted corpus file.
        from chartflow import fingerprint, parse_chart_csv

        series = parse_chart_csv(out / "corpus.csv")
        assert sidecar["fingerprint"] == fingerprint(series)

    def test_invalid_spec(self, tmp_path, capsys):
        path = tmp_path / "spec.json"
        raw = SMALL_PLANT.to_dict()
        raw["weeks"] = 5
        path.write_text(json.dumps(raw))
        assert run(["synth", path, "--output-dir", tmp_path / "o"]) == 2

    def test_unreadable_spec(self, tmp_path):
        assert run(["synth", tmp_path / "missing.json"]) == 2


class TestDumpDesign:
    def test_writes_design(self, corpus_path, tmp_path):
        out = tmp_path / "design.csv"
        code = run(
            [
                "dump-design",
                "--corpus-path",
                corpus_path,
                "--city",
                "echo",
                "--out",
                out,
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("artist,week,y,")
        assert "echo@lag1" in lines[0]
        assert "lead@lag8" in lines[0]

    def test_own_scope(self, corpus_path, capsys):
        """``--scope own`` is the one-city design: under either active rule,
        the bytes of ``--scope all`` with the city as the only included
        city."""
        for rule in ("target", "union"):
            dump = ["dump-design", "--corpus-path", corpus_path,
                    "--city", "echo", "--active-set", rule]
            assert run([*dump, "--scope", "own"]) == 0
            own = capsys.readouterr().out
            assert len(own.splitlines()) > 1
            assert own.splitlines()[0] == "artist,week,y," + ",".join(
                f"echo@lag{k}" for k in range(1, 9)
            )
            assert run([*dump, "--scope", "all",
                        "--cities-included", "echo"]) == 0
            assert capsys.readouterr().out == own, rule

    @pytest.mark.parametrize("rule", ["target", "union"])
    def test_city_outside_included_cities(self, corpus_path, capsys, rule):
        """The design of a city that is not among the included ones reads
        as it does from velocities built for every city."""
        code = run(
            [
                "dump-design", "--corpus-path", corpus_path, "--city", "other",
                "--cities-included", "lead,echo", "--active-set", rule,
            ]
        )
        assert code == 0
        velocities = build_velocities(parse_chart_csv(corpus_path))
        config = LagConfig(8, ("lead", "echo"))
        design = build_design(velocities, "other", config, rule)
        assert capsys.readouterr().out == design_csv_text(design)


class TestConfigResolution:
    def test_file_env_flag_precedence(self, tmp_path, monkeypatch):
        config = tmp_path / "run.cfg"
        config.write_text("lag_count = 3\nsolver = nnls\n# comment\n\n")
        ns = argparse.Namespace(config=str(config), lag_count=None)
        monkeypatch.setenv("CHARTFLOW_LAG_COUNT", "4")
        resolved = resolve_config(ns)
        assert resolved.lag_count == 4  # env beats file
        assert resolved.solver == "nnls"  # file beats default
        ns_flag = argparse.Namespace(config=str(config), lag_count=5)
        assert resolve_config(ns_flag).lag_count == 5  # flag beats env

    def test_unknown_key(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("volume = 11\n")
        with pytest.raises(ChartFlowError):
            parse_config_file(config)

    def test_malformed_line(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("lag_count 8\n")
        with pytest.raises(ChartFlowError):
            parse_config_file(config)

    def test_form_feed_does_not_end_a_line(self, tmp_path):
        config = tmp_path / "ff.cfg"
        config.write_text("lag_count = 3\fsolver = nnls\n")
        assert parse_config_file(config) == {"lag_count": "3\fsolver = nnls"}
        config.write_text("lag_count = 3\fbogus\n")
        with pytest.raises(CliInputError, match="bad value for 'lag_count'"):
            resolve_config(argparse.Namespace(config=str(config)))

    def test_cr_line_endings(self, tmp_path):
        config = tmp_path / "cr.cfg"
        config.write_bytes(b"lag_count = 3\rsolver = nnls\r")
        assert parse_config_file(config) == {"lag_count": "3", "solver": "nnls"}
        config.write_bytes(b"lag_count = 3\r\rbogus\r")
        with pytest.raises(CliInputError, match=r"cr\.cfg:3: expected"):
            parse_config_file(config)

    def test_bad_value_type(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("lag_count = soon\n")
        ns = argparse.Namespace(config=str(config))
        with pytest.raises(ChartFlowError):
            resolve_config(ns)

    def test_validation(self):
        bad = [
            ({"solver": "lasso"}, "solver must be ols or nnls, got 'lasso'"),
            ({"active_set": "all"},
             "active_set must be target or union, got 'all'"),
            ({"filter_stage": "mid"},
             "filter_stage must be pre or post, got 'mid'"),
            ({"lag_count": 0}, "lag_count must be >= 1, got 0"),
            ({"ridge": -1.0}, "ridge must be finite and >= 0, got -1.0"),
            ({"ridge": float("inf")}, "ridge must be finite and >= 0, got inf"),
            ({"ridge": float("nan")}, "ridge must be finite and >= 0, got nan"),
            ({"cities_included": ()},
             "cities_included must name at least one city"),
            ({"cities_included": ("lead", "echo", "lead")},
             "cities_included names 'lead' more than once"),
        ]
        for values, message in bad:
            with pytest.raises(CliInputError) as exc_info:
                resolve_config(argparse.Namespace(**values))
            assert str(exc_info.value) == message

    @pytest.mark.parametrize("command", ["evaluate", "dump-design"])
    def test_bad_values_exit_2_via_main(
        self, command, corpus_path, tmp_path, monkeypatch, capsys
    ):
        base = [command, "--corpus-path", corpus_path,
                "--output-dir", tmp_path / "o"]
        if command == "dump-design":
            base += ["--city", "echo"]
        for flag in ("--ridge=-1", "--ridge=inf", "--ridge=nan",
                     "--cities-included=,", "--cities-included=lead,lead,echo"):
            assert run(base + [flag]) == 2, flag
            assert "error: " in capsys.readouterr().err
        config = tmp_path / "run.cfg"
        config.write_text("ridge = nan\n")
        assert run(base + ["--config", config]) == 2
        assert "ridge must be finite" in capsys.readouterr().err
        monkeypatch.setenv("CHARTFLOW_CITIES_INCLUDED", ",")
        assert run(base) == 2
        assert "cities_included" in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_ridge_with_nnls_exits_2(
        self, corpus_path, tmp_path, monkeypatch, capsys
    ):
        message = "ridge applies to ols only, got 1000.0 with nnls"
        with pytest.raises(CliInputError, match=message):
            resolve_config(argparse.Namespace(solver="nnls", ridge=1000.0))
        assert resolve_config(argparse.Namespace(solver="nnls", ridge=0.0)).ridge == 0
        base = ["evaluate", "--corpus-path", corpus_path,
                "--output-dir", tmp_path / "o"]
        config = tmp_path / "run.cfg"
        config.write_text("solver = nnls\nridge = 1000\n")
        layers = {
            "flag": base + ["--solver", "nnls", "--ridge", "1000"],
            "config file": base + ["--config", config],
        }
        for layer, argv in layers.items():
            assert run(argv) == 2, layer
            assert message in capsys.readouterr().err, layer
        monkeypatch.setenv("CHARTFLOW_RIDGE", "1000")
        assert run(base + ["--solver", "nnls"]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "o" / "report.json").exists()

    def test_config_file_via_main(self, corpus_path, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"corpus_path = {corpus_path}\noutput_dir = {tmp_path / 'out'}\n"
        )
        assert run(["evaluate", "--config", config]) == 0
        assert (tmp_path / "out" / "report.json").exists()
