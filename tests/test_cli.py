"""Command-line driver: exit codes, determinism, config precedence."""

import argparse
import json

import pytest

from chartflow import write_chart_csv
from chartflow.cli import main, parse_config_file, resolve_config
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
        assert "not UTF-8" in capsys.readouterr().err

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

    def test_byte_identical_runs_and_jobs(self, corpus_path, tmp_path):
        outputs = []
        for name, jobs in (("r1", 1), ("r2", 1), ("r8", 8)):
            out_dir = tmp_path / name
            assert (
                run(
                    [
                        "evaluate",
                        "--corpus-path",
                        corpus_path,
                        "--output-dir",
                        out_dir,
                        "--jobs",
                        jobs,
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
        from chartflow import parse_chart_csv
        from chartflow.synth import fingerprint

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
        code = run(
            [
                "dump-design",
                "--corpus-path",
                corpus_path,
                "--city",
                "echo",
                "--scope",
                "own",
            ]
        )
        assert code == 0
        header = capsys.readouterr().out.splitlines()[0]
        assert header == "artist,week,y," + ",".join(
            f"echo@lag{k}" for k in range(1, 9)
        )


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

    def test_bad_value_type(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("lag_count = soon\n")
        ns = argparse.Namespace(config=str(config))
        with pytest.raises(ChartFlowError):
            resolve_config(ns)

    def test_validation(self):
        with pytest.raises(ChartFlowError):
            resolve_config(argparse.Namespace(solver="lasso"))
        with pytest.raises(ChartFlowError):
            resolve_config(argparse.Namespace(jobs=0))
        with pytest.raises(ChartFlowError):
            resolve_config(argparse.Namespace(filter_stage="mid"))

    def test_config_file_via_main(self, corpus_path, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            f"corpus_path = {corpus_path}\noutput_dir = {tmp_path / 'out'}\n"
        )
        assert run(["evaluate", "--config", config]) == 0
        assert (tmp_path / "out" / "report.json").exists()
