"""Golden bytes: corpus digests and the evaluate reports they lead to.

The values were recorded from the reference implementation. Any change to
generation, parsing, the design, the fit or the report layout that moves a
digest, a ``report.csv`` byte, or a ``report.json`` percent by more than
1e-9 fails here.
"""

import hashlib
import json

import pytest

from chartflow import fingerprint, generate_planted, write_chart_csv
from chartflow.cli import main

from conftest import REFERENCE_SPEC, SMALL_PLANT

SMALL_PLANT_SHA256 = (
    "9d2fcbd8923a2d67adcf9050de70a93cb17979d9d643e1f84c9c6356249a8025"
)
REFERENCE_SPEC_SHA256 = (
    "be33c428d0029242c142a8ae153856466e1081a65a553e5b63dfcf09969f5458"
)

REPORT_CSV = {
    "ols": (
        "city,self_pct,all_pct,difference,role,status\n"
        "echo,104.9,76.4,28.5,follower,ok\n"
        "other,102.2,103.1,-0.9,unlabeled,ok\n"
        "lead,103.9,105.2,-1.3,leader,ok\n"
    ),
    "nnls": (
        "city,self_pct,all_pct,difference,role,status\n"
        "echo,102.3,75.1,27.2,follower,ok\n"
        "other,102.1,102.5,-0.4,unlabeled,ok\n"
        "lead,101.5,104.2,-2.8,leader,ok\n"
    ),
}

# (self_history_pct, all_history_pct, difference) per row and for avg_all,
# then avg_leaders and avg_followers.
REPORT_PERCENTS = {
    "ols": {
        "echo": (104.89156943247207, 76.36441579220786, 28.527153640264203),
        "other": (102.20184467862248, 103.08777642212162, -0.8859317434991425),
        "lead": (103.92624161226638, 105.21352778641085, -1.2872861741444694),
        "avg_all": (103.67321857445364, 94.88857333358011, 8.78464524087353),
        "avg_leaders": -1.2872861741444694,
        "avg_followers": 28.527153640264203,
    },
    "nnls": {
        "echo": (102.26042136294559, 75.05699791965417, 27.203423443291427),
        "other": (102.09438720259517, 102.47904459793148, -0.38465739533630483),
        "lead": (101.4544763847222, 104.23612646009369, -2.7816500753714877),
        "avg_all": (101.93642831675432, 93.92405632589312, 8.012371990861212),
        "avg_leaders": -2.7816500753714877,
        "avg_followers": 27.203423443291427,
    },
}

# (city, role, status, train_rows, test_rows, rank_deficient_own,
# rank_deficient_all), in report order; identical for both solvers.
REPORT_ROWS = [
    ("echo", "follower", "ok", 1280, 760, False, False),
    ("other", "unlabeled", "ok", 1280, 760, False, False),
    ("lead", "leader", "ok", 1280, 760, False, False),
]


# SHA-256 of ``chartflow dump-design --city echo`` on the small-plant corpus,
# by extra arguments. The last case lists the target after another city.
DUMP_DESIGN_SHA256 = {
    ("--cities-included", "echo"): (
        "13480fd9f4456f232adb2e07cbed5269e115f8629d815fe27faa0ccc06e266c2"
    ),
    (): (
        "04563d54ef49f29dfb4092d58fcff19959226c66a10c054e1d5ec8680554f69a"
    ),
    ("--cities-included", "other,echo",
     "--active-set", "union", "--lag-count", "3"): (
        "5c441b85724c22e7a65f5fb3f980938539410ff3e929c28e443c9a0ab8734a85"
    ),
}


# The OLS reports of ``--tag indie`` by ``--filter-stage``, where ``indie``
# tags every other artist of the small-plant corpus (a0000, a0002, ...).
TAGGED_REPORT_CSV = {
    "pre": (
        "city,self_pct,all_pct,difference,role,status\n"
        "echo,105.8,76.3,29.5,follower,ok\n"
        "other,99.7,101.1,-1.4,unlabeled,ok\n"
        "lead,102.8,102.9,-0.1,leader,ok\n"
    ),
    "post": (
        "city,self_pct,all_pct,difference,role,status\n"
        "echo,106.0,82.3,23.7,follower,ok\n"
        "other,100.6,101.1,-0.5,unlabeled,ok\n"
        "lead,100.2,101.2,-1.0,leader,ok\n"
    ),
}

TAGGED_REPORT_PERCENTS = {
    "pre": {
        "echo": (105.76884489480149, 76.27656180219297, 29.492283092608517),
        "other": (99.70458611357492, 101.05846661309384, -1.3538804995189224),
        "lead": (102.78203720172978, 102.88442064565459, -0.1023834439248077),
        "avg_all": (102.75182273670207, 93.40648302031381, 9.345339716388262),
        "avg_leaders": -0.1023834439248077,
        "avg_followers": 29.492283092608517,
    },
    "post": {
        "echo": (105.97848888140095, 82.27734126110387, 23.70114762029708),
        "other": (100.5881851937814, 101.08657397414304, -0.4983887803616369),
        "lead": (100.16090503713326, 101.18112387794709, -1.0202188408138255),
        "avg_all": (102.24252637077187, 94.84834637106466, 7.394179999707205),
        "avg_leaders": -1.0202188408138255,
        "avg_followers": 23.70114762029708,
    },
}


def test_small_plant_digest(small_series):
    assert fingerprint(small_series) == SMALL_PLANT_SHA256


def test_reference_spec_digest():
    assert fingerprint(generate_planted(REFERENCE_SPEC)) == REFERENCE_SPEC_SHA256


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory, small_series):
    root = tmp_path_factory.mktemp("golden")
    write_chart_csv(small_series, root / "corpus.csv")
    labels = sorted(SMALL_PLANT.labels().items())
    (root / "labels.csv").write_text(
        "city,role\n" + "".join(f"{c},{r}\n" for c, r in labels),
        encoding="utf-8",
    )
    return root


@pytest.fixture(scope="module", params=["ols", "nnls"])
def evaluated(request, small_inputs):
    solver = request.param
    out = small_inputs / solver
    argv = [
        "evaluate",
        "--corpus-path", small_inputs / "corpus.csv",
        "--labels-path", small_inputs / "labels.csv",
        "--solver", solver,
        "--output-dir", out,
    ]
    assert main([str(a) for a in argv]) == 0
    return solver, out


def test_report_csv_bytes(evaluated):
    solver, out = evaluated
    assert (out / "report.csv").read_bytes() == REPORT_CSV[solver].encode()


def _assert_percents(out, expected):
    """``report.json`` in ``out`` holds the ``expected`` percents to 1e-9."""
    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    pct_keys = ("self_history_pct", "all_history_pct", "difference")
    got = {row["city"]: tuple(row[k] for k in pct_keys) for row in payload["rows"]}
    got["avg_all"] = tuple(payload["avg_all"][k] for k in pct_keys)
    got["avg_leaders"] = payload["avg_leaders"]
    got["avg_followers"] = payload["avg_followers"]
    assert got.keys() == expected.keys()
    for key, value in expected.items():
        assert got[key] == pytest.approx(value, rel=0, abs=1e-9), key


def test_report_json_percents(evaluated):
    solver, out = evaluated
    _assert_percents(out, REPORT_PERCENTS[solver])


def test_report_json_fields(evaluated):
    solver, out = evaluated
    payload = json.loads((out / "report.json").read_text(encoding="utf-8"))
    rows = [
        (
            row["city"],
            row["role"],
            row["status"],
            row["train_rows"],
            row["test_rows"],
            row["rank_deficient_own"],
            row["rank_deficient_all"],
        )
        for row in payload["rows"]
    ]
    assert rows == REPORT_ROWS
    assert payload["region_label"] == "corpus"
    assert payload["genre_label"] == "all"
    assert payload["metadata"] == {
        "active_set": "target",
        "boundary": "2007-10-16",
        "cities_included": ["echo", "lead", "other"],
        "corpus_fingerprint": SMALL_PLANT_SHA256,
        "filter_stage": "pre",
        "lag_count": 8,
        "ridge": 0.0,
        "solver": solver,
    }


@pytest.mark.parametrize("extra", sorted(DUMP_DESIGN_SHA256))
def test_dump_design_bytes(extra, small_inputs, tmp_path):
    out = tmp_path / "design.csv"
    argv = ["dump-design", "--corpus-path", str(small_inputs / "corpus.csv"),
            "--city", "echo", "--out", str(out), *extra]
    assert main(argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == DUMP_DESIGN_SHA256[extra]


@pytest.fixture(scope="module", params=["pre", "post"])
def tagged(request, small_inputs, small_series):
    stage = request.param
    out = small_inputs / f"tagged-{stage}"
    out.mkdir()
    tags = out / "tags.csv"
    indie = small_series.artists[::2]
    tags.write_text(
        "artist,tag\n" + "".join(f"{a},indie\n" for a in indie),
        encoding="utf-8",
    )
    argv = [
        "evaluate",
        "--corpus-path", small_inputs / "corpus.csv",
        "--labels-path", small_inputs / "labels.csv",
        "--tags-path", tags,
        "--tag", "indie",
        "--filter-stage", stage,
        "--output-dir", out,
    ]
    assert main([str(a) for a in argv]) == 0
    return stage, out


def test_tagged_report_csv_bytes(tagged):
    stage, out = tagged
    assert (out / "report.csv").read_bytes() == TAGGED_REPORT_CSV[stage].encode()


def test_tagged_report_json_percents(tagged):
    stage, out = tagged
    _assert_percents(out, TAGGED_REPORT_PERCENTS[stage])
