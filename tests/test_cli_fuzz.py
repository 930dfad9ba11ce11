"""``main()`` survives byte-mutated tag, label and config files.

Each example takes small valid inputs to ``chartflow evaluate``, mutates
one of the three files (a line inserted, dropped or repeated; a byte or
token inserted; a value replaced), and runs ``main()`` in-process. It must
return 0, 2 or 3 without raising, and any report.json it writes must be
strict JSON (no NaN or Infinity) with at most one row per city.
"""

import contextlib
import io
import json
import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from chartflow import Influence, PlantSpec, generate_planted, write_chart_csv
from chartflow.cli import main

TINY = PlantSpec(
    cities=(("lead", "leader"), ("echo", "follower"), ("other", "unlabeled")),
    influence=(Influence("lead", "echo", 1, 0.8),),
    weeks=24,
    artists=10,
    noise_sigma=0.04,
    seed=5,
)

# The config reaches every key's value through the "value" mutation below,
# among them lag_count and cities_included.
BASE_FILES = {
    "config.cfg": (
        b"lag_count = 2\n"
        b"solver = ols\n"
        b"active_set = target\n"
        b"filter_stage = post\n"
        b"cities_included = lead,echo,other\n"
        b"tag = indie\n"
        b"# a comment\n"
    ),
    "tags.csv": (
        b"artist,tag\n"
        + b"".join(b"a%04d,indie\n" % i for i in range(6))
        + b"a0007,rock\n"
    ),
    "labels.csv": b"city,role\nlead,leader\necho,follower\n",
}
TOKENS = [b"\xff", b'"', b",", b"=", b"#", b"-", b"inf", b"nan", b""]


@st.composite
def mutated_files(draw):
    name = draw(st.sampled_from(sorted(BASE_FILES)))
    lines = BASE_FILES[name].split(b"\n")[:-1]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(["insert", "drop", "repeat", "byte", "value"]))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        token = draw(st.sampled_from(TOKENS))
        if op == "insert":
            lines.insert(draw(st.integers(0, len(lines))), token)
        elif op == "drop" and lines:
            del lines[i]
        elif op == "repeat" and lines:
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "byte" and lines:
            pos = draw(st.integers(0, len(lines[i])))
            lines[i] = lines[i][:pos] + token + lines[i][pos:]
        elif op == "value" and lines:
            # The text after a config line's "=" or a CSV line's last ",".
            sep = b"=" if name == "config.cfg" else b","
            head, found, _ = lines[i].rpartition(sep)
            if found:
                lines[i] = head + sep + (b" " if sep == b"=" else b"") + token
    return name, b"".join(line + b"\n" for line in lines)


@pytest.fixture(scope="module")
def workdir():
    path = Path(tempfile.mkdtemp())
    write_chart_csv(generate_planted(TINY), path / "corpus.csv")
    yield path
    shutil.rmtree(path)


def _reject_constant(name):
    raise ValueError(f"report.json holds {name}")


def _config_with(old: bytes, new: bytes) -> tuple[str, bytes]:
    return "config.cfg", BASE_FILES["config.cfg"].replace(old, new)


@given(mutated_files())
# Mutations that random draws reach only rarely: a "byte", two "value", a
# repeated city, and a tag that names no corpus artist (config: post stage).
@example(_config_with(b"lag_count = 2", b"lag_count = -2"))
@example(_config_with(b"lag_count = 2", b"lag_count = nan"))
@example(_config_with(b"lead,echo,other", b""))
@example(_config_with(b"lead,echo,other", b"lead,lead,echo"))
@example(("tags.csv", b"artist,tag\nnobody,indie\n"))
@settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
def test_main_survives_mutated_inputs(workdir, mutated):
    name, data = mutated
    for base_name, base in BASE_FILES.items():
        (workdir / base_name).write_bytes(data if base_name == name else base)
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    argv = [
        "evaluate",
        "--config", workdir / "config.cfg",
        "--corpus-path", workdir / "corpus.csv",
        "--tags-path", workdir / "tags.csv",
        "--labels-path", workdir / "labels.csv",
        "--output-dir", out,
    ]
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main([str(a) for a in argv])
    assert code in (0, 2, 3)
    if code != 2:
        report = json.loads((out / "report.json").read_text(),
                            parse_constant=_reject_constant)
        cities = [row["city"] for row in report["rows"]]
        assert len(cities) == len(set(cities))


@pytest.mark.parametrize("name", ["corpus.csv", "tags.csv", "labels.csv"])
def test_oversized_field_exits_2(workdir, tmp_path, name):
    """A field past ``csv.field_size_limit()`` is a parse error, not a crash."""
    files = {"corpus.csv": (workdir / "corpus.csv").read_bytes(), **BASE_FILES}
    files[name] += b"x" * 200_000 + b",leader,1,2\n"
    for file_name, data in files.items():
        (tmp_path / file_name).write_bytes(data)
    argv = [
        "evaluate",
        "--config", tmp_path / "config.cfg",
        "--corpus-path", tmp_path / "corpus.csv",
        "--tags-path", tmp_path / "tags.csv",
        "--labels-path", tmp_path / "labels.csv",
        "--output-dir", tmp_path / "out",
    ]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(stderr):
        code = main([str(a) for a in argv])
    lines = files[name].count(b"\n")
    assert code == 2
    assert f"line {lines}: field larger than field limit" in stderr.getvalue()
