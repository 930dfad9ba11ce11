"""Checks of a run's outputs against facts computed apart from the program.

A check returns problems as text. Corpus-level problems fail every city of
the run; a city-level problem fails that city only.
"""

from __future__ import annotations

import csv
import hashlib
import json
import subprocess
import sys
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.py"

# A planted follower must beat its own-history model by this many points.
GAIN_MIN = 1.5
# A city with no planted leader may move by at most this many points.
DRIFT_MAX = 2.0
# Largest gap, in percent points, between report.json and the reference.
REFERENCE_TOL = 1e-6


def sha256_file(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_corpus(corpus_dir: Path, spec: dict) -> tuple[str, list[str]]:
    """Return the corpus digest and the problems found with the corpus.

    Every city-week chart keeps its top ``chart_size`` artists (each spec
    has more artists than that) and listener counts are at least 1, so the
    spec fixes the record count.
    """
    problems = []
    digest = sha256_file(corpus_dir / "corpus.csv")
    sidecar = json.loads((corpus_dir / "corpus.meta.json").read_text())
    if sidecar.get("fingerprint") != digest:
        problems.append(f"sidecar fingerprint {sidecar.get('fingerprint')} "
                        f"is not sha256(corpus.csv) {digest}")
    with open(corpus_dir / "corpus.csv", "rb") as handle:
        records = sum(1 for _ in handle) - 1
    expected = spec["weeks"] * len(spec["cities"]) * spec["chart_size"]
    if records != expected:
        problems.append(f"{records} records, expected {expected}")
    return digest, problems


def half_up(value: Decimal) -> str:
    return str(value.quantize(Decimal("0.1"), ROUND_HALF_UP))


def planted(spec: dict, included: list[str]) -> tuple[set[str], set[str]]:
    """(followers whose leader is included, cities with no leader at all)."""
    followers = {e["follower"] for e in spec["influence"]
                 if e["leader"] in included and e["follower"] in included}
    led = {e["follower"] for e in spec["influence"]}
    return followers, set(included) - led


def check_report(out_dir: Path, spec: dict, included: list[str],
                 digest: str) -> tuple[list[str], dict[str, str]]:
    """Check report.csv/report.json: (run problems, {city: problem})."""
    run_problems: list[str] = []
    city_problems: dict[str, str] = {}
    # Decimal keeps each JSON number exactly as written, so rounding is
    # applied to the printed value, not to a re-parsed float.
    report = json.loads((out_dir / "report.json").read_text(),
                        parse_float=Decimal)
    if report["metadata"]["corpus_fingerprint"] != digest:
        run_problems.append("report fingerprint is not sha256(corpus.csv)")
    rows = {}
    for row in report["rows"]:
        if row["city"] in rows or row["city"] not in included:
            run_problems.append(f"unexpected report row {row['city']!r}")
        rows[row["city"]] = row
    for city in included:
        row = rows.get(city)
        if row is None:
            city_problems[city] = "no report row"
        elif row["status"] != "ok":
            city_problems[city] = f"status {row['status']}"

    roles = {c["name"]: c["role"] for c in spec["cities"]}
    with open(out_dir / "report.csv", newline="") as handle:
        csv_rows = list(csv.DictReader(handle))
    if sorted(r["city"] for r in csv_rows) != sorted(rows):
        run_problems.append("report.csv and report.json list other cities")
    for line in csv_rows:
        row = rows.get(line["city"])
        if row is None or line["city"] in city_problems:
            continue
        for csv_key, json_key in (("self_pct", "self_history_pct"),
                                  ("all_pct", "all_history_pct"),
                                  ("difference", "difference")):
            if line[csv_key] != half_up(row[json_key]):
                city_problems[line["city"]] = (
                    f"{csv_key} {line[csv_key]} is not {row[json_key]} "
                    "rounded half-up")
        if line["role"] != roles[line["city"]]:
            city_problems[line["city"]] = f"role {line['role']}"

    followers, unled = planted(spec, included)
    for city, row in rows.items():
        if city in city_problems:
            continue
        gain = row["difference"]
        if city in followers and gain < GAIN_MIN:
            city_problems[city] = f"planted follower gains only {gain:.2f}"
        if city in unled and abs(gain) > DRIFT_MAX:
            city_problems[city] = f"unplanted city drifts {gain:.2f}"
    by_role = {"leader": [], "follower": []}
    for city, row in rows.items():
        if row["status"] == "ok" and roles[city] in by_role:
            by_role[roles[city]].append(row["difference"])
    if by_role["leader"] and by_role["follower"] and not (
        sum(by_role["follower"]) / len(by_role["follower"])
        > sum(by_role["leader"]) / len(by_role["leader"])
    ):
        run_problems.append("follower average is not above leader average")
    return run_problems, city_problems


def reference_cities(spec: dict, included: list[str]) -> list[str]:
    """One planted follower and one unplanted city, preferring edge-free."""
    followers, unled = planted(spec, included)
    edged = {e["leader"] for e in spec["influence"]}
    unplanted = sorted(unled, key=lambda c: (c in edged, c))
    return sorted(followers)[:1] + unplanted[:1]


def check_reference(corpus_dir: Path, out_dir: Path, spec: dict,
                    included: list[str], solver: str) -> dict[str, str]:
    """Compare report.json with the independent reference: {city: problem}.

    The reference runs as its own process because it loads the corpus into
    dense arrays, and on Linux a child's ``ru_maxrss`` starts at its
    parent's peak RSS: a large benchmark process would hide the peak RSS of
    the commands it measures.
    """
    cities = reference_cities(spec, included)
    done = subprocess.run(
        [sys.executable, str(REFERENCE), str(corpus_dir / "corpus.csv"),
         solver, ",".join(included), *cities],
        capture_output=True, text=True, check=False)
    if done.returncode != 0:
        return {city: f"reference failed: {done.stderr.strip()[-200:]}"
                for city in cities}
    expected = json.loads(done.stdout)
    report = json.loads((out_dir / "report.json").read_text())
    if report["metadata"]["boundary"] != expected["boundary"]:
        return {city: "boundary differs from the reference"
                for city in included}
    rows = {row["city"]: row for row in report["rows"]}
    problems = {}
    for city, want in expected["percents"].items():
        row = rows.get(city)
        if row is None or row["status"] != "ok":
            problems[city] = "no ok row to compare with the reference"
            continue
        got = (row["self_history_pct"], row["all_history_pct"])
        if max(abs(a - b) for a, b in zip(want, got)) > REFERENCE_TOL:
            problems[city] = f"report {got} but reference {want}"
    return problems
