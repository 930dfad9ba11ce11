"""Show that the benchmark's checks pass good outputs and reject wrong ones.

Usage: ``python3 perfbench/selftest.py``  (about ten seconds)

On a small planted corpus it runs ``chartflow synth`` and ``chartflow
evaluate``, requires every check to pass, and then requires each check to
reject one wrong answer: a report percent shifted by 0.1, a corpus byte
flipped after synth, and a corpus with no planted edge labelled as planted.
Exits 0 when every case behaves, 1 otherwise.
"""

from __future__ import annotations

import json
import shutil
import sys

from checks import check_corpus, check_report
from run import RUNS_DIR, Run
from workloads import Workload

SMALL = Workload("selftest", "pair", n_cities=3, artists=200, weeks=80,
                 chart_size=60,
                 evaluate_flags=("--cities-included", "c00,c01,c02"))
SEED = 7


def main() -> int:
    directory = RUNS_DIR / "selftest"
    shutil.rmtree(directory, ignore_errors=True)
    results = []

    def expect(label: str, ok: bool, detail: object) -> None:
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")

    run = Run(SMALL, SEED, directory)
    digest, problems = run.check_corpus(run.synth("corpus"))
    measured = run.evaluate("out")
    run.score(measured, "out", digest, problems, run.reference("out"))
    expect("good outputs pass every check",
           not run.problems and run.failed == 0 and run.attempted == 3,
           run.problems or f"{run.attempted} cities checked")

    shutil.copytree(directory / "out", directory / "out_shifted")
    report_csv = directory / "out_shifted/report.csv"
    header, first, *rest = report_csv.read_text().splitlines()
    city, self_pct, *tail = first.split(",")
    shifted = f"{float(self_pct) + 0.1:.1f}"
    report_csv.write_text("\n".join(
        [header, ",".join([city, shifted, *tail]), *rest]) + "\n")
    _, city_problems = check_report(directory / "out_shifted", run.spec,
                                    run.included, digest)
    expect(f"{city} self_pct {self_pct} -> {shifted} is rejected",
           city in city_problems, city_problems)

    shutil.copytree(directory / "corpus", directory / "corpus_flipped")
    corpus_csv = directory / "corpus_flipped/corpus.csv"
    data = bytearray(corpus_csv.read_bytes())
    data[-2] = ord("1") if data[-2] != ord("1") else ord("2")
    corpus_csv.write_bytes(bytes(data))
    _, problems = check_corpus(directory / "corpus_flipped", run.spec)
    expect("a flipped corpus byte is rejected", bool(problems), problems)

    null_spec = dict(run.spec, influence=[])
    (directory / "spec.json").write_text(json.dumps(null_spec))
    null_digest, _ = run.check_corpus(run.synth("corpus"))
    run.evaluate("out")
    run_problems, city_problems = check_report(
        directory / "out", run.spec, run.included, null_digest)
    expect("a null corpus labelled as planted is rejected",
           "c01" in city_problems, run_problems + list(city_problems.items()))

    if all(results):
        shutil.rmtree(directory)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
