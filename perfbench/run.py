"""Benchmark of ``chartflow synth`` and ``chartflow evaluate``.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``NAME`` is one of the workloads in ``workloads.py``, or ``all`` to run every
workload in turn. Each measured command runs as a fresh process of the
chartflow source tree in ``src/`` next to this directory, with OpenBLAS and
OpenMP held to one thread (see README.md for why).

``--trace 0`` times the commands: ``chartflow synth`` (the set-up) three
times, then ``chartflow evaluate`` until ``--seconds`` of wall time have been
measured in all and it has run at least three times. It reports medians of
the wall time and peak RSS of those processes. ``--trace 1`` runs each command once untraced
and once under ``trace_run.py`` and reports per-layer metrics instead.

Every evaluation is checked (``checks.py``). An operation is one included
city of one evaluation; a city fails when its report row is not ``ok`` or
one of its checks fails, and every city fails when a command exits non-zero
or a corpus-level check fails. The last line of output is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from checks import check_corpus, check_reference, check_report, sha256_file
from layers import layer_metrics
from workloads import WORKLOADS, Workload, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS_DIR = ROOT / ".perfbench_runs"
MIN_REPS = 3
# Set-ups per timed run; ``setup_s`` is their median.
SETUP_REPS = 3
# Each run must end within 180 s: no child may take longer than this, and no
# evaluation starts once this much of the run has gone.
CHILD_TIMEOUT_S = 60
DEADLINE_S = 100

# What reading a malformed or missing output file can raise; it fails the
# evaluation instead of ending the run.
UNREADABLE = (OSError, LookupError, ValueError, TypeError, ArithmeticError)

END_TO_END = (
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("setup_peak_rss_mb", "MB"),
)


def child_env() -> dict[str, str]:
    """The environment of every measured process.

    OpenBLAS and OpenMP would start one thread per CPU inside the solver;
    on a small shared machine those threads gain nothing and make the wall
    time depend on whatever else is running. ``CHARTFLOW_*`` variables are
    dropped so the caller's environment cannot change the configuration.
    """
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("CHARTFLOW_")}
    env.update(PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    return env


@dataclass(frozen=True)
class Measured:
    wall_s: float
    rss_mb: float
    cpu_s: float
    ok: bool


def run_child(argv: list[str], log: Path) -> Measured:
    """Run one process to its end; wall time from launch to exit."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Measured(wall, usage.ru_maxrss / 1024.0,
                    usage.ru_utime + usage.ru_stime, proc.returncode == 0)


class Run:
    """One workload at one seed: its files, commands and operation counts."""

    def __init__(self, workload: Workload, seed: int, directory: Path):
        self.workload = workload
        self.dir = directory
        self.spec = write_inputs(workload, seed, directory)
        self.included = workload.included(self.spec)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def _command(self, args: list[str], log: str,
                 spans: Path | None) -> Measured:
        prefix = [sys.executable]
        prefix += [str(HERE / "trace_run.py"), str(spans)] if spans else [
            "-m", "chartflow.cli"]
        return run_child(prefix + args, self.dir / log)

    def synth(self, corpus: str, spans: Path | None = None) -> Measured:
        return self._command(
            ["synth", str(self.dir / "spec.json"), "--output-dir",
             str(self.dir / corpus)], f"{corpus}.log", spans)

    def evaluate(self, out: str, spans: Path | None = None) -> Measured:
        return self._command(
            ["evaluate", "--corpus-path", str(self.dir / "corpus/corpus.csv"),
             "--labels-path", str(self.dir / "labels.csv"), "--output-dir",
             str(self.dir / out), *self.workload.evaluate_flags],
            f"{out}.log", spans)

    def score(self, measured: Measured, out: str, digest: str,
              run_problems: list[str], city_problems: dict[str, str]) -> None:
        """Count one evaluation's cities as attempted, and those that failed."""
        self.attempted += len(self.included)
        problems = list(run_problems)
        cities = dict(city_problems)
        if not measured.ok:
            problems.append(f"evaluate failed, see {out}.log")
        else:
            try:
                more, per_city = check_report(self.dir / out, self.spec,
                                              self.included, digest)
            except UNREADABLE as exc:
                more, per_city = [f"unreadable report: {exc!r}"], {}
            problems += more
            cities.update(per_city)
        if problems:
            self.failed += len(self.included)
        else:
            self.failed += len(set(cities) & set(self.included))
        self.problems += problems + [f"{c}: {p}" for c, p in cities.items()]

    def check_corpus(self, synth: Measured) -> tuple[str, list[str]]:
        if not synth.ok:
            return "", ["synth failed, see corpus.log"]
        try:
            return check_corpus(self.dir / "corpus", self.spec)
        except UNREADABLE as exc:
            return "", [f"unreadable corpus: {exc!r}"]

    def reference(self, out: str) -> dict[str, str]:
        try:
            return check_reference(self.dir / "corpus", self.dir / out,
                                   self.spec, self.included,
                                   self.workload.solver())
        except UNREADABLE as exc:
            return {city: f"unreadable report: {exc!r}"
                    for city in self.included}

    def report_bytes(self, out: str) -> bytes:
        """Both report files; a missing file reads as empty."""
        files = [self.dir / out / name for name in ("report.csv", "report.json")]
        return b"\0".join(f.read_bytes() if f.is_file() else b"" for f in files)


def timed_run(run: Run, seconds: float, started: float) -> dict:
    """Set up ``SETUP_REPS`` times, then evaluate until ``seconds`` are measured.

    The evaluations take most of the run, because ``wall_s`` is the metric
    held to its spread: the machine's speed drifts over tens of seconds, and
    only a longer stretch of evaluations evens that out. Every set-up must
    write the same corpus; the evaluations read the last one.
    """
    synths: list[Measured] = []
    digests: set[str] = set()
    corpus_problems: list[str] = []
    for _ in range(SETUP_REPS):
        synths.append(run.synth("corpus"))
        digest, problems = run.check_corpus(synths[-1])
        digests.add(digest)
        corpus_problems += problems
    if len(digests) > 1:
        corpus_problems.append("set-ups wrote different corpora")
    evaluations: list[Measured] = []
    reference: dict[str, str] | None = None
    first: bytes | None = None
    while len(evaluations) < MIN_REPS or (
        sum(m.wall_s for m in synths + evaluations) < seconds
        and time.monotonic() - started < DEADLINE_S
    ):
        problems = list(corpus_problems)
        measured = run.evaluate("out")
        evaluations.append(measured)
        if measured.ok and not problems:
            if reference is None:
                reference = run.reference("out")
                first = run.report_bytes("out")
            elif run.report_bytes("out") != first:
                problems.append("report bytes differ between evaluations")
        run.score(measured, "out", digest, problems, reference or {})
    values = {
        "wall_s": statistics.median(m.wall_s for m in evaluations),
        "peak_rss_mb": statistics.median(m.rss_mb for m in evaluations),
        "setup_s": statistics.median(m.wall_s for m in synths),
        "setup_peak_rss_mb": statistics.median(m.rss_mb for m in synths),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in END_TO_END}


def traced_run(run: Run) -> dict:
    """Each command untraced, then traced right after it.

    Back to back, a slow stretch of the machine is less likely to land on
    only one of the pair that ``trace.overhead_s`` compares.
    """
    synth_spans, eval_spans = run.dir / "synth.json", run.dir / "evaluate.json"
    digest, corpus_problems = run.check_corpus(run.synth("corpus"))
    traced_synth = run.synth("corpus_traced", synth_spans)
    untraced = run.evaluate("out")
    traced = run.evaluate("out_traced", eval_spans)
    reference = {}
    if untraced.ok and not corpus_problems:
        reference = run.reference("out")
    run.score(untraced, "out", digest, corpus_problems, reference)

    problems = list(corpus_problems)
    if not traced_synth.ok or sha256_file(
            run.dir / "corpus_traced/corpus.csv") != digest:
        problems.append("traced synth wrote another corpus")
    if traced.ok and untraced.ok and (
            run.report_bytes("out_traced") != run.report_bytes("out")):
        problems.append("traced reports differ from untraced reports")
    run.score(traced, "out_traced", digest, problems, reference)
    if not (traced_synth.ok and traced.ok):
        return {}
    return layer_metrics(json.loads(synth_spans.read_text()),
                         json.loads(eval_spans.read_text()),
                         untraced.cpu_s, traced.wall_s - untraced.wall_s)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.monotonic()
    directory = RUNS_DIR / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(directory, ignore_errors=True)
    run = Run(WORKLOADS[name], seed, directory)
    metrics = traced_run(run) if trace else timed_run(run, seconds, started)
    for problem in run.problems:
        print(f"{name}: FAILED {problem}")
    for metric, m in metrics.items():
        print(f"{name}: {metric} = {m['value']:.6g} {m['unit']}")
    print(f"{name}: operations attempted {run.attempted}, failed {run.failed}")
    if not run.problems:
        shutil.rmtree(directory)
    return {"correct": run.failed == 0 and bool(metrics),
            "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    if not (ROOT / "src/chartflow/cli.py").is_file():
        print(f"error: no chartflow source tree at {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(name, args.seed, args.seconds,
                                  bool(args.trace)) for name in names}
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
