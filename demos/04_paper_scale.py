"""Paper-scale timing of every pipeline layer, with peak memory.

Synthesizes 30 cities x 2000 artists x 160 weeks at chart size 500 (2.4M
records; c00-c03 lead c04-c07 at lags 1-4), writes and re-parses it as CSV,
then builds velocities and evaluates the whole region, by default with OLS
on the ``target`` active set. Each layer is timed once in this process
with ``time.perf_counter``, and ``getrusage`` gives the system CPU time and
minor page faults it took; the process's peak RSS is read after each one,
and the parsed corpus's column bytes are recorded per column. With the
times go the paper's answer: the SHA-256 of the region's ``report.csv``
text and every city's three percents at full precision, and the solver
and active set that produced them. The result is stored under LABEL
(default ``current``) in ``BENCH_paper_scale.json`` in the working
directory, next to the runs already there, so two source trees or two
settings can be compared in one file:

    python3 demos/04_paper_scale.py [LABEL] [--solver nnls] [--active-set union]

A ``union`` design holds about 302,000 rows x 240 columns (0.55 GiB) per
city, so that run's region takes about 24 s and peaks at about 0.67 GB of
RSS; under ``--solver nnls`` it takes about as long as under OLS.

The run is recorded, then the demo exits nonzero when the paper-level
gates fail at this scale: every planted follower (c04-c07) must gain at
least 5 points, and every unlabeled city must drift by at most 2 points.

BLAS is held to one thread, as in the benchmark under ``perfbench/``. On a
2-CPU machine one run takes 10-15 s and peaks at about 0.3 GB of RSS.
"""

import argparse
import os

# Before numpy loads: one BLAS thread, so a run does not depend on how many
# CPUs are free.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from chartflow import (  # noqa: E402
    Influence,
    PlantSpec,
    build_report,
    build_velocities,
    evaluate_region,
    fingerprint,
    generate_planted,
    parse_chart_csv,
    report_csv_text,
    write_chart_csv,
)

OUT = Path("BENCH_paper_scale.json")

MIN_FOLLOWER_GAIN = 5.0
MAX_NULL_DRIFT = 2.0

SPEC = PlantSpec(
    cities=tuple(
        (f"c{i:02d}", "leader" if i < 4 else "follower" if i < 8 else "unlabeled")
        for i in range(30)
    ),
    influence=tuple(
        Influence(f"c{i:02d}", f"c{i + 4:02d}", i + 1, 0.8) for i in range(4)
    ),
    weeks=160,
    artists=2000,
    chart_size=500,
    noise_sigma=0.04,
    seed=2013,
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(label: str, solver: str, active_set: str) -> None:
    layers = {}

    def timed(name, fn, *args, **kwargs):
        before = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        seconds = time.perf_counter() - start
        after = resource.getrusage(resource.RUSAGE_SELF)
        layers[name] = {
            "s": round(seconds, 3),
            "sys_s": round(after.ru_stime - before.ru_stime, 3),
            "minor_faults": after.ru_minflt - before.ru_minflt,
            "peak_rss_mb_after": round(peak_rss_mb(), 1),
        }
        print(f"{name:16s} {seconds:8.2f} s  sys {layers[name]['sys_s']:6.2f} s"
              f"  {layers[name]['minor_faults']:8d} minor faults"
              f"  peak {layers[name]['peak_rss_mb_after']:7.1f} MB", flush=True)
        return result

    with tempfile.TemporaryDirectory() as tmp:
        corpus = Path(tmp) / "corpus.csv"
        synthesized = timed("synth", generate_planted, SPEC)
        timed("write + hash", write_chart_csv, synthesized, corpus)
        del synthesized
        series = timed("parse", parse_chart_csv, corpus)
    timed("fingerprint", fingerprint, series)
    velocities = timed("velocities", build_velocities, series)
    records = len(series)
    column_bytes = {
        name: getattr(series, name).nbytes
        for name in ("week_idx", "city_idx", "artist_idx", "listeners")
    }
    print(f"corpus columns   {sum(column_bytes.values()) / 2**20:8.2f} MiB")
    del series
    results = timed(
        "evaluate_region", evaluate_region, velocities,
        solver_variant=solver, active_rule=active_set,
    )
    if not all(r.ok for r in results):
        raise SystemExit(f"failed rows: {[r.status for r in results if not r.ok]}")
    report = report_csv_text(build_report(results, SPEC.labels()))
    digest = hashlib.sha256(report.encode("utf-8")).hexdigest()
    print(f"report.csv sha256 {digest}")

    payload = json.loads(OUT.read_text()) if OUT.exists() else {}
    payload.setdefault("spec", {
        "cities": len(SPEC.cities), "artists": SPEC.artists,
        "weeks": SPEC.weeks, "chart_size": SPEC.chart_size,
        "records": records, "seed": SPEC.seed,
    })
    payload.setdefault("runs", {})[label] = {
        "solver": solver,
        "active_set": active_set,
        "layers": layers,
        "column_bytes": column_bytes,
        "peak_rss_mb": round(peak_rss_mb(), 1),
        "report_sha256": digest,
        "percents": {
            r.city: {
                "self_history_pct": r.self_history_pct,
                "all_history_pct": r.all_history_pct,
                "difference": r.difference,
            }
            for r in results
        },
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
    }
    OUT.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"wrote {OUT} [{label}]")

    roles = dict(SPEC.cities)
    failed = [
        f"{r.city} ({roles[r.city]}) difference {r.difference:.3f}"
        for r in results
        if roles[r.city] == "follower" and not r.difference >= MIN_FOLLOWER_GAIN
        or roles[r.city] == "unlabeled" and not abs(r.difference) <= MAX_NULL_DRIFT
    ]
    if failed:
        raise SystemExit(f"paper-level gates failed: {', '.join(failed)}")


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", nargs="?", default="current")
    parser.add_argument("--solver", choices=("ols", "nnls"), default="ols")
    parser.add_argument(
        "--active-set", choices=("target", "union"), default="target"
    )
    args = parser.parse_args()
    main(args.label, args.solver, args.active_set)
