"""The benchmark's traced run still sees every layer of the pipeline.

``perfbench/trace_run.py`` wraps chartflow functions by module attribute
and reads a few counts off their results; a rename or a changed return type
would silently empty a per-layer metric. This runs a traced ``synth`` and a
traced ``evaluate`` (OLS, then NNLS, then for two of the three cities) on
a small spec and checks the metrics they give.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from chartflow import build_velocities, parse_chart_csv

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

SPEC = {
    "cities": [
        {"name": "lead", "role": "leader"},
        {"name": "echo", "role": "follower"},
        {"name": "other", "role": "unlabeled"},
    ],
    "influence": [{"leader": "lead", "follower": "echo", "lag": 2,
                   "strength": 0.8}],
    "weeks": 30,
    "artists": 20,
    "chart_size": 12,
    "noise_sigma": 0.04,
    "seed": 7,
}


def _traced(spans: Path, *args) -> list[dict]:
    subprocess.run(
        [sys.executable, str(PERFBENCH / "trace_run.py"), str(spans),
         *map(str, args)],
        check=True,
        capture_output=True,
        env={**{k: v for k, v in os.environ.items()
                 if not k.startswith("CHARTFLOW_")},
             "PYTHONPATH": str(ROOT / "src"), "OPENBLAS_NUM_THREADS": "1"},
    )
    return json.loads(spans.read_text())


def test_traced_layers_are_all_measured(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(SPEC))
    synth_spans = _traced(tmp_path / "synth.json", "synth", spec,
                          "--output-dir", tmp_path)
    eval_spans = _traced(tmp_path / "eval.json", "evaluate", "--corpus-path",
                         tmp_path / "corpus.csv", "--output-dir",
                         tmp_path / "out")

    sys.path.insert(0, str(PERFBENCH))
    try:
        from layers import layer_metrics
    finally:
        sys.path.remove(str(PERFBENCH))
    metrics = layer_metrics(synth_spans, eval_spans, 0.0, 0.0)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    assert {m["name"] for m in declared} <= set(metrics)
    rows = (tmp_path / "corpus.csv").read_text().count("\n") - 1
    assert rows == 30 * 3 * 12
    assert metrics["chart_store.records"]["value"] == rows
    assert metrics["design.calls"]["value"] == len(SPEC["cities"])
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert metrics["design.rows"]["value"] == sum(
        row["train_rows"] + row["test_rows"] for row in report["rows"]
    )
    assert metrics["design.dense_mb"]["value"] > 0
    # A stage the pipeline stops calling reads 0 instead of failing.
    for name in ("chart_store.parse_s", "chart_store.index_s",
                 "synth.fingerprint_s", "preprocess.listeners_s",
                 "preprocess.normalize_s", "preprocess.velocities_s",
                 "design.build_s"):
        assert metrics[name]["value"] > 0, name

    nnls_spans = _traced(tmp_path / "nnls.json", "evaluate", "--corpus-path",
                         tmp_path / "corpus.csv", "--solver", "nnls",
                         "--output-dir", tmp_path / "out_nnls")
    nnls = layer_metrics(synth_spans, nnls_spans, 0.0, 0.0)
    assert nnls["solver.fits"]["value"] == 2 * len(SPEC["cities"])
    assert nnls["solver.nnls_iterations"]["value"] > 0

    # Velocities are built only for the included cities, and the layer's
    # count says so: the nnz of the two cities' rows, not of all three.
    pair_spans = _traced(tmp_path / "pair.json", "evaluate", "--corpus-path",
                         tmp_path / "corpus.csv", "--cities-included",
                         "lead,echo", "--output-dir", tmp_path / "out_pair")
    pair = layer_metrics(synth_spans, pair_spans, 0.0, 0.0)
    full = build_velocities(parse_chart_csv(tmp_path / "corpus.csv"))
    rows = [full.cities.index(city) for city in ("lead", "echo")]
    pair_nnz = sum(int(np.isin(m.rows(), rows).sum()) for m in full.matrices)
    assert pair["preprocess.velocity_nnz"]["value"] == pair_nnz
    assert pair_nnz < metrics["preprocess.velocity_nnz"]["value"]
    assert pair["design.calls"]["value"] == 2
