"""Per-layer metrics from the spans of one traced synth and one traced evaluate.

Times named ``*_s`` are the summed durations of a function's spans, children
included, except ``*_self_s``: a span's duration minus the time its child
spans cover. ``design.dense_mb`` is computed from array sizes, not
measured: the most bytes of design and split arrays built for one city.
"""

from __future__ import annotations

PER_LAYER = (
    ("chart_store.parse_s", "s"),
    ("chart_store.records", "count"),
    ("chart_store.write_s", "s"),
    ("chart_store.index_s", "s"),
    ("synth.generate_s", "s"),
    ("synth.rng_s", "s"),
    ("synth.fingerprint_s", "s"),
    ("preprocess.listeners_s", "s"),
    ("preprocess.normalize_s", "s"),
    ("preprocess.velocities_s", "s"),
    ("preprocess.velocity_nnz", "count"),
    ("design.build_s", "s"),
    ("design.calls", "count"),
    ("design.rows", "count"),
    ("design.split_s", "s"),
    ("design.dense_mb", "MB-computed"),
    ("solver.fit_s", "s"),
    ("solver.fits", "count"),
    ("solver.nnls_iterations", "count"),
    ("solver.predict_s", "s"),
    ("evaluate.city_self_s", "s"),
    ("evaluate.report_s", "s"),
    ("cli.synth_self_s", "s"),
    ("cli.evaluate_self_s", "s"),
    ("cli.evaluate_cpu_s", "s"),
    ("trace.overhead_s", "s"),
)


def _self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(synth_spans: list[dict], eval_spans: list[dict],
                  evaluate_cpu_s: float, overhead_s: float) -> dict:
    both = synth_spans + eval_spans
    own = _self_times(synth_spans) + _self_times(eval_spans)

    def spans(*names):
        return [s for s in both if s["name"] in names]

    def took(*names):
        return sum(s["end"] - s["start"] for s in spans(*names))

    def counted(name, key):
        return sum(s["counts"][key] for s in spans(name))

    def self_of(*names):
        return sum(t for s, t in zip(both, own) if s["name"] in names)

    city_bytes = [
        sum(c.get("counts", {}).get("bytes", 0) for c in eval_spans
            if c["parent"] == i)
        for i, s in enumerate(eval_spans) if s["name"] == "evaluate.evaluate_city"
    ]
    values = {
        "chart_store.parse_s": took("chart_store.parse_chart_csv"),
        "chart_store.records": counted("chart_store.parse_chart_csv", "records"),
        "chart_store.write_s": took("chart_store.write_chart_csv"),
        "chart_store.index_s": took("chart_store.build_artist_index"),
        "synth.generate_s": took("synth.generate_planted"),
        "synth.rng_s": took("rng.normals"),
        "synth.fingerprint_s": took("synth.fingerprint"),
        "preprocess.listeners_s": took("preprocess.to_listeners_matrices"),
        "preprocess.normalize_s": took("preprocess.normalize_rows"),
        "preprocess.velocities_s": took("preprocess.compute_velocities"),
        "preprocess.velocity_nnz": counted("preprocess.compute_velocities",
                                           "nnz"),
        "design.build_s": took("design.build_design"),
        "design.calls": len(spans("design.build_design")),
        "design.rows": counted("design.build_design", "rows"),
        "design.split_s": took("design.temporal_split"),
        "design.dense_mb": max(city_bytes, default=0) / 2**20,
        "solver.fit_s": took("solver.fit_ols", "solver.fit_nnls"),
        "solver.fits": len(spans("solver.fit_ols", "solver.fit_nnls")),
        "solver.nnls_iterations": counted("solver.fit_nnls", "iterations"),
        "solver.predict_s": took("solver.predict"),
        "evaluate.city_self_s": self_of("evaluate.evaluate_region",
                                        "evaluate.evaluate_city"),
        "evaluate.report_s": took("evaluate.report"),
        "cli.synth_self_s": self_of("cli.synth"),
        "cli.evaluate_self_s": self_of("cli.evaluate"),
        "cli.evaluate_cpu_s": evaluate_cpu_s,
        "trace.overhead_s": overhead_s,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in PER_LAYER}
