"""Run one ``chartflow`` command in this process with layer spans recorded.

Usage: ``python3 trace_run.py SPANS.json <chartflow arguments>``

Each layer's public functions are wrapped at the module attribute their
callers look up (``chartflow.cli.parse_chart_csv``,
``chartflow.evaluate.build_design``, ...). A span records name, start, end,
parent and a few counts; spans stay in memory and are written to
SPANS.json when the command returns. The root span ``cli.<command>`` starts
before chartflow is imported, so its self time holds imports, configuration
and the writes the command makes. Nothing is written into report files.
The span stack assumes one thread, as `--jobs` 1 (the default) gives.
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import functools  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


class Tracer:
    """Spans in call order; span 0 is the root, open until ``close``."""

    def __init__(self, root: str, start: float):
        self.spans: list[dict] = [{"name": root, "parent": None,
                                   "start": start}]
        self._open: list[int] = [0]

    def close(self) -> None:
        self.spans[0]["end"] = time.perf_counter()

    def wrap(self, module, attr: str, name: str, counts=None) -> None:
        """Replace ``module.attr`` by a wrapper recording span ``name``."""
        inner = getattr(module, attr)

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            span = {"name": name, "parent": self._open[-1]}
            self._open.append(len(self.spans))
            self.spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = inner(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._open.pop()
            if counts is not None:
                span["counts"] = counts(result)
            return result

        setattr(module, attr, traced)


def _design_counts(design):
    return {"rows": design.n_rows, "bytes": design.x.nbytes + design.y.nbytes}


def _split_counts(split):
    return {"bytes": sum(d.x.nbytes + d.y.nbytes
                         for d in (split.train, split.test))}


def install(tracer: Tracer) -> None:
    from chartflow import cli, evaluate, preprocess, rng

    tracer.wrap(cli, "generate_planted", "synth.generate_planted")
    tracer.wrap(rng, "normals", "rng.normals")
    tracer.wrap(cli, "fingerprint", "synth.fingerprint")
    tracer.wrap(cli, "write_chart_csv", "chart_store.write_chart_csv")
    tracer.wrap(cli, "parse_chart_csv", "chart_store.parse_chart_csv",
                lambda s: {"records": len(s.records)})
    tracer.wrap(cli, "build_velocities", "preprocess.build_velocities")
    tracer.wrap(preprocess, "build_artist_index",
                "chart_store.build_artist_index")
    tracer.wrap(preprocess, "to_listeners_matrices",
                "preprocess.to_listeners_matrices")
    tracer.wrap(preprocess, "normalize_rows", "preprocess.normalize_rows")
    tracer.wrap(preprocess, "compute_velocities",
                "preprocess.compute_velocities",
                lambda v: {"nnz": sum(m.nnz for m in v.matrices)})
    tracer.wrap(cli, "evaluate_region", "evaluate.evaluate_region")
    tracer.wrap(evaluate, "evaluate_city", "evaluate.evaluate_city")
    tracer.wrap(evaluate, "build_design", "design.build_design",
                _design_counts)
    tracer.wrap(evaluate, "temporal_split", "design.temporal_split",
                _split_counts)
    for fit in ("fit_ols", "fit_nnls"):
        tracer.wrap(evaluate, fit, f"solver.{fit}",
                    lambda c: {"iterations": c.iterations})
    tracer.wrap(evaluate, "predict", "solver.predict")
    for render in ("build_report", "report_csv_text", "report_json_text",
                   "report_table_text"):
        tracer.wrap(cli, render, "evaluate.report")


def main(argv: list[str]) -> int:
    spans_path, args = argv[0], argv[1:]
    tracer = Tracer(f"cli.{args[0]}", _T0)
    install(tracer)
    from chartflow.cli import main as chartflow_main

    try:
        return chartflow_main(args)
    finally:
        tracer.close()
        with open(spans_path, "w") as handle:
            json.dump(tracer.spans, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
