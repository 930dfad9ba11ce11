"""Command-line driver wiring the pipeline end to end.

Subcommands
-----------
validate     parse a corpus and print a summary (weeks, cities, gaps, digest)
evaluate     run the full per-city evaluation and write report.csv/report.json
synth        generate a synthetic corpus from a spec JSON file
dump-design  write one city's lagged design matrix as CSV

Configuration comes from four layers, later layers winning: built-in
defaults, a flat ``key = value`` config file (``--config``), environment
variables prefixed ``CHARTFLOW_`` (upper-cased key), and command-line flags
(key with dashes, e.g. ``corpus_path`` -> ``--corpus-path``). Config files
ignore blank lines and ``#`` comments. One ``RunConfig`` field declares each
setting for all four layers: its name is the key, and it carries the
default, the parser of the setting's text and, for ``solver``,
``active_set`` and ``filter_stage``, the two allowed values.

Exit codes: 0 success, 2 input error (an allocation too large for memory
included), 3 every city failed to evaluate.
"""

from __future__ import annotations

import argparse
import io
import os
import sys
from dataclasses import dataclass, field, fields
from datetime import date
from pathlib import Path

from .chart_store import (
    ChartSeries,
    fingerprint,
    load_tags,
    parse_chart_csv,
    parse_date,
    read_text,
    write_chart_csv,
)
from .design import (
    LagConfig,
    build_design,
    check_lag_count,
    default_boundary,
    design_csv_text,
)
from .errors import ChartFlowError
from .evaluate import (
    build_report,
    evaluate_region,
    read_labels_csv,
    report_csv_text,
    report_json_text,
    report_table_text,
)
from .preprocess import VelocitySeries, build_velocities, week_gaps
from .synth import PlantSpec, generate_planted, sidecar_json_text

ENV_PREFIX = "CHARTFLOW_"


def _parse_cities(raw: str) -> tuple[str, ...]:
    return tuple(part.strip() for part in raw.split(",") if part.strip())


def _setting(default=None, parse=str, choices=None):
    """A ``RunConfig`` field: ``default``, the ``parse`` of its text (config
    file, environment or flag) and, if enumerated, its two ``choices``."""
    return field(default=default, metadata={"parse": parse, "choices": choices})


@dataclass
class RunConfig:
    """Every tunable of an evaluation run; defaults mirror the reference setup."""

    corpus_path: str | None = _setting()
    tags_path: str | None = _setting()
    tag: str | None = _setting()
    labels_path: str | None = _setting()
    region_label: str = _setting("")
    cities_included: tuple[str, ...] | None = _setting(parse=_parse_cities)
    lag_count: int = _setting(8, int)
    boundary: date | None = _setting(parse=parse_date)
    solver: str = _setting("ols", choices=("ols", "nnls"))
    active_set: str = _setting("target", choices=("target", "union"))
    filter_stage: str = _setting("pre", choices=("pre", "post"))
    output_dir: str = _setting(".")


class CliInputError(ChartFlowError):
    """Bad configuration or unreadable input; maps to exit code 2."""


def parse_config_file(path: str | Path) -> dict[str, str]:
    """Parse a flat ``key = value`` config document.

    Lines end at ``\n``, ``\r\n`` or ``\r``, as in a text-mode read.
    """
    keys = {setting.name for setting in fields(RunConfig)}
    values: dict[str, str] = {}
    lines = io.StringIO(read_text(path), newline=None)
    for lineno, raw_line in enumerate(lines, start=1):
        line = raw_line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise CliInputError(
                f"{path}:{lineno}: expected 'key = value', got {line!r}"
            )
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in keys:
            raise CliInputError(f"{path}:{lineno}: unknown key {key!r}")
        values[key] = value.strip()
    return values


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Layer defaults, config file, environment, then flags."""
    settings = {setting.name: setting.metadata for setting in fields(RunConfig)}
    raw = parse_config_file(args.config) if getattr(args, "config", None) else {}
    for key in settings:
        env_value = os.environ.get(ENV_PREFIX + key.upper())
        if env_value is not None:
            raw[key] = env_value
    values = {}
    for key, text in raw.items():
        try:
            values[key] = settings[key]["parse"](text)
        except ValueError as exc:
            raise CliInputError(f"bad value for {key!r}: {exc}") from exc
    for key in settings:
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            values[key] = flag_value
    config = RunConfig(**values)
    for key, setting in settings.items():
        value = getattr(config, key)
        if setting["choices"] and value not in setting["choices"]:
            choices = " or ".join(setting["choices"])
            raise CliInputError(f"{key} must be {choices}, got {value!r}")
    if config.lag_count < 1:
        raise CliInputError(f"lag_count must be >= 1, got {config.lag_count}")
    if config.cities_included is not None:
        try:
            LagConfig(config.lag_count, config.cities_included)
        except ValueError as exc:  # no city, or a repeated one
            raise CliInputError(str(exc)) from None
    return config


def _load_corpus(config: RunConfig) -> ChartSeries:
    if not config.corpus_path:
        raise CliInputError("corpus_path is required")
    try:
        return parse_chart_csv(config.corpus_path)
    except OSError as exc:
        raise CliInputError(f"cannot read corpus: {exc}") from exc


def _region_label(config: RunConfig) -> str:
    return config.region_label or Path(config.corpus_path).stem


def _tagged_artists(config: RunConfig) -> set[str] | None:
    if not config.tag:
        return None
    if not config.tags_path:
        raise CliInputError("tag filtering requires tags_path")
    try:
        tags = load_tags(config.tags_path)
    except OSError as exc:
        raise CliInputError(f"cannot read tags: {exc}") from exc
    if config.tag not in tags:
        raise CliInputError(f"tag {config.tag!r} not present in {config.tags_path}")
    return tags[config.tag]


def _velocities_for(
    config: RunConfig, series: ChartSeries, cities: tuple[str, ...] | None
) -> VelocitySeries:
    """Velocities of ``cities`` (None: every city), tag-filtered as configured.

    Cities the corpus lacks are left out, so the caller's check against
    ``velocities.cities`` reports them. A city with no tagged artist keeps
    its rows, left empty, and gets a status row.
    """
    tagged = _tagged_artists(config)
    if tagged is not None and tagged.isdisjoint(series.artists):
        raise CliInputError(f"tag {config.tag!r} names no artist in the corpus")
    if cities is not None:
        cities = tuple(c for c in cities if c in series.cities)
    return build_velocities(series, tagged, cities,
                            filter_stage=config.filter_stage)


def cmd_validate(config: RunConfig) -> int:
    series = _load_corpus(config)
    print(f"region: {_region_label(config)}")
    print(f"records: {len(series)}")
    if series.weeks:
        print(f"weeks: {len(series.weeks)} ({series.weeks[0]} .. {series.weeks[-1]})")
    else:
        print("weeks: 0")
    print(f"cities: {len(series.cities)}")
    print(f"artists: {len(series.artists)}")
    gaps = week_gaps(series.weeks)
    print(f"gaps: {len(gaps)}")
    for before, after, days in gaps:
        print(f"  {before} -> {after} ({days} days)")
    print(f"fingerprint: {fingerprint(series)}")
    return 0


def cmd_evaluate(config: RunConfig) -> int:
    series = _load_corpus(config)
    digest = fingerprint(series)
    velocities = _velocities_for(config, series, config.cities_included)
    del series  # the velocities hold all that is read from here on
    cities = (
        config.cities_included
        if config.cities_included is not None
        else velocities.cities
    )
    unknown = sorted(set(cities) - set(velocities.cities))
    if unknown:
        raise CliInputError(f"cities not in corpus: {unknown}")
    check_lag_count(velocities, config.lag_count)
    boundary = config.boundary or default_boundary(velocities.weeks)
    if not velocities.weeks[0] < boundary <= velocities.weeks[-1]:
        which = "boundary" if config.boundary else (
            f"default boundary (the two-thirds point of "
            f"{velocities.n_weeks} velocity weeks)"
        )
        raise CliInputError(
            f"{which} {boundary} outside velocity week range "
            f"({velocities.weeks[0]} .. {velocities.weeks[-1]})"
        )
    labels = {}
    if config.labels_path:
        try:
            labels = read_labels_csv(config.labels_path)
        except OSError as exc:
            raise CliInputError(f"cannot read labels: {exc}") from exc
    results = evaluate_region(
        velocities,
        cities,
        lag_count=config.lag_count,
        boundary=boundary,
        solver_variant=config.solver,
        active_rule=config.active_set,
    )
    report = build_report(
        results,
        labels,
        region_label=_region_label(config),
        genre_label=config.tag or "all",
    )
    metadata = {
        "boundary": boundary.isoformat(),
        "lag_count": config.lag_count,
        "solver": config.solver,
        "ridge": 0.0,  # no penalty is applied; the key keeps reports' shape
        "active_set": config.active_set,
        "filter_stage": config.filter_stage,
        "corpus_fingerprint": digest,
        "cities_included": list(cities),
    }
    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "report.csv").write_text(report_csv_text(report), encoding="utf-8")
    (out / "report.json").write_text(
        report_json_text(report, metadata), encoding="utf-8"
    )
    print(report_table_text(report), end="")
    failed = [r for r in report.rows if not r.ok]
    for row in failed:
        print(f"note: {row.city}: {row.status}", file=sys.stderr)
    print(f"wrote {out / 'report.csv'} and {out / 'report.json'}")
    if len(failed) == len(report.rows):
        return 3
    return 0


def cmd_synth(spec_path: str, output_dir: str) -> int:
    spec = PlantSpec.from_json_file(spec_path)
    series = generate_planted(spec)
    out = Path(output_dir)
    out.mkdir(parents=True, exist_ok=True)
    corpus_path = out / "corpus.csv"
    sidecar_path = out / "corpus.meta.json"
    digest = write_chart_csv(series, corpus_path)
    sidecar_path.write_text(sidecar_json_text(spec, digest), encoding="utf-8")
    print(f"wrote {corpus_path} ({len(series)} records)")
    print(f"wrote {sidecar_path}")
    print(f"fingerprint: {digest}")
    return 0


def cmd_dump_design(config: RunConfig, city: str, out: str | None) -> int:
    series = _load_corpus(config)
    included = config.cities_included
    velocities = _velocities_for(
        config, series, None if included is None else (*included, city)
    )
    lag_config = LagConfig(
        config.lag_count, velocities.cities if included is None else included
    )
    design = build_design(velocities, city, lag_config, config.active_set)
    text = design_csv_text(design)
    if out:
        Path(out).write_text(text, encoding="utf-8")
        print(f"wrote {out} ({design.n_rows} rows)")
    else:
        print(text, end="")
    return 0


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    for setting in fields(RunConfig):
        parser.add_argument(
            "--" + setting.name.replace("_", "-"),
            type=setting.metadata["parse"],
            choices=setting.metadata["choices"],
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="chartflow",
        description="Lead-lag evaluation of weekly music-chart corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_validate = sub.add_parser("validate", help="parse and summarize a corpus")
    _add_config_flags(p_validate)

    p_evaluate = sub.add_parser("evaluate", help="run the full evaluation")
    _add_config_flags(p_evaluate)

    p_synth = sub.add_parser("synth", help="generate a synthetic corpus")
    p_synth.add_argument("spec", help="PlantSpec JSON file")
    p_synth.add_argument("--output-dir", default=".")

    p_dump = sub.add_parser("dump-design", help="dump one city's design matrix")
    _add_config_flags(p_dump)
    p_dump.add_argument("--city", required=True)
    p_dump.add_argument("--out", help="output CSV path (default: stdout)")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "synth":
            return cmd_synth(args.spec, args.output_dir)
        config = resolve_config(args)
        if args.command == "validate":
            return cmd_validate(config)
        if args.command == "evaluate":
            return cmd_evaluate(config)
        if args.command == "dump-design":
            return cmd_dump_design(config, args.city, args.out)
        raise AssertionError(f"unhandled command {args.command!r}")
    except (ChartFlowError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'allocation failed'}",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
