"""Holdout scoring against the zero-change baseline, and region reports.

Every fitted model is judged on the held-out final stretch of weeks by its
RMSE relative to the trivial predictor that says preferences never change:
100 means no better than doing nothing, 50 means half its error. A region
report collects one row per city (own-history percent, all-history percent,
and their difference), sorts rows by all-history percent, and averages the
difference over leader- and follower-labelled subsets.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from datetime import date
from decimal import ROUND_HALF_UP, Decimal
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from .chart_store import read_csv_pairs
from .design import (
    LagConfig,
    build_design,
    default_boundary,
    design_rows,
    temporal_split,
)
from .errors import (
    ChartFlowError,
    DimensionError,
    ParseError,
    UndefinedBaselineError,
)
from .preprocess import VelocitySeries
from .solver import fit_nnls, fit_ols, predict

LABEL_HEADER = ("city", "role")
LABEL_ROLES = ("leader", "follower")
SOLVERS = ("ols", "nnls")


@dataclass(frozen=True)
class CityResult:
    """One report row; percents are None when the evaluation failed."""

    city: str
    self_history_pct: float | None
    all_history_pct: float | None
    difference: float | None
    sample_counts: tuple[int, int] = (0, 0)
    rank_flags: tuple[bool, bool] = (False, False)
    status: str = "ok"

    @property
    def ok(self) -> bool:
        return self.status == "ok"


@dataclass(frozen=True)
class RegionReport:
    """Rows sorted ascending by all-history percent, plus group averages."""

    region_label: str
    genre_label: str
    rows: tuple[CityResult, ...]
    avg_all: tuple[float, float, float] | None
    avg_leaders: float | None
    avg_followers: float | None
    labels: Mapping[str, str]


def rmse(actual, predicted) -> float:
    """Root-mean-squared error between two equal-length vectors."""
    actual = np.asarray(actual, dtype=np.float64)
    predicted = np.asarray(predicted, dtype=np.float64)
    if actual.ndim != 1 or predicted.ndim != 1:
        raise DimensionError("rmse expects 1-D vectors")
    if actual.shape != predicted.shape or actual.size == 0:
        raise DimensionError(
            f"length mismatch or empty: {actual.shape} vs {predicted.shape}"
        )
    return float(np.sqrt(np.mean((actual - predicted) ** 2)))


def baseline_rmse(actual) -> float:
    """RMSE of the zero-change predictor."""
    actual = np.asarray(actual, dtype=np.float64)
    return rmse(actual, np.zeros_like(actual))


def percent_of_baseline(model_rmse: float, baseline: float) -> float:
    """Model error as a percentage of the baseline error."""
    if baseline <= 0:
        raise UndefinedBaselineError(
            "baseline RMSE is zero; relative error is undefined"
        )
    return 100.0 * model_rmse / baseline


def evaluate_city(
    velocities: VelocitySeries,
    target_city: str,
    config: LagConfig,
    *,
    boundary: date | None = None,
    solver_variant: str = "ols",
    active_rule: str = "target",
    out: np.ndarray | None = None,
) -> CityResult:
    """Fit and score both models for one city on the identical sample set.

    ``config`` lists the cities of the all-history model, the target among
    them, and only its design is built, into ``out`` when given (see
    :func:`build_design`). The own-history model, the one-city case, is
    fitted on the target city's ``lag_count`` columns of it, so both models
    see the same rows by construction. A design without rows raises
    InsufficientDataError.
    """
    if target_city not in config.cities_included:
        raise ValueError(f"config does not include target {target_city!r}")
    if solver_variant not in SOLVERS:
        raise ValueError(f"unknown solver variant {solver_variant!r}")

    design = build_design(velocities, target_city, config, active_rule,
                          out=out)
    if boundary is None:
        boundary = default_boundary(velocities.weeks)
    split = temporal_split(design, boundary)
    own = config.city_columns(target_city)

    fit = fit_nnls if solver_variant == "nnls" else fit_ols
    train, test = split.train, split.test
    own_fit = fit(train.x[:, own], train.y)
    all_fit = fit(train.x, train.y)
    baseline = baseline_rmse(test.y)
    self_pct = percent_of_baseline(
        rmse(test.y, predict(test.x[:, own], own_fit)), baseline
    )
    all_pct = percent_of_baseline(
        rmse(test.y, predict(test.x, all_fit)), baseline
    )
    return CityResult(
        city=target_city,
        self_history_pct=self_pct,
        all_history_pct=all_pct,
        difference=self_pct - all_pct,
        sample_counts=(train.n_rows, test.n_rows),
        rank_flags=(own_fit.rank_deficient, all_fit.rank_deficient),
    )


def evaluate_region(
    velocities: VelocitySeries,
    cities_included: Sequence[str] | None = None,
    *,
    lag_count: int = 8,
    boundary: date | None = None,
    solver_variant: str = "ols",
    active_rule: str = "target",
) -> list[CityResult]:
    """Evaluate every included city; failures become status rows.

    Every city's design reads the series' one cached slab scatter, over
    every row of the series; velocities built for more cities than are
    included scatter those rows too. Every design is built into one buffer,
    sized for the largest. A city missing from the corpus fails every
    design.
    """
    cities = tuple(
        cities_included if cities_included is not None else velocities.cities
    )
    config = LagConfig(lag_count, cities)

    def rows(city: str) -> int:
        try:
            return design_rows(velocities, city, config, active_rule)
        except ChartFlowError:
            return 0  # its design fails, and so does the city

    out = np.empty(max(map(rows, cities)) * len(config.columns()))

    def one(city: str) -> CityResult:
        try:
            return evaluate_city(
                velocities,
                city,
                config,
                boundary=boundary,
                solver_variant=solver_variant,
                active_rule=active_rule,
                out=out,
            )
        except ChartFlowError as exc:
            return CityResult(
                city=city,
                self_history_pct=None,
                all_history_pct=None,
                difference=None,
                status=f"{type(exc).__name__}: {exc}",
            )

    return [one(city) for city in cities]


def build_report(
    results: Sequence[CityResult],
    labels: Mapping[str, str],
    region_label: str = "",
    genre_label: str = "all",
) -> RegionReport:
    """Sort rows by all-history percent and compute the three averages.

    The sort is stable: rows with equal percents keep their input order, and
    failed rows sink to the bottom. Leader/follower averages cover only the
    labelled, successfully evaluated cities.
    """
    for city, role in labels.items():
        if role not in LABEL_ROLES:
            raise ValueError(f"city {city!r} has unknown role {role!r}")
    rows = tuple(
        sorted(
            results,
            key=lambda r: (not r.ok, r.all_history_pct if r.ok else 0.0),
        )
    )
    ok_rows = [r for r in rows if r.ok]

    def mean(values: list[float]) -> float | None:
        return float(np.mean(values)) if values else None

    avg_all = None
    if ok_rows:
        avg_all = (
            float(np.mean([r.self_history_pct for r in ok_rows])),
            float(np.mean([r.all_history_pct for r in ok_rows])),
            float(np.mean([r.difference for r in ok_rows])),
        )
    avg_leaders = mean(
        [r.difference for r in ok_rows if labels.get(r.city) == "leader"]
    )
    avg_followers = mean(
        [r.difference for r in ok_rows if labels.get(r.city) == "follower"]
    )
    label_map = {r.city: labels.get(r.city, "unlabeled") for r in rows}
    return RegionReport(
        region_label=region_label,
        genre_label=genre_label,
        rows=rows,
        avg_all=avg_all,
        avg_leaders=avg_leaders,
        avg_followers=avg_followers,
        labels=label_map,
    )


def format_pct(value: float | None) -> str:
    """Render a percent to one decimal place (half-up), empty for None."""
    if value is None:
        return ""
    return str(
        Decimal(repr(float(value))).quantize(Decimal("0.1"), ROUND_HALF_UP)
    )


def report_table_text(report: RegionReport) -> str:
    """Human-readable table: per-city rows plus the three average lines."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("City", "Self history", "All history", "Difference"))
    for row in report.rows:
        writer.writerow(
            (
                row.city,
                format_pct(row.self_history_pct),
                format_pct(row.all_history_pct),
                format_pct(row.difference),
            )
        )
    if report.avg_all is not None:
        writer.writerow(
            ("Avg. all",) + tuple(format_pct(v) for v in report.avg_all)
        )
    if report.avg_leaders is not None:
        writer.writerow(("Avg. leaders", "", "", format_pct(report.avg_leaders)))
    if report.avg_followers is not None:
        writer.writerow(
            ("Avg. followers", "", "", format_pct(report.avg_followers))
        )
    return buffer.getvalue()


def report_csv_text(report: RegionReport) -> str:
    """Machine-readable rows: ``city,self_pct,all_pct,difference,role,status``."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(("city", "self_pct", "all_pct", "difference", "role", "status"))
    for row in report.rows:
        writer.writerow(
            (
                row.city,
                format_pct(row.self_history_pct),
                format_pct(row.all_history_pct),
                format_pct(row.difference),
                report.labels.get(row.city, "unlabeled"),
                row.status,
            )
        )
    return buffer.getvalue()


def report_json_text(report: RegionReport, metadata: Mapping[str, object]) -> str:
    """Full-precision JSON document with run metadata."""
    payload = {
        "region_label": report.region_label,
        "genre_label": report.genre_label,
        "rows": [
            {
                "city": row.city,
                "self_history_pct": row.self_history_pct,
                "all_history_pct": row.all_history_pct,
                "difference": row.difference,
                "role": report.labels.get(row.city, "unlabeled"),
                "status": row.status,
                "train_rows": row.sample_counts[0],
                "test_rows": row.sample_counts[1],
                "rank_deficient_own": row.rank_flags[0],
                "rank_deficient_all": row.rank_flags[1],
            }
            for row in report.rows
        ],
        "avg_all": (
            None
            if report.avg_all is None
            else {
                "self_history_pct": report.avg_all[0],
                "all_history_pct": report.avg_all[1],
                "difference": report.avg_all[2],
            }
        ),
        "avg_leaders": report.avg_leaders,
        "avg_followers": report.avg_followers,
        "metadata": dict(metadata),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def read_labels_csv(path: str | Path) -> dict[str, str]:
    """Read a ``city,role`` CSV: one leader or follower role per city."""
    labels: dict[str, str] = {}
    for lineno, city, role in read_csv_pairs(path, LABEL_HEADER):
        if role not in LABEL_ROLES:
            raise ParseError(f"unknown role {role!r}", line=lineno)
        if city in labels:
            raise ParseError(f"city {city!r} labelled twice", line=lineno)
        labels[city] = role
    return labels
