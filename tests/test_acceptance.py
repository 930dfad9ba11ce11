"""Acceptance suite: one test per exit criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. Every tolerance is pinned here; nothing is deferred to calibration.
"""

import time

import numpy as np

from chartflow import (
    LagConfig,
    PlantSpec,
    build_design,
    build_report,
    build_velocities,
    default_boundary,
    evaluate_city,
    fit_nnls,
    fit_ols,
    generate_planted,
    predict,
    rmse,
    rng,
    temporal_split,
    write_chart_csv,
)
from chartflow.chart_store import build_artist_index
from chartflow.cli import main
from chartflow.evaluate import format_pct, report_table_text
from chartflow.preprocess import (
    compute_velocities,
    normalize_rows,
    to_listeners_matrices,
)

from conftest import NULL_SPEC, REFERENCE_SPEC, SMALL_PLANT, row_norms
from oracles import oracle_nnls, oracle_ols
from test_evaluate import (
    NORTH_AMERICA_ALL,
    na_labels,
    transcribed_results,
)


def _pass(criterion: str, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"\nACCEPTANCE PASS: {criterion}{suffix}")


def test_oracle_equivalence():
    """fit_ols/fit_nnls match the brute-force oracles on 200 seeded fixtures."""
    start = time.monotonic()
    worst_ols = worst_nnls = 0.0
    for seed in range(200):
        cols = 1 + seed % 10  # 1..10
        rows = min(50, cols + 2 + (seed * 13) % 40)  # tall, full rank a.s.
        x = rng.normals(rng.derive_key(7000 + seed, 1), rows * cols).reshape(
            rows, cols
        )
        y = rng.normals(rng.derive_key(7000 + seed, 2), rows)
        gap_ols = float(
            np.abs(fit_ols(x, y).values - oracle_ols(x, y).values).max()
        )
        gap_nnls = float(
            np.abs(fit_nnls(x, y).values - oracle_nnls(x, y).values).max()
        )
        worst_ols = max(worst_ols, gap_ols)
        worst_nnls = max(worst_nnls, gap_nnls)
    elapsed = time.monotonic() - start
    assert worst_ols < 1e-8
    assert worst_nnls < 1e-8
    assert elapsed < 10.0
    _pass(
        "oracle equivalence",
        f"max gap ols {worst_ols:.2e}, nnls {worst_nnls:.2e}, {elapsed:.1f}s",
    )


def test_nesting_inequality():
    """Training RMSE: all-history <= own-history <= baseline on every corpus."""
    checked = 0
    for spec in (SMALL_PLANT, NULL_SPEC):
        velocities = build_velocities(generate_planted(spec))
        boundary = default_boundary(velocities.weeks)
        for city in velocities.cities:
            own = build_design(velocities, city, LagConfig(8, (city,)))
            alls = build_design(
                velocities, city, LagConfig(8, velocities.cities)
            )
            own_train = temporal_split(own, boundary).train
            all_train = temporal_split(alls, boundary).train
            own_fit = fit_ols(own_train.x, own_train.y)
            all_fit = fit_ols(all_train.x, all_train.y)
            own_rmse = rmse(own_train.y, predict(own_train.x, own_fit))
            all_rmse = rmse(all_train.y, predict(all_train.x, all_fit))
            baseline = float(np.sqrt(np.mean(own_train.y**2)))
            assert all_rmse <= own_rmse + 1e-10, city
            assert own_rmse <= baseline + 1e-10, city
            checked += 1
    _pass("nesting inequality", f"{checked} city fits")


def test_normalization_and_velocity_invariants():
    """Unit rows, bounded velocities, telescoping on a 30x2000x160 corpus."""
    start = time.monotonic()
    spec = PlantSpec(
        cities=tuple((f"city{i:02d}", "unlabeled") for i in range(30)),
        weeks=160,
        artists=2000,
        chart_size=500,
        noise_sigma=0.05,
        seed=16061,
    )
    series = generate_planted(spec)
    index = build_artist_index(series)
    normalized = [
        normalize_rows(m) for m in to_listeners_matrices(series)
    ]
    velocities = compute_velocities(
        series.weeks, normalized, series.cities, index
    )

    worst_norm = 0.0
    for matrix in normalized:
        norms = row_norms(matrix)
        nonempty = norms[norms > 0]
        worst_norm = max(worst_norm, float(np.abs(nonempty - 1.0).max()))
    assert worst_norm < 1e-9

    worst_entry = max(
        (float(np.abs(m.data).max()) if m.nnz else 0.0)
        for m in velocities.matrices
    )
    assert worst_entry <= 1.0 + 1e-12
    worst_row_norm = max(
        float(row_norms(m).max())
        for m in velocities.matrices
    )
    assert worst_row_norm <= 2.0 + 1e-12

    worst_telescope = 0.0
    for i in range(1, velocities.n_weeks):
        if (velocities.weeks[i] - velocities.weeks[i - 1]).days != 7:
            continue
        both = velocities.defined[i] & velocities.defined[i - 1]
        if not both.any():
            continue
        lhs = velocities.matrices[i].toarray() + velocities.matrices[i - 1].toarray()
        rhs = normalized[i + 1].toarray() - normalized[i - 1].toarray()
        worst_telescope = max(
            worst_telescope, float(np.abs((lhs - rhs)[both]).max())
        )
    assert worst_telescope < 1e-12

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _pass(
        "normalization and velocity invariants",
        f"|norm-1| {worst_norm:.1e}, telescope {worst_telescope:.1e}, "
        f"{elapsed:.1f}s",
    )


def test_planted_lag_recovery():
    """The planted (leader, lag 2) edge dominates the follower's fit."""
    start = time.monotonic()
    velocities = build_velocities(generate_planted(REFERENCE_SPEC))
    design = build_design(
        velocities, "beta", LagConfig(8, velocities.cities)
    )
    split = temporal_split(design, default_boundary(velocities.weeks))
    fitted = fit_ols(split.train.x, split.train.y)
    coef = dict(zip(design.col_meta, fitted.values))
    planted = coef[("alpha", 2)]
    top = max(coef, key=lambda k: abs(coef[k]))
    assert top == ("alpha", 2)
    assert abs(planted - 0.8) <= 0.05

    result = evaluate_city(
        velocities,
        "beta",
        LagConfig(8, velocities.cities),
    )
    assert result.self_history_pct - result.all_history_pct >= 5.0

    null_velocities = build_velocities(generate_planted(NULL_SPEC))
    null_diffs = []
    for city in null_velocities.cities:
        null_result = evaluate_city(
            null_velocities,
            city,
            LagConfig(8, null_velocities.cities),
        )
        null_diffs.append(abs(null_result.difference))
    assert max(null_diffs) <= 2.0

    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _pass(
        "planted-lag recovery",
        f"coef {planted:.3f}, gap {result.difference:.1f} pts, "
        f"max null drift {max(null_diffs):.2f} pts, {elapsed:.1f}s",
    )


def test_baseline_calibration():
    """Pure-noise corpus scores 100 +- 10 with no split leakage."""
    noise_spec = PlantSpec(
        cities=REFERENCE_SPEC.cities,
        influence=(),
        weeks=260,
        artists=240,
        noise_sigma=0.032,
        walk_sigma=0.04,
        city_size=2000.0,
        seed=555,
    )
    velocities = build_velocities(generate_planted(noise_spec))
    for city in velocities.cities:
        result = evaluate_city(
            velocities,
            city,
            LagConfig(8, velocities.cities),
        )
        assert result.sample_counts[1] >= 2000
        assert 90.0 <= result.all_history_pct <= 110.0, city
    _pass(
        "baseline calibration",
        f"{len(velocities.cities)} cities, "
        f"{result.sample_counts[1]} test samples each",
    )


def test_report_format_golden():
    """Transcribed reference rows reproduce layout, order, and group averages."""
    report = build_report(
        transcribed_results(), na_labels(), "N. America", "all"
    )
    assert [r.city for r in report.rows] == [row[0] for row in NORTH_AMERICA_ALL]
    assert format_pct(report.avg_all[0]) == "79.9"
    assert format_pct(report.avg_all[1]) == "76.0"
    assert format_pct(report.avg_leaders) == "3.7"
    assert format_pct(report.avg_followers) == "4.4"
    lines = report_table_text(report).splitlines()
    assert lines[0] == "City,Self history,All history,Difference"
    for line, (city, self_pct, all_pct, diff) in zip(lines[1:], NORTH_AMERICA_ALL):
        assert line == f"{city},{self_pct},{all_pct},{diff}"
    _pass("report format golden", "21 rows, 3 average lines")


def test_determinism(tmp_path):
    """cmd_evaluate emits byte-identical reports across three runs."""
    corpus = tmp_path / "corpus.csv"
    write_chart_csv(generate_planted(SMALL_PLANT), corpus)
    outputs = []
    for name in ("a", "b", "c"):
        out_dir = tmp_path / name
        code = main(
            [
                "evaluate",
                "--corpus-path",
                str(corpus),
                "--output-dir",
                str(out_dir),
            ]
        )
        assert code == 0
        outputs.append(
            (out_dir / "report.csv").read_bytes()
            + (out_dir / "report.json").read_bytes()
        )
    assert outputs[0] == outputs[1] == outputs[2]
    _pass("determinism", "3 runs byte-identical")


def test_dimensional_fidelity():
    """20 cities and 8 lags give 160 all-history and 8 own-history columns."""
    spec = PlantSpec(
        cities=tuple((f"c{i:02d}", "unlabeled") for i in range(20)),
        weeks=30,
        artists=12,
        noise_sigma=0.05,
        seed=2020,
    )
    velocities = build_velocities(generate_planted(spec))
    alls = build_design(
        velocities, "c00", LagConfig(8, velocities.cities)
    )
    own = build_design(velocities, "c00", LagConfig(8, ("c00",)))
    assert alls.x.shape[1] == 160 and len(alls.col_meta) == 160
    assert own.x.shape[1] == 8 and len(own.col_meta) == 8
    _pass("dimensional fidelity", "160 all-history / 8 own-history columns")
