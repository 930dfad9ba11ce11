"""Building a full region report, with leader/follower group averages.

Runs the whole-region evaluation over a synthetic corpus with two planted
edges, labels the cities, and renders the report three ways: the human
table, the machine CSV, and the JSON document with run metadata.

    python3 demos/03_region_report.py
"""

import json

from chartflow import (
    Influence,
    PlantSpec,
    build_report,
    build_velocities,
    default_boundary,
    evaluate_region,
    fingerprint,
    generate_planted,
    report_csv_text,
    report_json_text,
    report_table_text,
)

spec = PlantSpec(
    cities=(
        ("pacesetter", "leader"),
        ("trendsetter", "leader"),
        ("echo", "follower"),
        ("shadow", "follower"),
        ("loner", "unlabeled"),
    ),
    influence=(
        Influence("pacesetter", "echo", 2, 0.7),
        Influence("trendsetter", "shadow", 4, 0.6),
    ),
    weeks=200,
    artists=120,
    noise_sigma=0.035,
    walk_sigma=0.04,
    seed=424242,
)
series = generate_planted(spec)
velocities = build_velocities(series)
boundary = default_boundary(velocities.weeks)

results = evaluate_region(velocities, boundary=boundary)
report = build_report(
    results, spec.labels(), region_label="synthetic demo", genre_label="all"
)

print("human table (sorted by all-history percent):\n")
print(report_table_text(report))

# Followers should benefit more from other cities' history than leaders.
print(f"avg leaders:   {report.avg_leaders:+.2f} points")
print(f"avg followers: {report.avg_followers:+.2f} points")

print("\nmachine CSV:\n")
print(report_csv_text(report))

metadata = {
    "boundary": boundary.isoformat(),
    "lag_count": 8,
    "solver": "ols",
    "corpus_fingerprint": fingerprint(series),
}
payload = json.loads(report_json_text(report, metadata))
print("JSON keys:", sorted(payload))
print("metadata:", payload["metadata"])
