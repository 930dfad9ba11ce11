"""Planting a lead-lag edge and recovering it from chart data alone.

One city ("harbinger") moves first; another ("echo") copies 80% of its
moves two weeks later. The demo fits both linear models for echo and shows
that (a) the all-history model beats the own-history model by a wide margin
and (b) the fitted coefficients point straight at the planted edge.

    python3 demos/02_planted_lead_lag.py
"""

from chartflow import (
    Influence,
    LagConfig,
    PlantSpec,
    build_design,
    build_velocities,
    default_boundary,
    evaluate_city,
    fit_ols,
    generate_planted,
    temporal_split,
)

spec = PlantSpec(
    cities=(
        ("harbinger", "leader"),
        ("echo", "follower"),
        ("bystander1", "unlabeled"),
        ("bystander2", "unlabeled"),
    ),
    influence=(Influence("harbinger", "echo", 2, 0.8),),
    weeks=200,
    artists=150,
    noise_sigma=0.03,
    walk_sigma=0.04,
    city_size=1000.0,
    seed=2718,
)
velocities = build_velocities(generate_planted(spec))
print(f"cities: {velocities.cities}")

# ---------------------------------------------------------------------------
# Score both models for the follower on the held-out final third.
# ---------------------------------------------------------------------------
result = evaluate_city(
    velocities,
    "echo",
    LagConfig(8, velocities.cities),
)
print(
    f"\necho: own-history {result.self_history_pct:.1f}% of baseline, "
    f"all-history {result.all_history_pct:.1f}%, "
    f"difference {result.difference:.1f} points"
)
print(f"train/test samples: {result.sample_counts}")

# ---------------------------------------------------------------------------
# Look at the fitted coefficients: the planted edge should dominate.
# ---------------------------------------------------------------------------
design = build_design(
    velocities, "echo", LagConfig(8, velocities.cities)
)
split = temporal_split(design, default_boundary(velocities.weeks))
fitted = fit_ols(split.train.x, split.train.y)

ranked = sorted(
    zip(design.col_meta, fitted.values), key=lambda cv: -abs(cv[1])
)
print("\nlargest coefficients (city, lag):")
for (city, lag), value in ranked[:5]:
    marker = "  <- planted (0.8 at lag 2)" if (city, lag) == ("harbinger", 2) else ""
    print(f"  {city:>10} lag {lag}: {value:+.4f}{marker}")

# A leader gains far less from everyone else's history than a follower does.
leader_result = evaluate_city(
    velocities,
    "harbinger",
    LagConfig(8, velocities.cities),
)
print(
    f"\nharbinger difference: {leader_result.difference:.2f} points "
    f"vs. echo's {result.difference:.2f}"
)
