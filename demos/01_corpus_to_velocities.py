"""From a chart corpus to velocities, step by step.

Generates a small synthetic corpus, writes it to CSV, parses it back, and
walks through the preprocessing stages: listeners matrices, unit-norm rows,
and week-over-week velocities.

    python3 demos/01_corpus_to_velocities.py
"""

import tempfile
from pathlib import Path

import numpy as np

from chartflow import (
    PlantSpec,
    fingerprint,
    generate_planted,
    parse_chart_csv,
    write_chart_csv,
)
from chartflow.preprocess import (
    compute_velocities,
    normalize_rows,
    to_listeners_matrices,
    week_gaps,
)

# ---------------------------------------------------------------------------
# A corpus: four cities, 30 weeks, 25 artists, no planted structure.
# ---------------------------------------------------------------------------
spec = PlantSpec(
    cities=(
        ("austin", "unlabeled"),
        ("boston", "unlabeled"),
        ("chicago", "unlabeled"),
        ("denver", "unlabeled"),
    ),
    weeks=30,
    artists=25,
    noise_sigma=0.05,
    seed=11,
)
series = generate_planted(spec)
print(f"generated {len(series)} records, digest {fingerprint(series)[:16]}…")

# The CSV round trip is lossless; the digest is order-independent.
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "corpus.csv"
    write_chart_csv(series, path)
    again = parse_chart_csv(path)
    assert again == series
    print(f"round-tripped through {path.name}: corpora equal")

print(f"weeks: {len(series.weeks)}, gaps: {len(week_gaps(series.weeks))}")

# ---------------------------------------------------------------------------
# Listeners matrices: one sparse (CSR) city x artist matrix per week.
# ---------------------------------------------------------------------------
listeners = to_listeners_matrices(series)
first = listeners[0]
print(f"\nweek {series.weeks[0]}: shape {first.shape}, {first.nnz} non-zeros")

# ---------------------------------------------------------------------------
# Unit-norm rows: cities compare by proportions, not audience size.
# ---------------------------------------------------------------------------
normalized = [normalize_rows(m) for m in listeners]
norms = np.linalg.norm(normalized[0].toarray(), axis=1)
print("row norms after normalization:", np.round(norms, 12))

# ---------------------------------------------------------------------------
# Velocities: the change of each city's position in artist space.
# ---------------------------------------------------------------------------
velocities = compute_velocities(
    series.weeks, normalized, series.cities, series.artists
)
print(f"\n{velocities.n_weeks} velocity weeks; all rows defined:",
      bool(velocities.defined.all()))
magnitudes = [
    float(np.linalg.norm(m.toarray(), axis=1).max())
    for m in velocities.matrices[:5]
]
print("largest row movement in the first five weeks:",
      [round(v, 4) for v in magnitudes])
print("every entry lies in [-1, 1] and every row norm is at most 2.")
