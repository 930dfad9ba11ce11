"""The benchmark's workloads: seeded synthetic specs plus how each is evaluated.

Every workload is a ``chartflow synth`` spec generated from the run's seed,
the ``city,role`` labels written from the spec's roles, and the extra
``chartflow evaluate`` flags. The program only ever sees these files.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

# Every planted edge copies the leader's moves at this strength.
STRENGTH = 0.8
# Innovation scale of followers' own noise; large enough that a follower is
# not a copy of its leader, small enough that the planted edge shows.
NOISE_SIGMA = 0.04


@dataclass(frozen=True)
class Workload:
    name: str
    # "pair": c00 leads c01, every other city is independent.
    # "region": c00-c03 lead c04-c07, c08 on are independent.
    layout: str
    n_cities: int
    artists: int
    weeks: int
    chart_size: int
    evaluate_flags: tuple[str, ...]

    def spec(self, seed: int) -> dict:
        """The PlantSpec document for this workload and seed."""
        names = [f"c{i:02d}" for i in range(self.n_cities)]
        rnd = random.Random(seed)
        if self.layout == "pair":
            roles = {"c00": "leader", "c01": "follower"}
            edges = [("c00", "c01", rnd.randint(1, 4))]
        else:
            # The followers are matched to the leaders by a seeded
            # permutation, with lags 1-4.
            leaders, followers = names[0:4], names[4:8]
            rnd.shuffle(followers)
            roles = {**dict.fromkeys(leaders, "leader"),
                     **dict.fromkeys(followers, "follower")}
            edges = [(lead, fol, lag + 1)
                     for lag, (lead, fol) in enumerate(zip(leaders, followers))]
        return {
            "cities": [{"name": n, "role": roles.get(n, "unlabeled")}
                       for n in names],
            "influence": [{"leader": a, "follower": b, "lag": lag,
                           "strength": STRENGTH} for a, b, lag in edges],
            "weeks": self.weeks,
            "artists": self.artists,
            "chart_size": self.chart_size,
            "noise_sigma": NOISE_SIGMA,
            "seed": seed,
        }

    def included(self, spec: dict) -> list[str]:
        """The cities ``chartflow evaluate`` is asked to report on."""
        if "--cities-included" in self.evaluate_flags:
            i = self.evaluate_flags.index("--cities-included")
            return self.evaluate_flags[i + 1].split(",")
        return [c["name"] for c in spec["cities"]]

    def solver(self) -> str:
        return "nnls" if "nnls" in self.evaluate_flags else "ols"


# Sizes leave room for several evaluations in one run while every check
# holds on every seed tried; README.md gives the measurements behind them.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "pair-in-30", "pair",
            n_cities=30, artists=600, weeks=40, chart_size=150,
            evaluate_flags=("--cities-included", "c00,c01"),
        ),
        Workload(
            "region-nnls", "region",
            n_cities=12, artists=600, weeks=120, chart_size=120,
            evaluate_flags=("--solver", "nnls"),
        ),
    )
}


def write_inputs(workload: Workload, seed: int, directory: Path) -> dict:
    """Write ``spec.json`` and ``labels.csv``; return the spec."""
    spec = workload.spec(seed)
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "spec.json").write_text(json.dumps(spec, indent=1) + "\n")
    lines = ["city,role"] + [
        f"{c['name']},{c['role']}" for c in spec["cities"]
        if c["role"] != "unlabeled"
    ]
    (directory / "labels.csv").write_text("\n".join(lines) + "\n")
    return spec
