"""Synthetic chart corpora with planted lead-lag structure.

The generator gives the detection pipeline something real data cannot:
ground truth. Each city carries a latent log-popularity state per artist
that evolves as a mean-damped random walk; a follower city's weekly
innovation is a scaled copy of its leader's innovation from ``lag`` weeks
earlier plus independent noise of scale ``noise_sigma``. Latents map to
listener counts through ``count = max(1, round(city_size * exp(latent)))``,
which produces heavy-tailed chart shapes, and each city-week keeps only its
top ``chart_size`` artists.

Followers start from a lag-shifted copy of their leader's state and share
its base popularity profile, so with ``strength = 1`` and zero noise a
follower's chart is exactly its leader's chart shifted by ``lag`` weeks.
All randomness comes from the keyed counter streams in :mod:`chartflow.rng`,
so a spec generates the identical corpus on every run.
"""

from __future__ import annotations

import io
import json
import math
from dataclasses import MISSING, dataclass, field, fields
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from . import rng
from .chart_store import ChartSeries, read_text
from .errors import PlantSpecError

ROLES = ("leader", "follower", "unlabeled")

# Scale of every city's own weekly innovation.
DEFAULT_WALK_SIGMA = 0.05
# Mean damping per week; keeps latent states anchored over long horizons.
DAMPING = 0.02
# Spread of per-artist base log-popularity.
BASE_SPREAD = 1.0

_TAG_MU = 1
_TAG_ETA = 2
_TAG_INIT = 3

# Designs need lag weeks plus the default 8-lag window plus slack.
_DESIGN_LAG_BUDGET = 8
_WEEK_SLACK = 10


@dataclass(frozen=True)
class Influence:
    """One planted edge: the follower echoes the leader ``lag`` weeks later."""

    leader: str
    follower: str
    lag: int
    strength: float


@dataclass(frozen=True)
class PlantSpec:
    """Full description of a synthetic corpus; identical spec, identical bytes."""

    cities: tuple[tuple[str, str], ...]  # (name, role)
    weeks: int
    artists: int
    noise_sigma: float
    seed: int
    influence: tuple[Influence, ...] = ()
    chart_size: int = 500
    walk_sigma: float = DEFAULT_WALK_SIGMA
    city_size: float = 250.0
    start_week: date = field(default=date(2007, 1, 7))

    def __post_init__(self):
        names = [name for name, _ in self.cities]
        if not names:
            raise PlantSpecError("at least one city is required")
        if len(set(names)) != len(names):
            raise PlantSpecError("city names must be unique")
        for name, role in self.cities:
            if role not in ROLES:
                raise PlantSpecError(f"city {name!r} has unknown role {role!r}")
        known = set(names)
        for edge in self.influence:
            if edge.leader == edge.follower:
                raise PlantSpecError(
                    f"influence edge {edge.leader!r} -> itself is not allowed"
                )
            if edge.leader not in known or edge.follower not in known:
                raise PlantSpecError(
                    f"influence edge {edge.leader!r} -> {edge.follower!r} "
                    "references an unknown city"
                )
            if edge.lag < 1:
                raise PlantSpecError(f"influence lag must be >= 1, got {edge.lag}")
            if not 0 < edge.strength <= 1:
                raise PlantSpecError(
                    f"influence strength must be in (0, 1], got {edge.strength}"
                )
        max_lag = max((e.lag for e in self.influence), default=0)
        min_weeks = max_lag + _DESIGN_LAG_BUDGET + _WEEK_SLACK
        if self.weeks <= min_weeks:
            raise PlantSpecError(
                f"weeks must exceed {min_weeks} for this influence set, "
                f"got {self.weeks}"
            )
        try:
            self.start_week + timedelta(days=7 * (self.weeks - 1))
        except OverflowError:
            raise PlantSpecError(
                f"{self.weeks} weeks from {self.start_week} run past {date.max}"
            ) from None
        if self.artists < 1:
            raise PlantSpecError(f"artists must be >= 1, got {self.artists}")
        if self.chart_size < 1:
            raise PlantSpecError(f"chart_size must be >= 1, got {self.chart_size}")
        if self.noise_sigma < 0:
            raise PlantSpecError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        if self.walk_sigma <= 0:
            raise PlantSpecError(f"walk_sigma must be > 0, got {self.walk_sigma}")
        if self.city_size <= 0:
            raise PlantSpecError(f"city_size must be > 0, got {self.city_size}")
        for name in ("noise_sigma", "walk_sigma", "city_size"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise PlantSpecError(f"{name} must be finite, got {value}")
        _toposort(names, self.influence)  # raises on cycles

    def city_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.cities)

    def labels(self) -> dict[str, str]:
        """City -> role map, restricted to leader/follower labels."""
        return {
            name: role for name, role in self.cities if role != "unlabeled"
        }

    def to_dict(self) -> dict:
        return {
            "cities": [
                {"name": name, "role": role} for name, role in self.cities
            ],
            "influence": [
                {
                    "leader": e.leader,
                    "follower": e.follower,
                    "lag": e.lag,
                    "strength": e.strength,
                }
                for e in self.influence
            ],
            "weeks": self.weeks,
            "artists": self.artists,
            "chart_size": self.chart_size,
            "noise_sigma": self.noise_sigma,
            "walk_sigma": self.walk_sigma,
            "city_size": self.city_size,
            "start_week": self.start_week.isoformat(),
            "seed": self.seed,
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "PlantSpec":
        """The spec of a JSON object; absent keys take the field defaults."""
        unknown = set(raw) - set(_SPEC_PARSERS)
        if unknown:
            raise PlantSpecError(f"unknown spec keys: {sorted(unknown)}")
        required = {f.name for f in fields(cls) if f.default is MISSING}
        missing = required - set(raw)
        if missing:
            raise PlantSpecError(f"missing spec keys: {sorted(missing)}")
        try:
            return cls(**{
                key: parse(raw[key])
                for key, parse in _SPEC_PARSERS.items()
                if key in raw
            })
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise PlantSpecError(f"malformed spec: {exc}") from exc

    @classmethod
    def from_json_file(cls, path: str | Path) -> "PlantSpec":
        try:
            # Newlines translate as in a text-mode read: a JSON error's
            # line, column and offset count them.
            raw = json.loads(io.StringIO(read_text(path), newline=None).read())
        except json.JSONDecodeError as exc:
            raise PlantSpecError(f"spec file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise PlantSpecError("spec file must hold a JSON object")
        return cls.from_dict(raw)


# Each spec key's parser from JSON values, in conversion order: the first
# key that fails names the error.
_SPEC_PARSERS = {
    "cities": lambda cities: tuple(
        (c["name"], c.get("role", "unlabeled")) for c in cities
    ),
    "influence": lambda edges: tuple(
        Influence(e["leader"], e["follower"], int(e["lag"]), float(e["strength"]))
        for e in edges
    ),
    "weeks": int,
    "artists": int,
    "chart_size": int,
    "noise_sigma": float,
    "walk_sigma": float,
    "city_size": float,
    "start_week": date.fromisoformat,
    "seed": int,
}


def _toposort(names: list[str], influence: tuple[Influence, ...]) -> list[str]:
    """Order cities leaders-first; reject cyclic influence graphs."""
    outgoing: dict[str, list[Influence]] = {n: [] for n in names}
    incoming_count = {n: 0 for n in names}
    for edge in influence:
        outgoing[edge.leader].append(edge)
        incoming_count[edge.follower] += 1
    ready = sorted(n for n in names if incoming_count[n] == 0)
    order: list[str] = []
    while ready:
        city = ready.pop(0)
        order.append(city)
        for edge in sorted(outgoing[city], key=lambda e: e.follower):
            incoming_count[edge.follower] -= 1
            if incoming_count[edge.follower] == 0:
                ready.append(edge.follower)
        ready.sort()
    if len(order) != len(names):
        raise PlantSpecError("influence graph contains a cycle")
    return order


def _lookbacks(spec: PlantSpec, order: list[str]) -> dict[str, int]:
    """Extra pre-history weeks each city needs so followers can copy state."""
    need = {name: 0 for name in order}
    by_leader: dict[str, list[Influence]] = {}
    for edge in spec.influence:
        by_leader.setdefault(edge.leader, []).append(edge)
    for city in reversed(order):
        for edge in by_leader.get(city, []):
            need[city] = max(need[city], edge.lag + need[edge.follower])
    return need


def generate_planted(spec: PlantSpec) -> ChartSeries:
    """Generate the chart corpus described by ``spec``, deterministically."""
    names = list(spec.city_names())
    order = _toposort(names, spec.influence)
    need = _lookbacks(spec, order)
    city_pos = {name: i for i, name in enumerate(names)}
    incoming: dict[str, list[Influence]] = {n: [] for n in names}
    for edge in spec.influence:
        incoming[edge.follower].append(edge)
    for follower in incoming:
        incoming[follower].sort(key=lambda e: (e.leader, e.lag))

    n_artists = spec.artists
    stationary = spec.walk_sigma / np.sqrt(1.0 - (1.0 - DAMPING) ** 2)
    keep = 1.0 - DAMPING

    mu: dict[str, np.ndarray] = {}
    # state[c][t] is the latent offset at week spec.start_week + 7t days,
    # for t in [-need[c], spec.weeks); inc[c] records realized innovations.
    state: dict[str, np.ndarray] = {}
    inc: dict[str, np.ndarray] = {}
    offset: dict[str, int] = {}
    for city in order:
        ci = city_pos[city]
        edges = incoming[city]
        span = need[city] + spec.weeks
        offset[city] = need[city]
        own_sigma = spec.noise_sigma if edges else spec.walk_sigma
        own = own_sigma * rng.normals(
            rng.derive_key(spec.seed, _TAG_ETA, ci), span * n_artists
        ).reshape(span, n_artists)
        x = np.empty((span, n_artists))
        if edges:
            total = sum(e.strength for e in edges)
            mu[city] = sum(e.strength * mu[e.leader] for e in edges) / total
            x[0] = own[0]
            for e in edges:
                src = offset[e.leader] - need[city] - e.lag
                x[0] += e.strength * state[e.leader][src]
        else:
            mu[city] = BASE_SPREAD * rng.normals(
                rng.derive_key(spec.seed, _TAG_MU, ci), n_artists
            )
            x[0] = stationary * rng.normals(
                rng.derive_key(spec.seed, _TAG_INIT, ci), n_artists
            )
        steps = own.copy()
        steps[0] = 0.0
        for e in edges:
            src0 = offset[e.leader] - need[city] - e.lag
            steps[1:] += e.strength * inc[e.leader][src0 + 1 : src0 + span]
        for t in range(1, span):
            x[t] = keep * x[t - 1] + steps[t]
        state[city] = x
        inc[city] = steps

    width = max(4, len(str(n_artists - 1)))
    artist_names = tuple(f"a{idx:0{width}d}" for idx in range(n_artists))
    sorted_names = sorted(names)
    chart_idx: list[np.ndarray] = []
    chart_counts: list[np.ndarray] = []
    for city in sorted_names:
        latent = mu[city] + state[city][offset[city] :]
        # Clipped so extreme specs cannot overflow the integer counts.
        counts = np.rint(
            np.clip(spec.city_size * np.exp(latent), 1.0, 1e15)
        ).astype(np.int64)
        if n_artists > spec.chart_size:
            # Top of the chart: count descending, artist index on ties.
            top = np.argsort(-counts, axis=1, kind="stable")
            sel = np.sort(top[:, : spec.chart_size], axis=1)
        else:
            sel = np.broadcast_to(np.arange(n_artists), counts.shape)
        chart_idx.append(sel)
        chart_counts.append(np.take_along_axis(counts, sel, axis=1))

    # One cell per (week, city, chart slot).
    artist_idx = np.stack(chart_idx, axis=1)
    shape = artist_idx.shape
    weeks = tuple(
        spec.start_week + timedelta(days=7 * t) for t in range(spec.weeks)
    )
    return ChartSeries.from_columns(
        weeks,
        tuple(sorted_names),
        artist_names,
        np.broadcast_to(np.arange(shape[0])[:, None, None], shape).ravel(),
        np.broadcast_to(np.arange(shape[1])[None, :, None], shape).ravel(),
        artist_idx.ravel(),
        np.stack(chart_counts, axis=1).ravel(),
        region_label="synthetic",
    )


def sidecar_json_text(spec: PlantSpec, digest: str) -> str:
    """Sidecar document recording the generating spec and corpus digest."""
    payload = {"spec": spec.to_dict(), "fingerprint": digest}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
