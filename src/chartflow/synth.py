"""Synthetic chart corpora with planted lead-lag structure.

The generator gives the detection pipeline something real data cannot:
ground truth. Each city carries a latent log-popularity state per artist
that evolves as a mean-damped random walk; a follower city's weekly
innovation is a scaled copy of its leader's innovation from ``lag`` weeks
earlier plus independent noise of scale ``noise_sigma``. Latents map to
listener counts through ``count = max(1, round(city_size * exp(latent)))``,
which produces heavy-tailed chart shapes, and each city-week keeps only its
top ``chart_size`` artists: by count descending, and by artist index on
ties.

Followers start from a lag-shifted copy of their leader's state and share
its base popularity profile, so with ``strength = 1`` and zero noise a
follower's chart is exactly its leader's chart shifted by ``lag`` weeks.
All randomness comes from the keyed counter streams in :mod:`chartflow.rng`,
so a spec generates the identical corpus on every run.

Memory stays near the size of the output. Cities are walked depth first,
each follower right after its last leader, and each city's chart is
written into preallocated ``(weeks, cities, chart)`` arrays as soon as its
walk ends. A leader keeps what its followers read only until the last of
them has read it, and any other city walks, and turns into counts, in the
one array its innovations were drawn into. Each week's chart comes from a
partition at its threshold count, not a sort of every artist. Walk order
does not change the output: each city's random streams are keyed by its
position in the spec, and its chart goes to its own slot. The chart arrays,
already int32 codes in canonical order, become the corpus's columns without
a copy. A walk that overflows to NaN (an extreme ``walk_sigma`` or
``noise_sigma``) raises ``PlantSpecError`` naming its city.
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
        values = {}
        for key, parse in _SPEC_PARSERS.items():
            if key in raw:
                try:
                    values[key] = parse(raw[key])
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise PlantSpecError(
                        f"malformed spec key {key!r}: {exc}"
                    ) from exc
        return cls(**values)

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


def _json_type(kind: str, *types: type):
    """A parser of JSON values of ``types``, never a bool: anything else
    raises TypeError naming the value. A number parses as a float."""

    def parse(value):
        if isinstance(value, bool) or not isinstance(value, types):
            raise TypeError(f"expected a JSON {kind}, got {value!r}")
        return float(value) if float in types else value

    return parse


_string = _json_type("string", str)
_integer = _json_type("integer", int)
_number = _json_type("number", int, float)


def _entries(entries, *keys: str):
    """The entries of a ``cities`` or ``influence`` list, each a JSON
    object with no key but ``keys``: a misspelt key is an error, never
    dropped."""
    for entry in entries:
        if not isinstance(entry, dict):
            raise TypeError(f"expected a JSON object, got {entry!r}")
        unknown = sorted(set(entry) - set(keys))
        if unknown:
            raise ValueError(f"unknown keys {unknown} in {entry!r}")
        yield entry


# Each spec key's parser from JSON values, in conversion order: the first
# key that fails names the error. Values are not coerced: 60.9 weeks or a
# "7" seed is an error, not 60 or 7.
_SPEC_PARSERS = {
    "cities": lambda cities: tuple(
        (_string(c["name"]), _string(c.get("role", "unlabeled")))
        for c in _entries(cities, "name", "role")
    ),
    "influence": lambda edges: tuple(
        Influence(
            _string(e["leader"]),
            _string(e["follower"]),
            _integer(e["lag"]),
            _number(e["strength"]),
        )
        for e in _entries(edges, "leader", "follower", "lag", "strength")
    ),
    "weeks": _integer,
    "artists": _integer,
    "chart_size": _integer,
    "noise_sigma": _number,
    "walk_sigma": _number,
    "city_size": _number,
    "start_week": date.fromisoformat,
    "seed": _integer,
}


def _toposort(names: list[str], influence: tuple[Influence, ...]) -> list[str]:
    """Order cities so each comes after its leaders; reject cyclic graphs.

    Ready cities are taken from a stack, smallest name first, so the order
    is depth first: a follower comes right after its last leader.
    """
    outgoing: dict[str, list[Influence]] = {n: [] for n in names}
    incoming_count = {n: 0 for n in names}
    for edge in influence:
        outgoing[edge.leader].append(edge)
        incoming_count[edge.follower] += 1
    ready = sorted((n for n in names if incoming_count[n] == 0), reverse=True)
    order: list[str] = []
    while ready:
        city = ready.pop()
        order.append(city)
        for edge in sorted(outgoing[city], key=lambda e: e.follower,
                           reverse=True):
            incoming_count[edge.follower] -= 1
            if incoming_count[edge.follower] == 0:
                ready.append(edge.follower)
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
    cities = tuple(sorted(spec.city_names()))
    artist_idx, counts = _charts(spec, cities)
    shape = artist_idx.shape
    digits = max(4, len(str(spec.artists - 1)))
    weeks = tuple(
        spec.start_week + timedelta(days=7 * t) for t in range(spec.weeks)
    )
    # One cell per (week, city, chart slot); every column is already in the
    # dtype and order ``from_columns`` keeps.
    return ChartSeries.from_columns(
        weeks,
        cities,
        tuple(f"a{idx:0{digits}d}" for idx in range(spec.artists)),
        np.broadcast_to(
            np.arange(shape[0], dtype=np.int32)[:, None, None], shape
        ).ravel(),
        np.broadcast_to(
            np.arange(shape[1], dtype=np.int32)[None, :, None], shape
        ).ravel(),
        artist_idx.ravel(),
        counts.ravel(),
        region_label="synthetic",
    )


# Extreme sigmas overflow a walk to +-inf, which clips to a valid count;
# inf - inf leaves NaN, which ``_charts`` reports by city.
@np.errstate(over="ignore", invalid="ignore")
def _charts(spec: PlantSpec, cities: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Every city's weekly charts as ``(weeks, cities, chart)`` arrays.

    Returns the int32 artist codes, ascending within each chart, and their
    int64 counts; ``cities`` (sorted) gives the city axis. Cities are walked
    in ``_toposort`` order, and each city's chart is written as soon as its
    walk ends. A leader keeps what its followers read (its base profile, its
    innovations and the state row each follower starts from) until its last
    follower has read them. Every other walk is dropped once charted.
    """
    names = list(spec.city_names())
    order = _toposort(names, spec.influence)
    need = _lookbacks(spec, order)
    city_pos = {name: i for i, name in enumerate(names)}
    slot = {name: i for i, name in enumerate(cities)}
    incoming: dict[str, list[Influence]] = {n: [] for n in names}
    outgoing: dict[str, list[Influence]] = {n: [] for n in names}
    for edge in spec.influence:
        incoming[edge.follower].append(edge)
        outgoing[edge.leader].append(edge)
    for follower in incoming:
        incoming[follower].sort(key=lambda e: (e.leader, e.lag))
    # Per leader, the edges whose follower has not yet read its mu and inc.
    unread = {name: len(edges) for name, edges in outgoing.items()}

    n_artists = spec.artists
    width = min(n_artists, spec.chart_size)
    artist_idx = np.empty((spec.weeks, len(cities), width), dtype=np.int32)
    counts = np.empty((spec.weeks, len(cities), width), dtype=np.int64)
    stationary = spec.walk_sigma / np.sqrt(1.0 - (1.0 - DAMPING) ** 2)

    # A city's walk x[t] is its latent offset at week spec.start_week +
    # 7(t - need[c]) days, for t in [0, need[c] + spec.weeks); steps[t] is
    # its realized innovation. A leader's mu and inc feed its followers, and
    # start[edge] is the leader's x row that the edge's follower starts from.
    mu: dict[str, np.ndarray] = {}
    inc: dict[str, np.ndarray] = {}
    start: dict[Influence, np.ndarray] = {}
    for city in order:
        ci = city_pos[city]
        edges = incoming[city]
        span = need[city] + spec.weeks
        own_sigma = spec.noise_sigma if edges else spec.walk_sigma
        steps = rng.normals(
            rng.derive_key(spec.seed, _TAG_ETA, ci), span * n_artists
        ).reshape(span, n_artists)
        steps *= own_sigma
        # Each leader's innovations, aligned so row t feeds steps[t].
        feeds = []
        if edges:
            total = sum(e.strength for e in edges)
            base = sum(e.strength * mu[e.leader] for e in edges) / total
            first = steps[0].copy()
            for e in edges:
                first += e.strength * start[e]
                src0 = need[e.leader] - need[city] - e.lag
                feeds.append((e.strength, inc[e.leader][src0 : src0 + span]))
        else:
            base = BASE_SPREAD * rng.normals(
                rng.derive_key(spec.seed, _TAG_MU, ci), n_artists
            )
            first = stationary * rng.normals(
                rng.derive_key(spec.seed, _TAG_INIT, ci), n_artists
            )
        steps[0] = 0.0
        # Only a leader keeps its innovations; any other city walks in place.
        x = np.empty_like(steps) if outgoing[city] else steps
        x[0] = first
        _walk(x, steps, feeds)
        del feeds, first
        for e in edges:
            start.pop(e, None)
            unread[e.leader] -= 1
            if not unread[e.leader]:
                del mu[e.leader], inc[e.leader]
        if outgoing[city]:
            mu[city], inc[city] = base, steps
            for e in outgoing[city]:
                start[e] = x[need[city] - need[e.follower] - e.lag].copy()
        del steps
        latent = x[need[city] :]
        latent += base
        if np.isnan(latent).any():
            raise PlantSpecError(
                f"city {city!r}: latent walk overflows to NaN; "
                "lower walk_sigma or noise_sigma"
            )
        # Counts, in place: clipped so extreme specs cannot overflow the
        # integers, and rounded, so the doubles are the integer counts. Only
        # the charted ones are cast to int64, as they are stored.
        np.exp(latent, out=latent)
        latent *= spec.city_size
        np.clip(latent, 1.0, 1e15, out=latent)
        np.rint(latent, out=latent)
        top = _chart_top(latent, width)
        artist_idx[:, slot[city]] = top
        counts[:, slot[city]] = np.take_along_axis(latent, top, axis=1)
        del x, latent, top
    return artist_idx, counts


def _walk(x: np.ndarray, steps: np.ndarray, feeds: list) -> None:
    """Fill ``x[1:]`` by ``x[t] = (1 - DAMPING) x[t-1] + steps[t]``, adding
    each leader's row ``t`` into ``steps[t]`` first. ``x`` may be ``steps``.
    """
    keep = 1.0 - DAMPING
    for t in range(1, len(x)):
        for strength, feed in feeds:
            steps[t] += strength * feed[t]
        x[t] = keep * x[t - 1] + steps[t]


def _chart_top(counts: np.ndarray, width: int) -> np.ndarray:
    """Each row's top ``width`` columns, by count descending and column
    index on ties, as ascending column indices.

    ``np.partition`` finds each row's threshold, the ``width``-th largest
    count. Every column above it is kept, and the columns equal to it fill
    the rest of the chart in ascending order, so no row is sorted whole.
    """
    n = counts.shape[1]
    threshold = np.partition(counts, n - width, axis=1)[:, n - width].copy()
    chart = counts > threshold[:, None]
    short = width - np.count_nonzero(chart, axis=1)
    ties = counts == threshold[:, None]
    chart |= ties & (np.cumsum(ties, axis=1, dtype=np.int32) <= short[:, None])
    top = np.flatnonzero(chart).reshape(-1, width)
    top %= n
    return top


def sidecar_json_text(spec: PlantSpec, digest: str) -> str:
    """Sidecar document recording the generating spec and corpus digest."""
    payload = {"spec": spec.to_dict(), "fingerprint": digest}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
