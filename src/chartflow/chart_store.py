"""Weekly chart corpus: CSV ingestion, stable indexing, genre filtering.

A corpus is a set of (week, city, artist, listeners) observations taken from
weekly top-N charts. Week dates must share one weekday anchor so that
week-over-week arithmetic is well defined; gaps in the weekly grid are
allowed and handled downstream.

The corpus is stored as integer-coded columns: one code per row into each of
the sorted label tuples ``weeks``, ``cities`` and ``artists``, plus the
listener counts. Every way of building a corpus (parsing, records, tag
filtering, the synthetic generator) goes through the one validating
constructor :meth:`ChartSeries.from_columns`.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import (
    ChartValueError,
    DuplicateKeyError,
    IndexingError,
    ParseError,
)

CHART_HEADER = ("week_start", "city", "artist", "listeners")
# Largest listener count accepted: every integer up to 2**53 is exact as a
# float64, and sums of squares of such counts stay finite.
MAX_LISTENERS = 2**53
TAG_HEADER = ("artist", "tag")
# A listener count is an optional minus sign and ASCII digits, nothing else.
_COUNT = re.compile(r"-?[0-9]+")


@dataclass(frozen=True, slots=True)
class ChartRecord:
    """One chart observation: listener count for an artist in a city-week."""

    week_start: date
    city: str
    artist: str
    listeners: int


@dataclass(frozen=True, eq=False)
class ChartSeries:
    """Immutable, canonically ordered chart corpus held as coded columns.

    Row ``i`` is the observation ``(weeks[week_idx[i]], cities[city_idx[i]],
    artists[artist_idx[i]], listeners[i])``. Rows are sorted by (week, city,
    artist); the label tuples are sorted and hold only labels some row uses.
    The code columns are int32 and ``listeners`` is int64. Build corpora with
    :meth:`from_columns` or :meth:`from_records`, which validate.
    """

    weeks: tuple[date, ...]
    cities: tuple[str, ...]
    artists: tuple[str, ...]
    week_idx: np.ndarray = field(repr=False)
    city_idx: np.ndarray = field(repr=False)
    artist_idx: np.ndarray = field(repr=False)
    listeners: np.ndarray = field(repr=False)
    region_label: str = ""

    @classmethod
    def from_columns(
        cls,
        weeks: Sequence[date],
        cities: Sequence[str],
        artists: Sequence[str],
        week_idx,
        city_idx,
        artist_idx,
        listeners,
        region_label: str = "",
        *,
        lines=None,
        allow_zero: bool = True,
    ) -> "ChartSeries":
        """Validate coded rows in any order and store them canonically.

        The label sequences must be distinct; the codes index into them.
        ``lines`` gives each row's line number for error messages. Zero
        counts are dropped after validation (they still count as keys for
        the duplicate check) unless ``allow_zero`` is false, which rejects
        them. See :func:`_validate` for the checks.
        """
        for labels in (weeks, cities, artists):
            if len(set(labels)) != len(labels):
                raise ValueError("column labels must be distinct")
        counts = _counts(listeners)
        weeks, week_rank = _sort_labels(weeks)
        cities, city_rank = _sort_labels(cities)
        artists, artist_rank = _sort_labels(artists)
        w = week_rank[np.asarray(week_idx, dtype=np.intp)]
        c = city_rank[np.asarray(city_idx, dtype=np.intp)]
        a = artist_rank[np.asarray(artist_idx, dtype=np.intp)]
        if not len(w) == len(c) == len(a) == len(counts):
            raise ValueError("columns must have equal lengths")
        order = np.lexsort((a, c, w))
        _validate(weeks, cities, artists, w, c, a, counts, order, lines,
                  allow_zero)
        counts = counts.astype(np.int64)
        keep = order[counts[order] != 0]
        weeks, w = _drop_unused(weeks, w[keep])
        cities, c = _drop_unused(cities, c[keep])
        artists, a = _drop_unused(artists, a[keep])
        return cls(weeks, cities, artists, w, c, a, counts[keep], region_label)

    @classmethod
    def from_records(
        cls, records: Iterable[ChartRecord], region_label: str = ""
    ) -> "ChartSeries":
        """Build a corpus from records; every count must be positive."""
        weeks: dict[date, int] = {}
        cities: dict[str, int] = {}
        artists: dict[str, int] = {}
        columns: tuple[list, list, list, list] = ([], [], [], [])
        for rec in records:
            columns[0].append(weeks.setdefault(rec.week_start, len(weeks)))
            columns[1].append(cities.setdefault(rec.city, len(cities)))
            columns[2].append(artists.setdefault(rec.artist, len(artists)))
            columns[3].append(rec.listeners)
        return cls.from_columns(
            tuple(weeks), tuple(cities), tuple(artists), *columns,
            region_label, allow_zero=False,
        )

    @cached_property
    def records(self) -> tuple[ChartRecord, ...]:
        """The rows as records, in canonical order; built on first use."""
        weeks, cities, artists = self.weeks, self.cities, self.artists
        return tuple(
            ChartRecord(weeks[w], cities[c], artists[a], n)
            for w, c, a, n in zip(
                self.week_idx.tolist(),
                self.city_idx.tolist(),
                self.artist_idx.tolist(),
                self.listeners.tolist(),
            )
        )

    def week_slices(self) -> Iterator[tuple[date, slice]]:
        """Each week with the slice of rows holding it (rows are week-sorted)."""
        bounds = np.searchsorted(
            self.week_idx, np.arange(len(self.weeks) + 1)
        ).tolist()
        for k, week in enumerate(self.weeks):
            yield week, slice(bounds[k], bounds[k + 1])

    def __len__(self) -> int:
        return len(self.listeners)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChartSeries):
            return NotImplemented
        return (
            (self.region_label, self.weeks, self.cities, self.artists)
            == (other.region_label, other.weeks, other.cities, other.artists)
            and np.array_equal(self.week_idx, other.week_idx)
            and np.array_equal(self.city_idx, other.city_idx)
            and np.array_equal(self.artist_idx, other.artist_idx)
            and np.array_equal(self.listeners, other.listeners)
        )


def _counts(listeners) -> np.ndarray:
    """Listener counts as int64, or as Python ints when one does not fit."""
    try:
        return np.asarray(listeners, dtype=np.int64)
    except OverflowError:
        return np.array(listeners, dtype=object)


def _sort_labels(labels: Sequence) -> tuple[tuple, np.ndarray]:
    """Sorted labels and, per original position, the label's sorted rank."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rank = np.empty(len(labels), dtype=np.int32)
    rank[order] = np.arange(len(labels), dtype=np.int32)
    return tuple(labels[i] for i in order), rank


def _drop_unused(labels: tuple, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Drop labels no code refers to, keeping order, and renumber the codes."""
    used = np.bincount(codes, minlength=len(labels)) > 0
    if used.all():
        return labels, codes
    renumber = (np.cumsum(used) - 1).astype(np.int32)
    return tuple(x for x, u in zip(labels, used) if u), renumber[codes]


def _validate(weeks, cities, artists, w, c, a, counts, order, lines,
              allow_zero) -> None:
    """Raise for the first invalid row, in input order.

    A row is invalid when its count is negative (or zero, unless
    ``allow_zero``), when it exceeds ``MAX_LISTENERS``, when its week falls
    on another weekday than the first row's, or when an earlier row holds
    the same (week, city, artist) key. The first invalid row raises the
    first of those checks it fails, exactly as checking row by row would.
    ``order`` sorts the rows by key, equal keys in input order.
    """
    if len(counts) == 0:
        return
    low = counts < (0 if allow_zero else 1)
    high = counts > MAX_LISTENERS
    weekday = np.array([d.toordinal() % 7 for d in weeks])[w]
    off_anchor = weekday != weekday[0]
    repeat = np.zeros(len(counts), dtype=bool)
    ws, cs, as_ = w[order], c[order], a[order]
    repeat[order[1:]] = (
        (ws[1:] == ws[:-1]) & (cs[1:] == cs[:-1]) & (as_[1:] == as_[:-1])
    )
    bad = low | high | off_anchor | repeat
    if not bad.any():
        return
    i = int(np.argmax(bad))
    key = f"({weeks[w[i]]}, {cities[c[i]]}, {artists[a[i]]})"
    line = None if lines is None else int(lines[i])
    where = "" if line is not None else f" for {key}"
    if low[i]:
        kind = "negative" if counts[i] < 0 else "non-positive"
        raise ChartValueError(
            f"{kind} listener count {counts[i]}{where}", line=line
        )
    if high[i]:
        raise ChartValueError(
            f"listener count above {MAX_LISTENERS}{where}", line=line
        )
    if off_anchor[i]:
        raise ParseError(
            f"week {weeks[w[i]]} breaks the corpus weekday anchor", line=line
        )
    raise DuplicateKeyError(f"duplicate key {key}", line=line)


@dataclass(frozen=True)
class ArtistIndex:
    """Bijection between artist identifiers and dense column ordinals."""

    artists: tuple[str, ...]
    artist_to_column: Mapping[str, int] = field(repr=False)

    @classmethod
    def from_artists(cls, artists: Iterable[str]) -> "ArtistIndex":
        ordered = tuple(sorted(set(artists)))
        return cls(ordered, {a: i for i, a in enumerate(ordered)})

    @property
    def size(self) -> int:
        return len(self.artists)

    def column_of(self, artist: str) -> int:
        try:
            return self.artist_to_column[artist]
        except KeyError:
            raise IndexingError(f"artist {artist!r} not in index") from None


def parse_chart_csv(path: str | Path, region_label: str = "") -> ChartSeries:
    """Parse a chart CSV (header ``week_start,city,artist,listeners``).

    Zero-listener rows are dropped; negative counts, malformed rows, and
    duplicate (week, city, artist) keys raise with the offending line number,
    as do counts above ``MAX_LISTENERS`` and bytes that are not UTF-8.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            return _parse_chart_rows(csv.reader(handle), region_label)
        except UnicodeDecodeError:
            raise _decode_error(path) from None


def _decode_error(path: str | Path) -> ParseError:
    """Name the line of the first byte sequence in ``path`` that is not UTF-8.

    The text reader decodes in chunks and reports an offset into a chunk,
    so the file is read again as bytes to find the line.
    """
    raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        return ParseError(
            f"byte 0x{raw[exc.start]:02x} is not UTF-8",
            line=raw.count(b"\n", 0, exc.start) + 1,
        )
    return ParseError("input is not UTF-8")


def parse_chart_csv_text(text: str, region_label: str = "") -> ChartSeries:
    """Parse chart CSV content from a string (same contract as the file API)."""
    return _parse_chart_rows(csv.reader(io.StringIO(text)), region_label)


def _parse_chart_rows(reader, region_label: str = "") -> ChartSeries:
    """Code each row's fields; :meth:`ChartSeries.from_columns` validates.

    The loop checks what one field decides (field count, date syntax, count
    syntax) and stops at the first row failing it, or where the reader
    fails. The rows before it are validated first, so an earlier line's
    error still wins.
    """
    header = next(reader, None)
    if header is None or tuple(header) != CHART_HEADER:
        raise ParseError(
            f"expected header {','.join(CHART_HEADER)!r}, got {header!r}", line=1
        )
    week_of_text: dict[str, int] = {}
    weeks: dict[date, int] = {}
    cities: dict[str, int] = {}
    artists: dict[str, int] = {}
    w_col: list[int] = []
    c_col: list[int] = []
    a_col: list[int] = []
    counts: list[int] = []
    lines: list[int] = []
    error: Exception | None = None
    try:
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                raw_week, city, artist, raw_count = row
            except ValueError:
                raise ParseError(
                    f"expected 4 fields, got {len(row)}", line=lineno
                ) from None
            w = week_of_text.get(raw_week)
            if w is None:
                try:
                    day = date.fromisoformat(raw_week)
                except ValueError:
                    raise ParseError(
                        f"bad date {raw_week!r}", line=lineno
                    ) from None
                w = week_of_text[raw_week] = weeks.setdefault(day, len(weeks))
            # The str tests pass plain counts 3x faster than the regex.
            if not (raw_count.isdigit() and raw_count.isascii()
                    or _COUNT.fullmatch(raw_count)):
                raise ParseError(
                    f"bad listener count {raw_count!r}", line=lineno
                )
            w_col.append(w)
            c_col.append(cities.setdefault(city, len(cities)))
            a_col.append(artists.setdefault(artist, len(artists)))
            counts.append(int(raw_count))
            lines.append(lineno)
    except (ParseError, csv.Error, UnicodeDecodeError) as exc:
        error = exc
    series = ChartSeries.from_columns(
        tuple(weeks), tuple(cities), tuple(artists), w_col, c_col, a_col,
        counts, region_label, lines=lines,
    )
    if error is not None:
        raise error
    return series


def _csv_fields(labels: Sequence[str]) -> list[str]:
    """Each label as ``csv.writer`` renders it as one field of a row."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    fields = []
    for label in labels:
        writer.writerow((label, ""))
        fields.append(buffer.getvalue()[:-2])  # drop the ",\n" after it
        buffer.seek(0)
        buffer.truncate()
    return fields


def chart_csv_chunks(series: ChartSeries) -> Iterator[str]:
    """Canonical CSV serialization in pieces: the header, then each week.

    Labels are rendered once each with RFC 4180 quoting, then joined row by
    row from the columns.
    """
    yield ",".join(CHART_HEADER) + "\n"
    cities = _csv_fields(series.cities)
    artists = _csv_fields(series.artists)
    for week, rows in series.week_slices():
        prefix = week.isoformat() + ","
        yield "".join(
            f"{prefix}{cities[c]},{artists[a]},{n}\n"
            for c, a, n in zip(
                series.city_idx[rows].tolist(),
                series.artist_idx[rows].tolist(),
                series.listeners[rows].tolist(),
            )
        )


def chart_csv_text(series: ChartSeries) -> str:
    """Canonical CSV serialization (sorted records, RFC 4180 quoting)."""
    return "".join(chart_csv_chunks(series))


def write_chart_csv(series: ChartSeries, path: str | Path) -> str:
    """Write the canonical CSV; returns the hex SHA-256 of the bytes written.

    The digest equals ``synth.fingerprint(series)``: both hash the same
    encoded chunks, here in the one pass that writes them.
    """
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        for chunk in chart_csv_chunks(series):
            data = chunk.encode("utf-8")
            digest.update(data)
            handle.write(data)
    return digest.hexdigest()


def load_tags(path: str | Path) -> dict[str, set[str]]:
    """Read a tag CSV (header ``artist,tag``) into tag -> artist set."""
    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            return _parse_tag_rows(csv.reader(handle))
        except UnicodeDecodeError:
            raise _decode_error(path) from None


def _parse_tag_rows(reader) -> dict[str, set[str]]:
    header = next(reader, None)
    if header is None or tuple(header) != TAG_HEADER:
        raise ParseError(
            f"expected header {','.join(TAG_HEADER)!r}, got {header!r}", line=1
        )
    tags: dict[str, set[str]] = {}
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 2:
            raise ParseError(f"expected 2 fields, got {len(row)}", line=lineno)
        artist, tag = row
        tags.setdefault(tag, set()).add(artist)
    return tags


def build_artist_index(series: ChartSeries) -> ArtistIndex:
    """Index the distinct artists of a corpus in lexicographic order."""
    return ArtistIndex.from_artists(series.artists)


def filter_by_tag(series: ChartSeries, tagged_artists: set[str]) -> ChartSeries:
    """Keep only records whose artist is in ``tagged_artists``."""
    tagged = np.array([a in tagged_artists for a in series.artists], dtype=bool)
    keep = tagged[series.artist_idx]
    return ChartSeries.from_columns(
        series.weeks,
        series.cities,
        series.artists,
        series.week_idx[keep],
        series.city_idx[keep],
        series.artist_idx[keep],
        series.listeners[keep],
        series.region_label,
    )
