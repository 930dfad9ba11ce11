"""Weekly chart corpus: CSV ingestion, stable indexing, genre filtering.

A corpus is a set of (week, city, artist, listeners) observations taken from
weekly top-N charts. Week dates must share one weekday anchor so that
week-over-week arithmetic is well defined; gaps in the weekly grid are
allowed and handled downstream.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field
from datetime import date
from pathlib import Path
from typing import Iterable, Mapping

from .errors import (
    ChartFlowError,
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


@dataclass(frozen=True, slots=True)
class ChartRecord:
    """One chart observation: listener count for an artist in a city-week."""

    week_start: date
    city: str
    artist: str
    listeners: int


@dataclass(frozen=True)
class ChartSeries:
    """Immutable, canonically ordered chart corpus.

    ``records`` are sorted by (week_start, city, artist); ``weeks`` and
    ``cities`` are the sorted distinct values observed in the records.
    """

    records: tuple[ChartRecord, ...]
    weeks: tuple[date, ...]
    cities: tuple[str, ...]
    region_label: str = ""

    @classmethod
    def from_records(
        cls, records: Iterable[ChartRecord], region_label: str = ""
    ) -> "ChartSeries":
        """Build a corpus from records, validating corpus-level invariants."""
        ordered = sorted(records, key=lambda r: (r.week_start, r.city, r.artist))
        anchor: int | None = None
        prev: ChartRecord | None = None
        for rec in ordered:
            if rec.listeners <= 0:
                raise ChartFlowError(
                    f"non-positive listener count {rec.listeners} for "
                    f"({rec.week_start}, {rec.city}, {rec.artist})"
                )
            if rec.listeners > MAX_LISTENERS:
                raise ChartValueError(
                    f"listener count above {MAX_LISTENERS} for "
                    f"({rec.week_start}, {rec.city}, {rec.artist})"
                )
            weekday = rec.week_start.toordinal() % 7
            if anchor is None:
                anchor = weekday
            elif weekday != anchor:
                raise ChartFlowError(
                    f"week {rec.week_start} breaks the corpus weekday anchor"
                )
            if (
                prev is not None
                and (prev.week_start, prev.city, prev.artist)
                == (rec.week_start, rec.city, rec.artist)
            ):
                raise DuplicateKeyError(
                    f"duplicate key ({rec.week_start}, {rec.city}, {rec.artist})"
                )
            prev = rec
        weeks = tuple(sorted({r.week_start for r in ordered}))
        cities = tuple(sorted({r.city for r in ordered}))
        return cls(tuple(ordered), weeks, cities, region_label)

    def __len__(self) -> int:
        return len(self.records)


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
            f"invalid UTF-8 byte 0x{raw[exc.start]:02x}",
            line=raw.count(b"\n", 0, exc.start) + 1,
        )
    return ParseError("invalid UTF-8")


def parse_chart_csv_text(text: str, region_label: str = "") -> ChartSeries:
    """Parse chart CSV content from a string (same contract as the file API)."""
    return _parse_chart_rows(csv.reader(io.StringIO(text)), region_label)


def _parse_chart_rows(reader, region_label: str = "") -> ChartSeries:
    header = next(reader, None)
    if header is None or tuple(header) != CHART_HEADER:
        raise ParseError(
            f"expected header {','.join(CHART_HEADER)!r}, got {header!r}", line=1
        )
    records: list[ChartRecord] = []
    seen: set[tuple[date, str, str]] = set()
    anchor: int | None = None
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", line=lineno)
        raw_week, city, artist, raw_listeners = row
        try:
            week = date.fromisoformat(raw_week)
        except ValueError:
            raise ParseError(f"bad date {raw_week!r}", line=lineno) from None
        try:
            listeners = int(raw_listeners)
        except ValueError:
            raise ParseError(
                f"bad listener count {raw_listeners!r}", line=lineno
            ) from None
        if listeners < 0:
            raise ChartValueError(
                f"negative listener count {listeners}", line=lineno
            )
        if listeners > MAX_LISTENERS:
            raise ChartValueError(
                f"listener count above {MAX_LISTENERS}", line=lineno
            )
        weekday = week.toordinal() % 7
        if anchor is None:
            anchor = weekday
        elif weekday != anchor:
            raise ParseError(
                f"week {week} breaks the corpus weekday anchor", line=lineno
            )
        key = (week, city, artist)
        if key in seen:
            raise DuplicateKeyError(
                f"duplicate key ({week}, {city}, {artist})", line=lineno
            )
        seen.add(key)
        if listeners == 0:
            continue
        records.append(ChartRecord(week, city, artist, listeners))
    records.sort(key=lambda r: (r.week_start, r.city, r.artist))
    weeks = tuple(sorted({r.week_start for r in records}))
    cities = tuple(sorted({r.city for r in records}))
    return ChartSeries(tuple(records), weeks, cities, region_label)


def chart_csv_text(series: ChartSeries) -> str:
    """Canonical CSV serialization (sorted records, RFC 4180 quoting)."""
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CHART_HEADER)
    for rec in series.records:
        writer.writerow(
            (rec.week_start.isoformat(), rec.city, rec.artist, rec.listeners)
        )
    return buffer.getvalue()


def write_chart_csv(series: ChartSeries, path: str | Path) -> None:
    Path(path).write_text(chart_csv_text(series), encoding="utf-8")


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
    return ArtistIndex.from_artists(r.artist for r in series.records)


def filter_by_tag(series: ChartSeries, tagged_artists: set[str]) -> ChartSeries:
    """Keep only records whose artist is in ``tagged_artists``."""
    kept = tuple(r for r in series.records if r.artist in tagged_artists)
    weeks = tuple(sorted({r.week_start for r in kept}))
    cities = tuple(sorted({r.city for r in kept}))
    return ChartSeries(kept, weeks, cities, series.region_label)
