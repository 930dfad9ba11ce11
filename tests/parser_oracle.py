"""Row-by-row reference parser for chart CSV, kept for differential tests.

This is the record-based parser the columnar one replaced, with the strict
count syntax applied: every check runs on each row in turn, so the first
offending row raises, naming the physical line the row starts on. It
returns what a parse decides (the canonical digest and the label tuples)
rather than a ``ChartSeries``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import re
from datetime import date
from pathlib import Path

from chartflow.chart_store import CHART_HEADER, MAX_LISTENERS, ChartRecord
from chartflow.errors import ChartValueError, DuplicateKeyError, ParseError

_COUNT = re.compile(r"-?[0-9]+")


def _oracle_date(raw: str) -> date:
    """A ``YYYY-MM-DD`` or ``YYYYMMDD`` date, checked character by character."""
    if len(raw) == 10 and raw[4] == raw[7] == "-":
        raw = raw[:4] + raw[5:7] + raw[8:]
    if len(raw) != 8 or not all(ch in "0123456789" for ch in raw):
        raise ValueError(raw)
    return date(int(raw[:4]), int(raw[4:6]), int(raw[6:]))


def oracle_parse(reader):
    """(sha256 of the canonical CSV, weeks, cities, artists) of a corpus.

    A csv error (a field longer than ``csv.field_size_limit()``) is a
    ParseError naming the physical line the reader had reached.
    """
    try:
        return _oracle_parse(reader)
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


def oracle_parse_file(path):
    """``oracle_parse`` of the file at ``path``, read as text (``newline=""``).

    Bytes that are not UTF-8, once the reader reaches them, are a ParseError
    naming the line of the first one; lines end at ``\r\n``, ``\r`` or
    ``\n``, as the reader counts them.
    """
    with open(path, "r", encoding="utf-8", newline="") as handle:
        try:
            return oracle_parse(csv.reader(handle))
        except UnicodeDecodeError:
            raw = Path(path).read_bytes()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        before = raw[:exc.start].replace(b"\r\n", b"\n").replace(b"\r", b"\n")
        raise ParseError(
            f"byte 0x{raw[exc.start]:02x} is not UTF-8",
            line=before.count(b"\n") + 1,
        ) from None
    raise AssertionError("the text reader failed on UTF-8 input")


def _oracle_parse(reader):
    header = next(reader, None)
    if header is None or tuple(header) != CHART_HEADER:
        raise ParseError(
            f"expected header {','.join(CHART_HEADER)!r}, got {header!r}", line=1
        )
    records: list[ChartRecord] = []
    seen: set[tuple[date, str, str]] = set()
    anchor: int | None = None
    start = reader.line_num + 1
    for row in reader:
        lineno, start = start, reader.line_num + 1
        if not row:
            continue
        if len(row) != 4:
            raise ParseError(f"expected 4 fields, got {len(row)}", line=lineno)
        raw_week, city, artist, raw_listeners = row
        try:
            week = _oracle_date(raw_week)
        except ValueError:
            raise ParseError(f"bad date {raw_week!r}", line=lineno) from None
        if not _COUNT.fullmatch(raw_listeners):
            raise ParseError(
                f"bad listener count {raw_listeners!r}", line=lineno
            )
        listeners = int(raw_listeners)
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
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(CHART_HEADER)
    for rec in records:
        writer.writerow(
            (rec.week_start.isoformat(), rec.city, rec.artist, rec.listeners)
        )
    digest = hashlib.sha256(buffer.getvalue().encode("utf-8")).hexdigest()
    return (
        digest,
        tuple(sorted({r.week_start for r in records})),
        tuple(sorted({r.city for r in records})),
        tuple(sorted({r.artist for r in records})),
    )
