"""Weekly chart corpus: CSV ingestion, stable indexing, genre filtering.

A corpus is a set of (week, city, artist, listeners) observations taken from
weekly top-N charts. Week dates must share one weekday anchor so that
week-over-week arithmetic is well defined; gaps in the weekly grid are
allowed and handled downstream.

The corpus is stored as integer-coded columns: one code per row into each of
the sorted label tuples ``weeks``, ``cities`` and ``artists``, plus the
listener counts. Every way of building a corpus (parsing, tag filtering,
the synthetic generator) goes through the one validating constructor
:meth:`ChartSeries.from_columns`.

Parsing reads the file's bytes. Plain input (the exact header, no quote,
carriage return or NUL byte, no blank line, lines of three commas and a
count of 1-16 ASCII digits; see :func:`_plain_columns`) is coded with numpy,
one block of whole lines at a time, and kept when it validates. Any other
input, quoted RFC 4180 fields among it, and plain input that fails
validation, goes whole to a row loop over ``csv.reader``. The loop is the
only code that reports a parse error: every syntax, decode, csv and value
error names the physical line its row starts on.

This module also owns the canonical CSV, the one rendering of a corpus:
:func:`chart_csv_chunks` renders it, :func:`write_chart_csv` writes it and
:func:`fingerprint` is its SHA-256, the corpus digest. Rows already in
canonical order are not sorted again, and plain input whose bytes are the
canonical CSV (every file ``write_chart_csv`` writes, unless a label needs
quoting) keeps the hash of the bytes read as its digest, so
``fingerprint`` renders nothing.
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
import re
from dataclasses import dataclass, field
from datetime import date
from functools import cached_property
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .errors import ChartValueError, DuplicateKeyError, ParseError

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
    :meth:`from_columns`, which validates. ``digest`` is the hex SHA-256 of
    the canonical CSV when the corpus was parsed from exactly those bytes,
    else None; read it through :func:`fingerprint`.
    """

    weeks: tuple[date, ...]
    cities: tuple[str, ...]
    artists: tuple[str, ...]
    week_idx: np.ndarray = field(repr=False)
    city_idx: np.ndarray = field(repr=False)
    artist_idx: np.ndarray = field(repr=False)
    listeners: np.ndarray = field(repr=False)
    region_label: str = ""
    digest: str | None = field(default=None, repr=False)

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
        digest: str | None = None,
    ) -> "ChartSeries":
        """Validate coded rows in any order and store them canonically.

        The label sequences must be distinct; the codes index into them.
        ``lines`` gives each row's line number for error messages. Zero
        counts are dropped after validation (they still count as keys for
        the duplicate check). See :func:`_validate` for the checks. Rows
        already in canonical order are not sorted again.
        ``digest`` is the SHA-256 of the bytes the columns were parsed from,
        when they spell each row as the canonical CSV would. It is kept only
        when the rows are in canonical order and none is dropped: then those
        bytes are the canonical CSV.
        A code column given as a 1-D int32 array whose labels are already
        sorted, with every code in range, may be kept as the corpus's
        column, and so may an int64 ``listeners`` array: the caller must
        not change them afterwards.
        """
        for labels in (weeks, cities, artists):
            if len(set(labels)) != len(labels):
                raise ValueError("column labels must be distinct")
        counts = _counts(listeners)
        weeks, week_rank = _sort_labels(weeks)
        cities, city_rank = _sort_labels(cities)
        artists, artist_rank = _sort_labels(artists)
        w = _ranked(week_rank, week_idx)
        c = _ranked(city_rank, city_idx)
        a = _ranked(artist_rank, artist_idx)
        if not len(w) == len(c) == len(a) == len(counts):
            raise ValueError("columns must have equal lengths")
        order = None if _increasing(w, c, a) else np.lexsort((a, c, w))
        _validate(weeks, cities, artists, w, c, a, counts, order, lines)
        counts = counts.astype(np.int64, copy=False)
        nonzero = counts != 0
        if order is None and nonzero.all():
            keep = slice(None)
        else:
            keep = nonzero if order is None else order[nonzero[order]]
            digest = None
        weeks, w = _drop_unused(weeks, w[keep])
        cities, c = _drop_unused(cities, c[keep])
        artists, a = _drop_unused(artists, a[keep])
        return cls(weeks, cities, artists, w, c, a, counts[keep], region_label,
                   digest)

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


def _ranked(rank: np.ndarray, codes) -> np.ndarray:
    """The codes of sorted labels, given codes of labels in ``rank``'s order.

    A 1-D int32 array of in-range codes for labels already sorted (``rank``
    is the identity) is returned as is, not copied.
    """
    if (
        isinstance(codes, np.ndarray)
        and codes.dtype == np.int32
        and codes.ndim == 1
        and (rank == np.arange(len(rank))).all()
        and (codes.size == 0 or 0 <= codes.min() and codes.max() < len(rank))
    ):
        return codes
    return rank[np.asarray(codes, dtype=np.intp)]


def _increasing(w, c, a) -> bool:
    """Whether the (week, city, artist) code key strictly increases row by row.

    Compared column by column: a combined integer key could overflow.
    """
    dw, dc, da = np.diff(w), np.diff(c), np.diff(a)
    steps_up = (dw > 0) | (dw == 0) & ((dc > 0) | (dc == 0) & (da > 0))
    return bool(steps_up.all())


def _drop_unused(labels: tuple, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Drop labels no code refers to, keeping order, and renumber the codes."""
    used = np.bincount(codes, minlength=len(labels)) > 0
    if used.all():
        return labels, codes
    renumber = (np.cumsum(used) - 1).astype(np.int32)
    return tuple(x for x, u in zip(labels, used) if u), renumber[codes]


def _validate(weeks, cities, artists, w, c, a, counts, order, lines) -> None:
    """Raise for the first invalid row, in input order.

    A row is invalid when its count is negative or exceeds
    ``MAX_LISTENERS``, when its week falls on another weekday than the
    first row's, or when an earlier row holds the same (week, city, artist)
    key. The first invalid row raises the first of those checks it fails,
    exactly as checking row by row would. ``order`` sorts the rows by key,
    equal keys in input order; it is None when the rows strictly increase
    by key, so no key repeats.
    """
    if len(counts) == 0:
        return
    low = counts < 0
    high = counts > MAX_LISTENERS
    weekday = np.array([d.toordinal() % 7 for d in weeks])[w]
    off_anchor = weekday != weekday[0]
    repeat = np.zeros(len(counts), dtype=bool)
    if order is not None:
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
        raise ChartValueError(
            f"negative listener count {counts[i]}{where}", line=line
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
    """A corpus's artists in column order: column ``j`` is ``artists[j]``."""

    artists: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.artists)


def parse_chart_csv(path: str | Path, region_label: str = "") -> ChartSeries:
    """Parse a chart CSV (header ``week_start,city,artist,listeners``).

    Zero-listener rows are dropped; negative counts, malformed rows, and
    duplicate (week, city, artist) keys raise with the offending line number,
    as do counts above ``MAX_LISTENERS``, bytes that are not UTF-8 and
    fields longer than ``csv.field_size_limit()``.
    """
    with open(path, "rb") as handle:
        if not handle.seekable():  # a pipe: the row loop may need a rewind
            return _parse_chart_binary(io.BytesIO(handle.read()), region_label)
        return _parse_chart_binary(handle, region_label)


def _parse_chart_binary(handle, region_label: str) -> ChartSeries:
    """Parse the chart CSV in a seekable binary ``handle``.

    Plain input (see :func:`_plain_columns`) is coded from its bytes with
    numpy; when those bytes are the canonical CSV, their SHA-256 becomes
    the series' digest. Anything else, and plain input that fails
    validation, is read again from the start by the row loop, which handles
    quoted fields and reports every error with its line.
    """
    try:
        *columns, digest = _plain_columns(handle)
        return ChartSeries.from_columns(*columns, region_label, digest=digest)
    except (_NotPlain, ParseError):
        handle.seek(0)
    text = io.TextIOWrapper(handle, encoding="utf-8", newline="")
    try:
        return _parse_chart_rows(_csv_rows(text, CHART_HEADER), region_label)
    except UnicodeDecodeError:
        raw = text.detach()
        raw.seek(0)
        _utf8(raw.read())  # raises, naming the line of the bad byte
        raise


def read_text(path: str | Path) -> str:
    """The UTF-8 text of the file at ``path``, newlines untranslated.

    Bytes that are not UTF-8 raise a ParseError naming their line.
    """
    return _utf8(Path(path).read_bytes())


def read_csv_pairs(
    path: str | Path, header: tuple[str, str]
) -> Iterator[tuple[int, str, str]]:
    """``(line, first, second)`` per row of a two-column CSV file.

    See :func:`_csv_rows` for the header, the blank rows and ``line``.
    Lines end as in a file opened with ``newline=""``. A row of another
    width raises a ParseError.
    """
    text = io.StringIO(read_text(path), newline="")
    for line, row in _csv_rows(text, header):
        if len(row) != 2:
            raise ParseError(f"expected 2 fields, got {len(row)}", line=line)
        yield line, row[0], row[1]


def _utf8(raw: bytes) -> str:
    """``raw`` as UTF-8 text; the first byte sequence that is not UTF-8
    raises a ParseError naming its line.

    Lines end at ``\r\n``, ``\r`` or ``\n``, as ``csv.reader`` counts them.
    """
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        start = exc.start
        line_ends = (raw.count(b"\n", 0, start) + raw.count(b"\r", 0, start)
                     - raw.count(b"\r\n", 0, start))
        raise ParseError(
            f"byte 0x{raw[start]:02x} is not UTF-8", line=line_ends + 1
        ) from None


def _csv_rows(handle, header: tuple[str, ...]) -> Iterator[tuple[int, list]]:
    """``(line, row)`` for each non-blank ``csv.reader`` row after ``header``.

    ``line`` is the physical line the row starts on; a quoted field may
    carry the row over more lines. A first row other than ``header`` raises
    a ParseError for line 1. A csv error becomes a ParseError naming the
    physical line the reader had reached, for example the line of a field
    longer than ``csv.field_size_limit()``.
    """
    reader = csv.reader(handle)
    try:
        found = next(reader, None)
        if found is None or tuple(found) != header:
            raise ParseError(
                f"expected header {','.join(header)!r}, got {found!r}", line=1
            )
        line = reader.line_num + 1
        for row in reader:
            if row:
                yield line, row
            line = reader.line_num + 1
    except csv.Error as exc:
        raise ParseError(str(exc), line=reader.line_num) from None


class _NotPlain(Exception):
    """The input is not plain; the row loop parses it instead."""


# The byte path reads whole lines about this many bytes at a time, which
# bounds its temporaries.
_BLOCK_BYTES = 1 << 20
_HEADER_LINE = (",".join(CHART_HEADER) + "\n").encode()
# A plain count is 1-16 ASCII digits: below 2**63, so exact in int64.
_MAX_DIGITS = 16
_COMMA, _NEWLINE = ord(","), ord("\n")


def _plain_columns(handle) -> tuple:
    """(weeks, cities, artists, week, city, artist, counts, digest) columns.

    The byte path; it only accepts input and reports no error. Input is
    plain when it starts with the exact header line, holds no ``"``,
    carriage return or NUL byte, is UTF-8, and every line after the header
    has exactly three commas, a count of 1-16 ASCII digits, an ISO date as
    its week and no field longer than ``csv.field_size_limit()`` (a missing
    final newline is allowed; a blank line is not). On plain input
    ``csv.reader`` yields the bytes between the commas as the fields, one
    row per line, so these are the columns the row loop would collect.
    Other input raises :class:`_NotPlain`, after at most a partial read.

    ``digest`` is the hex SHA-256 of the bytes read when they spell every
    row as :func:`chart_csv_chunks` would: they end in a newline, no count
    starts with ``0``, each week is its ``isoformat()`` and each label its
    ``csv.writer`` rendering. Otherwise it is None.
    """
    limit = csv.field_size_limit()
    week_of_text: dict[str, int] = {}
    labels: tuple[dict, dict, dict] = ({}, {}, {})
    parts = []
    reads = hashlib.sha256()
    # A plain line is at most four fields, three commas and a newline.
    blocks = _line_blocks(handle, 4 * limit + 4, reads)
    first, ended = next(blocks, (b"", True))
    if not first.startswith(_HEADER_LINE):
        raise _NotPlain
    canonical = True
    for block, ended in itertools.chain(
        [(first[len(_HEADER_LINE):], ended)], blocks
    ):
        if b'"' in block or b"\r" in block or b"\0" in block:
            raise _NotPlain
        part, padded = _code_block(block, limit, week_of_text, labels)
        parts.append(part)
        canonical = canonical and ended and not padded
    columns = [np.concatenate(column) for column in zip(*parts)]
    weeks, cities, artists = (tuple(d) for d in labels)
    canonical = (
        canonical
        and all(weeks[w].isoformat() == text
                for text, w in week_of_text.items())
        and _csv_fields(cities) == list(cities)
        and _csv_fields(artists) == list(artists)
    )
    digest = reads.hexdigest() if canonical else None
    return weeks, cities, artists, *columns, digest


def _line_blocks(handle, longest: int, reads) -> Iterator[tuple[bytes, bool]]:
    """``(block, ended)``: the bytes of ``handle`` in blocks of whole lines.

    Each block ends in a newline. A final line without one gets one, and
    only its block has ``ended`` False. Every read is fed to the hash
    ``reads`` as it comes. A line longer than ``longest`` bytes raises
    :class:`_NotPlain`.
    """
    rest = b""
    while block := handle.read(_BLOCK_BYTES):
        reads.update(block)
        block = rest + block
        cut = block.rfind(b"\n") + 1
        rest = block[cut:]
        if len(rest) > longest:
            raise _NotPlain
        if cut:
            yield block[:cut], True
    if rest:
        yield rest + b"\n", False


def _code_block(block: bytes, limit: int, week_of_text: dict,
                labels: tuple[dict, dict, dict]) -> tuple[tuple, bool]:
    """Code one block of whole lines into (week, city, artist, count) columns.

    Returns the columns and whether some count starts with ``0``.
    ``week_of_text`` and ``labels`` (weeks by date, cities, artists) gain
    the block's new labels, each coded in order of first appearance. A
    blank line (a lone newline) breaks the three-commas-then-newline
    pattern, so it raises :class:`_NotPlain` like any other irregular line.
    """
    buf = np.frombuffer(block, dtype=np.uint8)
    sep = np.flatnonzero((buf == _COMMA) | (buf == _NEWLINE))
    newline = buf[sep] == _NEWLINE
    if len(sep) % 4 or not (newline.reshape(-1, 4) == _ROW_SEPARATORS).all():
        raise _NotPlain
    if not len(sep):
        return _EMPTY_PART, False
    # Each field starts one byte after the separator before it.
    ends = sep.reshape(-1, 4)
    starts = np.empty_like(ends)
    starts[:, 0] = np.concatenate(([-1], ends[:-1, 3])) + 1
    starts[:, 1:] = ends[:, :3] + 1
    widths = ends - starts
    if widths.max() > limit:
        raise _NotPlain
    counts = _digits(buf, starts[:, 3], ends[:, 3], widths[:, 3])
    padded = bool((buf[starts[:, 3]] == ord("0")).any())
    codes = []
    for column, store in enumerate(labels):
        fields, inverse = _distinct(block, buf, starts[:, column],
                                    widths[:, column])
        try:
            texts = [field.decode("utf-8") for field in fields]
        except UnicodeDecodeError:
            raise _NotPlain from None
        if column == 0:
            code = _week_codes(texts, week_of_text, store)
        else:
            code = [store.setdefault(text, len(store)) for text in texts]
        codes.append(np.array(code, dtype=np.int32)[inverse])
    return (*codes, counts), padded


# Each row's separators: three commas, then a newline.
_ROW_SEPARATORS = np.array([False, False, False, True])
_EMPTY_PART = (*(np.empty(0, np.int32) for _ in range(3)),
               np.empty(0, np.int64))


def _digits(buf, starts, ends, widths) -> np.ndarray:
    """Each count field's value, by Horner's rule over its digit bytes.

    Raises :class:`_NotPlain` when some field is empty, longer than
    ``_MAX_DIGITS`` or holds a byte other than an ASCII digit.
    """
    width = int(widths.max())
    if widths.min() < 1 or width > _MAX_DIGITS:
        raise _NotPlain
    counts = np.zeros(len(ends), dtype=np.int64)
    # Step k reads the k-th byte of a window of ``width`` bytes ending at
    # each field's end; bytes before the field read as a leading zero.
    for k in range(-width, 0):
        pos = ends + k
        digit = buf[np.maximum(pos, 0)] - ord("0")
        digit[pos < starts] = 0
        if digit.max() > 9:
            raise _NotPlain
        counts *= 10
        counts += digit
    return counts


def _distinct(block: bytes, buf, starts, widths) -> tuple[list, np.ndarray]:
    """The distinct byte strings among the fields at ``starts`` (of
    ``widths`` bytes) in the block and, per field, its position among them.

    Each field becomes a fixed-width key padded with NUL bytes, which no
    plain field holds, so equal keys mean equal fields: one uint64 for
    fields of at most 8 bytes, an ``S{width}`` string otherwise. Runs of
    equal keys (a week, a city within a week) are collapsed before the
    sort. When the widest field would make the keys much larger than the
    block, the keys are Python bytes instead.
    """
    width = int(widths.max())
    if width <= 8:
        keys = _windows(buf, "<u8")[starts] & _LOW_BYTES[widths]
    elif width * len(starts) <= 4 * len(buf):
        keys = _windows(buf, f"S{width}")[starts]
        if widths.min() < width:
            padding = np.arange(width) >= widths[:, None]
            keys.view(np.uint8).reshape(-1, width)[padding] = 0
    else:
        keys = np.array([block[s:s + w] for s, w in zip(starts.tolist(),
                                                        widths.tolist())],
                        dtype=object)
    head = np.empty(len(keys), dtype=bool)
    head[0] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    distinct, inverse = np.unique(keys[head], return_inverse=True)
    if width <= 8:
        distinct = distinct.view("S8")
    return distinct.tolist(), inverse[np.cumsum(head) - 1]


# Mask keeping the first w bytes of a little-endian uint64, for w = 0..8.
_LOW_BYTES = np.array([(1 << 8 * w) - 1 for w in range(9)], dtype="<u8")


def _windows(buf: np.ndarray, dtype: str) -> np.ndarray:
    """Item i is the ``dtype``-sized window of ``buf`` starting at byte i;
    windows reaching past the end read NUL bytes."""
    size = np.dtype(dtype).itemsize
    padded = np.concatenate((buf, np.zeros(size, dtype=np.uint8)))
    return np.ndarray((len(buf),), dtype=dtype, buffer=padded, strides=(1,))


def _week_codes(texts: list[str], week_of_text: dict[str, int],
                weeks: dict[date, int]) -> list[int]:
    """Week codes of distinct week texts, keyed by date as the loop keys them."""
    codes = []
    for text in texts:
        code = week_of_text.get(text)
        if code is None:
            try:
                day = date.fromisoformat(text)
            except ValueError:
                raise _NotPlain from None
            code = week_of_text[text] = weeks.setdefault(day, len(weeks))
        codes.append(code)
    return codes


def _parse_chart_rows(rows, region_label: str = "") -> ChartSeries:
    """Code each ``(line, row)``; :meth:`ChartSeries.from_columns` validates.

    The loop checks what one field decides (field count, date syntax, count
    syntax) and stops at the first row failing it, or where the reader
    fails. The rows before it are validated first, so an earlier line's
    error still wins.
    """
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
        for lineno, row in rows:
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
    except (ParseError, UnicodeDecodeError) as exc:
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


def fingerprint(series: ChartSeries) -> str:
    """Order-independent content hash of a corpus (hex SHA-256).

    The SHA-256 of the canonical CSV that :func:`write_chart_csv` writes,
    so any two corpora with the same records share the digest regardless of
    construction order. The empty corpus digest is the hash of the bare
    header line. A corpus parsed from exactly those bytes carries the hash
    of the bytes it read; any other is rendered again, chunk by chunk.
    """
    if series.digest is not None:
        return series.digest
    digest = hashlib.sha256()
    for chunk in chart_csv_chunks(series):
        digest.update(chunk.encode("utf-8"))
    return digest.hexdigest()


def write_chart_csv(series: ChartSeries, path: str | Path) -> str:
    """Write the canonical CSV; returns the hex SHA-256 of the bytes written.

    The digest equals ``fingerprint(series)``: both hash the same encoded
    chunks, here in the one pass that writes them.
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
    tags: dict[str, set[str]] = {}
    for _, artist, tag in read_csv_pairs(path, TAG_HEADER):
        tags.setdefault(tag, set()).add(artist)
    return tags


def build_artist_index(series: ChartSeries) -> ArtistIndex:
    """The corpus's artists, sorted and distinct, as its column index."""
    return ArtistIndex(series.artists)


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
