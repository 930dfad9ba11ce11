"""Weekly chart corpus: CSV ingestion, stable indexing, genre tags.

A corpus is a set of (week, city, artist, listeners) observations taken from
weekly top-N charts. Week dates must share one weekday anchor so that
week-over-week arithmetic is well defined; gaps in the weekly grid are
allowed and handled downstream.

The corpus is stored as integer-coded columns: one code per row into each of
the sorted label tuples ``weeks``, ``cities`` and ``artists``, plus the
listener counts, each column at the narrowest signed width its values need
(see :func:`column_width`). Every way of building a corpus (parsing, the
synthetic generator) goes through the one validating constructor
:meth:`ChartSeries.from_columns`. A genre tag (:func:`load_tags`) narrows
the artists downstream, in the weekly matrices, and leaves the corpus as
it is.

Parsing reads the file's bytes. Plain input (the exact header, no quote,
carriage return or NUL byte, no blank line, lines of three commas and a
count of 1-9 ASCII digits; see :func:`_plain_columns`) is coded with numpy,
one block of whole lines at a time, and kept when it validates. Any other
input, quoted RFC 4180 fields among it, and plain input that fails
validation, goes whole to a row loop over ``csv.reader``. The loop is the
only code that reports a parse error: every syntax, decode, csv and value
error names the physical line its row starts on. The byte path holds the
columns plus one block's scratch (blocks are 256 KiB): a first pass counts
the lines, so the columns are allocated narrow at their final length and
each block is coded into its rows (a code column is widened once, should a
block's labels outgrow it), and the checks of ``from_columns`` run a fixed
number of rows at a time, so no whole-column temporary is built.

This module also owns the canonical CSV, the one rendering of a corpus:
:func:`chart_csv_chunks` renders it, :func:`write_chart_csv` writes it and
:func:`fingerprint` is its SHA-256, the corpus digest. The renderer yields
UTF-8 bytes, a block of rows at a time: each block is laid out as a byte
matrix of at most 64 KiB, one line per row, from tables of the labels'
quoted fields, and one mask drops the padding and the counts' leading
zeros. So the writer and the hash take the chunks as they come, and its
scratch stays at a few blocks plus the labels' bytes, however wide a label.
Rows already in canonical order are not sorted again, and plain input
whose bytes are the canonical CSV (every file ``write_chart_csv`` writes,
unless a label needs quoting) keeps the hash of the bytes read as its
digest, so ``fingerprint`` renders nothing.
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
# A date is YYYY-MM-DD or YYYYMMDD: both dashes or neither.
_DATE = re.compile(r"[0-9]{4}(-?)[0-9]{2}\1[0-9]{2}")


def parse_date(text: str) -> date:
    """The date spelled ``YYYY-MM-DD`` or ``YYYYMMDD``, and no other way.

    ``date.fromisoformat`` accepts more spellings on some Pythons than on
    others (``20070107`` and week dates such as ``2007-W02-7`` from 3.11
    on), so corpus weeks and configured dates are read here instead.
    Raises ValueError for any other text, or an impossible date.
    """
    if not _DATE.fullmatch(text):
        raise ValueError(f"not a YYYY-MM-DD or YYYYMMDD date: {text!r}")
    digits = text.replace("-", "")
    return date(int(digits[:4]), int(digits[4:6]), int(digits[6:]))


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
    A code column is int16 when its labels number at most 32,767 and int32
    otherwise; ``listeners`` is int32 when every count is at most
    2**31 - 1 and int64 otherwise (see :func:`column_width`). Build corpora
    with :meth:`from_columns`, which validates. ``digest`` is the hex
    SHA-256 of the canonical CSV when the corpus was parsed from exactly
    those bytes, else None; read it through :func:`fingerprint`.
    """

    weeks: tuple[date, ...]
    cities: tuple[str, ...]
    artists: tuple[str, ...]
    week_idx: np.ndarray = field(repr=False)
    city_idx: np.ndarray = field(repr=False)
    artist_idx: np.ndarray = field(repr=False)
    listeners: np.ndarray = field(repr=False)
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
        The columns are stored at the corpus widths (see :class:`ChartSeries`),
        whatever the widths given. A code column given as a 1-D array at
        its corpus width whose labels are already sorted, with every code
        in range, may be kept as the corpus's column, and so may a
        ``listeners`` array at its corpus width: the caller must not change
        them afterwards.
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
        largest = int(counts.max()) if len(counts) else 0
        counts = counts.astype(column_width(largest, COUNT_WIDTHS),
                               copy=False)
        nonzero = counts != 0
        if order is None and nonzero.all():
            keep = slice(None)
        else:
            keep = nonzero if order is None else order[nonzero[order]]
            digest = None
        weeks, w = _drop_unused(weeks, w[keep])
        cities, c = _drop_unused(cities, c[keep])
        artists, a = _drop_unused(artists, a[keep])
        return cls(weeks, cities, artists, w, c, a, counts[keep], digest)

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
        # Codes of the column's dtype, so the column is searched uncast.
        bounds = np.searchsorted(
            self.week_idx,
            np.arange(len(self.weeks) + 1, dtype=self.week_idx.dtype),
        ).tolist()
        for k, week in enumerate(self.weeks):
            yield week, slice(bounds[k], bounds[k + 1])

    def __len__(self) -> int:
        return len(self.listeners)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ChartSeries):
            return NotImplemented
        return (
            (self.weeks, self.cities, self.artists)
            == (other.weeks, other.cities, other.artists)
            and np.array_equal(self.week_idx, other.week_idx)
            and np.array_equal(self.city_idx, other.city_idx)
            and np.array_equal(self.artist_idx, other.artist_idx)
            and np.array_equal(self.listeners, other.listeners)
        )


def _counts(listeners) -> np.ndarray:
    """Listener counts as a signed integer array: one given as such is
    taken as it is, anything else as int64, or as Python ints when one does
    not fit."""
    if isinstance(listeners, np.ndarray) and listeners.dtype.kind == "i":
        return listeners
    try:
        return np.asarray(listeners, dtype=np.int64)
    except OverflowError:
        return np.array(listeners, dtype=object)


# The signed integer widths a column may be stored at, narrowest first.
CODE_WIDTHS = (np.int16, np.int32, np.int64)
COUNT_WIDTHS = (np.int32, np.int64)


def column_width(bound: int, widths: tuple = CODE_WIDTHS) -> type:
    """The narrowest of ``widths`` that holds ``bound``: the one rule for a
    column's width.

    A code column is stored at ``column_width(len(labels))``, so it holds
    every code and the label count itself, the end bound that
    :meth:`ChartSeries.week_slices` searches for; ``listeners`` is stored
    at ``column_width(largest count, COUNT_WIDTHS)``.
    """
    return next(width for width in widths if bound <= np.iinfo(width).max)


def _sort_labels(labels: Sequence) -> tuple[tuple, np.ndarray]:
    """Sorted labels and, per original position, the label's sorted rank,
    at the labels' code width."""
    order = sorted(range(len(labels)), key=labels.__getitem__)
    rank = np.empty(len(labels), dtype=column_width(len(labels)))
    rank[order] = np.arange(len(labels))
    return tuple(labels[i] for i in order), rank


def _ranked(rank: np.ndarray, codes) -> np.ndarray:
    """The codes of sorted labels, given codes of labels in ``rank``'s order,
    at ``rank``'s width.

    A 1-D array at that width of in-range codes for labels already sorted
    (``rank`` is the identity) is returned as is, not copied. A signed
    integer array indexes ``rank`` as it is, which numpy does without an
    ``intp`` copy.
    """
    if not (isinstance(codes, np.ndarray) and codes.dtype.kind == "i"):
        return rank[np.asarray(codes, dtype=np.intp)]
    if (
        codes.dtype == rank.dtype
        and codes.ndim == 1
        and (rank == np.arange(len(rank))).all()
        and (codes.size == 0 or 0 <= codes.min() and codes.max() < len(rank))
    ):
        return codes
    return rank[codes]


def _increasing(w, c, a) -> bool:
    """Whether the (week, city, artist) code key strictly increases row by row.

    Compared column by column, ``_CHECK_ROWS`` rows at a time: a combined
    integer key could overflow, and whole-column differences would double
    the columns' memory.
    """
    for start in range(0, len(w), _CHECK_ROWS):
        rows = slice(start, start + _CHECK_ROWS + 1)  # one row of overlap
        dw, dc, da = np.diff(w[rows]), np.diff(c[rows]), np.diff(a[rows])
        steps_up = (dw > 0) | (dw == 0) & ((dc > 0) | (dc == 0) & (da > 0))
        if not steps_up.all():
            return False
    return True


# Rows per step of the whole-column checks in ``from_columns``.
_CHECK_ROWS = 1 << 14


def _drop_unused(labels: tuple, codes: np.ndarray) -> tuple[tuple, np.ndarray]:
    """Drop labels no code refers to, keeping order, and renumber the codes
    at the kept labels' width."""
    used = np.zeros(len(labels), dtype=bool)
    used[codes] = True  # a narrow index is not copied, as bincount's is
    if used.all():
        return labels, codes
    kept = tuple(x for x, u in zip(labels, used) if u)
    renumber = (np.cumsum(used) - 1).astype(column_width(len(kept)))
    return kept, renumber[codes]


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
    weekday = np.array([d.toordinal() % 7 for d in weeks])
    off_anchor = weekday != weekday[w[0]]  # per week, not per row
    bad = counts < 0
    bad |= counts > MAX_LISTENERS
    bad |= off_anchor[w]
    if order is not None:
        ws, cs, as_ = w[order], c[order], a[order]
        bad[order[1:]] |= (
            (ws[1:] == ws[:-1]) & (cs[1:] == cs[:-1]) & (as_[1:] == as_[:-1])
        )
    if not bad.any():
        return
    i = int(np.argmax(bad))
    key = f"({weeks[w[i]]}, {cities[c[i]]}, {artists[a[i]]})"
    line = None if lines is None else int(lines[i])
    where = "" if line is not None else f" for {key}"
    if counts[i] < 0:
        raise ChartValueError(
            f"negative listener count {counts[i]}{where}", line=line
        )
    if counts[i] > MAX_LISTENERS:
        raise ChartValueError(
            f"listener count above {MAX_LISTENERS}{where}", line=line
        )
    if off_anchor[w[i]]:
        raise ParseError(
            f"week {weeks[w[i]]} breaks the corpus weekday anchor", line=line
        )
    raise DuplicateKeyError(f"duplicate key {key}", line=line)


def parse_chart_csv(path: str | Path) -> ChartSeries:
    """Parse a chart CSV (header ``week_start,city,artist,listeners``).

    Zero-listener rows are dropped; negative counts, malformed rows, and
    duplicate (week, city, artist) keys raise with the offending line number,
    as do counts above ``MAX_LISTENERS``, bytes that are not UTF-8 and
    fields longer than ``csv.field_size_limit()``.
    """
    with open(path, "rb") as handle:
        if not handle.seekable():  # a pipe: the row loop may need a rewind
            return _parse_chart_binary(io.BytesIO(handle.read()))
        return _parse_chart_binary(handle)


def _parse_chart_binary(handle) -> ChartSeries:
    """Parse the chart CSV in a seekable binary ``handle``.

    Plain input (see :func:`_plain_columns`) is coded from its bytes with
    numpy; when those bytes are the canonical CSV, their SHA-256 becomes
    the series' digest. Anything else, and plain input that fails
    validation, is read again from the start by the row loop, which handles
    quoted fields and reports every error with its line.
    """
    try:
        *columns, digest = _plain_columns(handle)
        return ChartSeries.from_columns(*columns, digest=digest)
    except (_NotPlain, ParseError):
        handle.seek(0)
    text = io.TextIOWrapper(handle, encoding="utf-8", newline="")
    try:
        return _parse_chart_rows(_csv_rows(text, CHART_HEADER))
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
# bounds its temporaries: a few times this, beside the columns.
_BLOCK_BYTES = 1 << 18
_HEADER_LINE = (",".join(CHART_HEADER) + "\n").encode()
# A plain count is 1-9 ASCII digits: below 2**31, so it fits the int32 column.
_MAX_DIGITS = 9
_COMMA, _NEWLINE = ord(","), ord("\n")
# NUL bytes after each block's bytes. A label key is a window as wide as the
# block's widest label, at least 8 bytes: up to this width (ISO week text,
# most names) the block is not copied again to pad it.
_PAD = 64


def _plain_columns(handle) -> tuple:
    """(weeks, cities, artists, week, city, artist, counts, digest) columns.

    The byte path; it only accepts input and reports no error. Input is
    plain when it starts with the exact header line, holds no ``"``,
    carriage return or NUL byte, is UTF-8, and every line after the header
    has exactly three commas, a count of 1-9 ASCII digits, an ISO date as
    its week and no field longer than ``csv.field_size_limit()`` (a missing
    final newline is allowed; a blank line is not). On plain input
    ``csv.reader`` yields the bytes between the commas as the fields, one
    row per line, so these are the columns the row loop would collect.
    Other input raises :class:`_NotPlain`, after at most a partial read.

    The labels are returned sorted, and their codes renumbered in place to
    match (:func:`_sorted_in_place`).

    The header is checked first, so input without it is not read further.
    Then a first pass counts the lines after it in the seekable ``handle``,
    so the columns are allocated at their final length, at their narrowest
    widths (int16 codes, int32 counts, which every plain count fits), and
    each block's rows are written into their slice. A code column is
    widened, its rows so far copied once, when a block's labels outgrow it
    (see :func:`column_width`).
    The second pass checks the header again and codes the lines after it;
    when it codes another number of rows than the first counted (the file
    changed in between), the input raises :class:`_NotPlain`.

    ``digest`` is the hex SHA-256 of the bytes read when they spell every
    row as :func:`chart_csv_chunks` would: they end in a newline, no count
    starts with ``0``, each week is its ``isoformat()`` and each label its
    ``csv.writer`` rendering. Otherwise it is None.
    """
    _read_header(handle)
    rows = _count_rows(handle)
    header = _read_header(handle)  # again: the file may have changed since
    limit = csv.field_size_limit()
    week_of_text: dict[str, int] = {}
    labels: tuple[dict, dict, dict] = ({}, {}, {})
    reads = hashlib.sha256(header)
    columns = [*(np.empty(rows, CODE_WIDTHS[0]) for _ in range(3)),
               np.empty(rows, COUNT_WIDTHS[0])]
    done = 0
    canonical = header == _HEADER_LINE
    # A plain line is at most four fields, three commas and a newline.
    for block, ended in _line_blocks(handle, 4 * limit + 4, reads):
        coded, leading_zero = _code_block(
            block, limit, week_of_text, labels, columns, done)
        done += coded
        canonical = canonical and ended and not leading_zero
    if done != rows:
        raise _NotPlain
    weeks, cities, artists = (tuple(d) for d in labels)
    canonical = (
        canonical
        and all(weeks[w].isoformat() == text
                for text, w in week_of_text.items())
        and _csv_fields(cities) == list(cities)
        and _csv_fields(artists) == list(artists)
    )
    digest = reads.hexdigest() if canonical else None
    weeks, cities, artists = (
        _sorted_in_place(store, column)
        for store, column in zip((weeks, cities, artists), columns)
    )
    return weeks, cities, artists, *columns, digest


def _sorted_in_place(labels: tuple, codes: np.ndarray) -> tuple:
    """``labels`` sorted, with ``codes`` renumbered to match in place,
    ``_CHECK_ROWS`` rows at a time.

    Labels that a later block first shows may sort before earlier ones;
    ranked here, their column is kept by ``from_columns``, not ranked into
    a copy.
    """
    labels, rank = _sort_labels(labels)
    if not (rank == np.arange(len(rank))).all():
        for start in range(0, len(codes), _CHECK_ROWS):
            rows = slice(start, start + _CHECK_ROWS)
            codes[rows] = rank[codes[rows]]
    return labels


def _read_header(handle) -> bytes:
    """Read and return the header line, which may end the input without
    a newline; any other bytes raise :class:`_NotPlain`."""
    header = handle.read(len(_HEADER_LINE))
    if header not in (_HEADER_LINE, _HEADER_LINE[:-1]):
        raise _NotPlain
    return header


def _count_rows(handle) -> int:
    """The lines from the position of ``handle`` on, a final line without
    a newline included; ``handle`` is read to its end and rewound to its
    start.

    The read buffer and the compare's flags are allocated once, so the
    count leaves no freed block in the heap for the columns to fill.
    """
    buffer = bytearray(_BLOCK_BYTES)
    view = np.frombuffer(buffer, dtype=np.uint8)
    flags = np.empty(_BLOCK_BYTES, dtype=bool)
    newlines, last = 0, _NEWLINE
    while size := handle.readinto(buffer):
        # A vector compare counts three times faster than bytes.count.
        newlines += int(np.count_nonzero(
            np.equal(view[:size], _NEWLINE, out=flags[:size])))
        last = buffer[size - 1]
    handle.seek(0)
    return newlines + (last != _NEWLINE)


def _line_blocks(handle, longest: int,
                 reads) -> Iterator[tuple[np.ndarray, bool]]:
    """``(block, ended)``: the bytes of ``handle`` from its position on, in
    blocks of whole lines.

    Each block is a :func:`_padded` array whose bytes end in a newline. A
    final line without one gets one, and only its block has ``ended``
    False. Every read is fed to the hash ``reads`` as it comes. A ``"``,
    carriage return or NUL byte, or a line longer than ``longest`` bytes,
    raises :class:`_NotPlain`.
    """
    rest = b""
    while data := handle.read(_BLOCK_BYTES):
        reads.update(data)
        if b'"' in data or b"\r" in data or b"\0" in data:
            raise _NotPlain
        cut = data.rfind(b"\n") + 1
        if cut:
            block = _padded(rest, memoryview(data)[:cut])
            rest = data[cut:]
        else:
            rest += data
        del data  # only the block is held while it is coded
        if len(rest) > longest:
            raise _NotPlain
        if cut:
            yield block, True
    if rest:
        yield _padded(rest, b"\n"), False


def _padded(*parts, pad: int = _PAD) -> np.ndarray:
    """The bytes of ``parts`` in one uint8 array, followed by ``pad`` NUL
    bytes: a block's one copy, in which each label key of
    :func:`_distinct` is a window that may run past the block's end."""
    size = sum(len(part) for part in parts)
    padded = np.empty(size + pad, dtype=np.uint8)
    start = 0
    for part in parts:
        padded[start:start + len(part)] = np.frombuffer(part, dtype=np.uint8)
        start += len(part)
    padded[size:] = 0
    return padded


def _code_block(block: np.ndarray, limit: int, week_of_text: dict,
                labels: tuple[dict, dict, dict], columns: list,
                done: int) -> tuple[int, bool]:
    """Code one block of whole lines into (week, city, artist, count) columns.

    ``block`` is a :func:`_padded` array. ``columns`` holds the four
    columns, whose first ``done`` rows are coded; the block's rows are
    written to the rows after them, and a block with more rows than remain
    raises :class:`_NotPlain`. A code column the block's labels outgrow is
    replaced in ``columns`` by a wider one (:func:`_widened`).
    Returns the number of rows and whether some count starts with ``0``.
    ``week_of_text`` and ``labels`` (weeks by date, cities, artists) gain
    the block's new labels, coded after earlier blocks' labels in
    ascending order; so a label set first seen whole in one block, as a
    canonical file's cities usually are, needs no ranking later. A
    blank line (a lone newline) breaks the three-commas-then-newline
    pattern, so it raises :class:`_NotPlain` like any other irregular line.
    """
    buf = block[:-_PAD]
    is_sep = buf == _COMMA
    is_sep |= buf == _NEWLINE
    sep = np.flatnonzero(is_sep)
    del is_sep
    newline = buf[sep] == _NEWLINE
    if len(sep) % 4 or not (newline.reshape(-1, 4) == _ROW_SEPARATORS).all():
        raise _NotPlain
    del newline
    rows = len(sep) // 4
    if rows > len(columns[3]) - done:
        raise _NotPlain
    if not rows:
        return 0, False
    # Field i of the block starts at bounds[i], one byte after the separator
    # before it, and is bounds[i + 1] - bounds[i] - 1 bytes wide. Byte
    # offsets are int32 unless the block is too long for them.
    offset = np.int32 if len(buf) <= np.iinfo(np.int32).max else np.intp
    bounds = np.empty(len(sep) + 1, dtype=offset)
    bounds[0] = 0
    np.add(sep, 1, out=bounds[1:])
    del sep
    widths = np.diff(bounds).reshape(-1, 4)
    widths -= 1
    starts = bounds[:-1].reshape(-1, 4)
    if widths.max() > limit:
        raise _NotPlain
    head = slice(done, done + rows)
    _digits(buf, starts[:, 3], widths[:, 3], columns[3][head])
    leading_zero = bool((buf[starts[:, 3]] == ord("0")).any())
    label_width = int(widths[:, :3].max())
    if label_width > _PAD:  # pad once for all three label columns
        block = _padded(buf, pad=label_width)
    for column, store in enumerate(labels):
        fields, inverse = _distinct(block, len(buf), starts[:, column],
                                    widths[:, column])
        try:
            texts = [field.decode("utf-8") for field in fields]
        except UnicodeDecodeError:
            raise _NotPlain from None
        if column == 0:
            try:
                code = [_week_code(text, week_of_text, store)
                        for text in texts]
            except ValueError:
                raise _NotPlain from None
        else:
            code = [store.setdefault(text, len(store)) for text in texts]
        out = _widened(columns, column, done, column_width(len(store)))
        np.take(np.array(code, dtype=out.dtype), inverse, out=out[head])
    return rows, leading_zero


def _widened(columns: list, i: int, done: int, dtype) -> np.ndarray:
    """``columns[i]``, first replaced by a column of ``dtype`` when that is
    wider, into which only its first ``done`` rows, those coded so far, are
    copied."""
    column = columns[i]
    if np.dtype(dtype).itemsize > column.itemsize:
        columns[i] = np.empty(len(column), dtype)
        columns[i][:done] = column[:done]
    return columns[i]


# Each row's separators: three commas, then a newline.
_ROW_SEPARATORS = np.array([False, False, False, True])


def _digits(buf, starts, widths, counts) -> None:
    """Write each count field's value, by Horner's rule over its 1-9 ASCII
    digits, into the int32 array ``counts``.

    Raises :class:`_NotPlain` when some field is empty, longer than
    ``_MAX_DIGITS`` or holds a byte other than an ASCII digit.
    """
    width = int(widths.max())
    if widths.min() < 1 or width > _MAX_DIGITS:
        raise _NotPlain
    ends = starts + widths
    counts[:] = 0
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


def _distinct(block: np.ndarray, size: int, starts,
              widths) -> tuple[list, np.ndarray]:
    """The distinct byte strings among the fields at ``starts`` (of
    ``widths`` bytes) in the first ``size`` bytes of ``block`` and, per
    field, its position among them. At least 8 NUL bytes follow those
    ``size`` bytes, and at least as many as the widest field has.

    Each field becomes a fixed-width key padded with NUL bytes, which no
    plain field holds, so equal keys mean equal fields and keys order as
    the fields' bytes do: one big-endian uint64 for fields of at most 8
    bytes, an ``S{width}`` string otherwise. The distinct strings ascend,
    as UTF-8 text orders as ``str`` does. Runs of
    equal keys (a week, a city within a week) are collapsed before the
    sort, and each field's position is found by a binary search among the
    distinct keys. When the widest field would make the keys much larger
    than the block, the keys are Python bytes instead.
    """
    width = int(widths.max())
    if width <= 8:
        keys = _windows(block, size, ">u8")[starts] & _HIGH_BYTES[widths]
    elif width * len(starts) <= 4 * size:
        keys = _windows(block, size, f"S{width}")[starts]
        if widths.min() < width:
            padding = np.arange(width) >= widths[:, None]
            keys.view(np.uint8).reshape(-1, width)[padding] = 0
    else:
        keys = np.array([block[s:s + w].tobytes()
                         for s, w in zip(starts.tolist(), widths.tolist())],
                        dtype=object)
    head = np.empty(len(keys), dtype=bool)
    head[0] = True
    np.not_equal(keys[1:], keys[:-1], out=head[1:])
    # Sorted and deduplicated by hand: np.unique without an inverse imports
    # numpy.ma, about 1 MiB, to check for a mask.
    distinct = np.sort(keys[head])
    del head
    first = np.empty(len(distinct), dtype=bool)
    first[0] = True
    np.not_equal(distinct[1:], distinct[:-1], out=first[1:])
    distinct = distinct[first]
    inverse = np.searchsorted(distinct, keys)
    if width <= 8:
        distinct = distinct.astype(">u8").view("S8")
    return distinct.tolist(), inverse


# Mask keeping the first w bytes of a big-endian uint64, for w = 0..8.
_HIGH_BYTES = np.array([(1 << 64) - (1 << 8 * (8 - w)) for w in range(9)],
                       dtype=np.uint64)


def _windows(block: np.ndarray, size: int, dtype: str) -> np.ndarray:
    """Item i < ``size`` is the ``dtype``-sized window of ``block`` starting
    at byte i; ``block`` must be long enough to hold the last one."""
    return np.ndarray((size,), dtype=dtype, buffer=block, strides=(1,))


def _week_code(text: str, week_of_text: dict[str, int],
               weeks: dict[date, int]) -> int:
    """The code of the week spelled ``text``: weeks are keyed by date, so
    both spellings of a week share one code, and ``week_of_text`` keeps
    each spelling's code. Raises ValueError when ``text`` is not a date
    (see :func:`parse_date`)."""
    code = week_of_text.get(text)
    if code is None:
        day = parse_date(text)
        code = week_of_text[text] = weeks.setdefault(day, len(weeks))
    return code


def _parse_chart_rows(rows) -> ChartSeries:
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
            try:
                w = _week_code(raw_week, week_of_text, weeks)
            except ValueError:
                raise ParseError(f"bad date {raw_week!r}", line=lineno) from None
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
        counts, lines=lines,
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


# A rendered block of rows is laid out as a matrix of at most this many
# bytes (one row at least), whatever the width of its labels.
_RENDER_BYTES = 1 << 16
# An ISO week and its comma: "YYYY-MM-DD,".
_WEEK_FIELD = 11


def chart_csv_chunks(series: ChartSeries) -> Iterator[bytes]:
    """Canonical CSV serialization in UTF-8 pieces: the header, then blocks
    of rows.

    Labels are rendered once each with RFC 4180 quoting (see
    :func:`_csv_fields`) into tables of byte windows (see
    :func:`_field_table`). A block lays its rows out as a uint8 matrix, one
    line per row: the week field, the city and artist fields from the
    tables, the count's digits and a newline. One mask then drops the bytes
    past each label and the count's leading zeros.
    """
    yield _HEADER_LINE
    if not len(series):
        return
    weeks = np.frombuffer(
        "".join(f"{week.isoformat()}," for week in series.weeks).encode(),
        dtype=np.uint8,
    ).reshape(-1, _WEEK_FIELD)
    cities, city_start, city_len = _field_table(_csv_fields(series.cities))
    artists, artist_start, artist_len = _field_table(
        _csv_fields(series.artists))
    digits = len(str(int(series.listeners.max())))
    # Column offsets of the city, artist and count fields within a line.
    c0 = _WEEK_FIELD
    a0 = c0 + cities.shape[1] + 1
    d0 = a0 + artists.shape[1] + 1
    line = np.zeros(d0 + digits + 1, dtype=np.uint8)
    line[[a0 - 1, d0 - 1, -1]] = _COMMA, _COMMA, _NEWLINE
    # A count's digit is kept when the count reaches its place value; the
    # units digit always is.
    place = 10 ** np.arange(digits - 1, -1, -1, dtype=np.int64)
    place[-1] = 0
    step = max(1, _RENDER_BYTES // len(line))
    for begin in range(0, len(series), step):
        rows = slice(begin, begin + step)
        c, a = series.city_idx[rows], series.artist_idx[rows]
        counts = series.listeners[rows]
        matrix = np.empty((len(counts), len(line)), dtype=np.uint8)
        matrix[:] = line
        matrix[:, :c0] = weeks[series.week_idx[rows]]
        matrix[:, c0 : a0 - 1] = cities[city_start[c]]
        matrix[:, a0 : d0 - 1] = artists[artist_start[a]]
        rest = counts
        for col in range(len(line) - 2, d0 - 1, -1):
            rest, matrix[:, col] = np.divmod(rest, 10)
        matrix[:, d0:-1] += ord("0")
        keep = np.ones(matrix.shape, dtype=bool)
        for lo, hi, length, codes in ((c0, a0 - 1, city_len, c),
                                      (a0, d0 - 1, artist_len, a)):
            if length.min() < hi - lo:  # some window runs past its label
                np.less(np.arange(hi - lo), length[codes, None],
                        out=keep[:, lo:hi])
        np.greater_equal(counts[:, None], place, out=keep[:, d0:-1])
        yield matrix[keep].tobytes()


def _field_table(
    fields: list[str],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The fields' UTF-8 bytes as byte windows, with each field's window
    and its length in bytes.

    The fields are joined, followed by NUL bytes as many as the longest
    has, and window ``i`` is the run of that many bytes from byte ``i`` on:
    a read-only view, not a copy. Field ``f``'s window, ``starts[f]``,
    begins with its bytes; the rest are later fields' or padding. So the
    table holds the fields' total bytes, not every field padded to the
    longest.
    """
    encoded = [field.encode("utf-8") for field in fields]
    lengths = np.array([len(data) for data in encoded])
    width = int(lengths.max())
    joined = np.frombuffer(b"".join([*encoded, bytes(width)]), dtype=np.uint8)
    starts = np.cumsum(lengths) - lengths
    windows = np.lib.stride_tricks.sliding_window_view(joined, width)
    return windows, starts, lengths


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
        digest.update(chunk)
    return digest.hexdigest()


def write_chart_csv(series: ChartSeries, path: str | Path) -> str:
    """Write the canonical CSV; returns the hex SHA-256 of the bytes written.

    The digest equals ``fingerprint(series)``: both hash the same chunks,
    here in the one pass that writes them.
    """
    digest = hashlib.sha256()
    with open(path, "wb") as handle:
        for chunk in chart_csv_chunks(series):
            digest.update(chunk)
            handle.write(chunk)
    return digest.hexdigest()


def load_tags(path: str | Path) -> dict[str, set[str]]:
    """Read a tag CSV (header ``artist,tag``) into tag -> artist set."""
    tags: dict[str, set[str]] = {}
    for _, artist, tag in read_csv_pairs(path, TAG_HEADER):
        tags.setdefault(tag, set()).add(artist)
    return tags


def build_artist_index(series: ChartSeries) -> tuple[str, ...]:
    """The corpus's artists, sorted and distinct: column ``j`` of every
    weekly matrix is ``artists[j]``."""
    return series.artists
