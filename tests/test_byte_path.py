"""The numpy byte path of ``parse_chart_csv`` against the row-by-row oracle.

Plain input (the exact header, no quote, carriage return, NUL byte or
blank line, lines of three commas and a count of 1-9 ASCII digits) is coded
from its bytes and kept when it validates; any other input, and plain input
that fails validation, goes to the row loop. Each case checks which of the two
produced the outcome, with a spy on the loop, and that the outcome (digest
and labels, or error class and line) equals the oracle's. Input that the
byte path starts to code and then hands on (``REROUTED``) runs at every
block size, so the rewind is tried from each point it can happen. Block sizes far
below the default make lines straddle block boundaries.

Canonical input, the bytes ``write_chart_csv`` writes, carries the hash of
the bytes read as its digest, and ``fingerprint`` renders nothing. Each
``NEAR_CANONICAL`` case breaks one condition of that and must be rendered
again; every digest equals the oracle's.
"""

import csv
import hashlib
import io
import os
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartflow import (chart_store, fingerprint, generate_planted,
                       parse_chart_csv, write_chart_csv)
from chartflow.chart_store import CHART_HEADER, MAX_LISTENERS, ChartSeries
from chartflow.errors import ChartValueError, DuplicateKeyError, ParseError

from conftest import SMALL_PLANT, make_series
from parser_oracle import oracle_parse_file

HEADER = (",".join(CHART_HEADER) + "\n").encode()


def _outcome(parse, path):
    try:
        return ("ok", *parse(path))
    except Exception as exc:  # compared by class and line, never raised
        return ("error", type(exc), getattr(exc, "line", None))


def _summary(series):
    return fingerprint(series), series.weeks, series.cities, series.artists


def _columnar(path):
    return _summary(parse_chart_csv(path))


def _check(path, data: bytes, plain: bool, block_bytes: int | None = None):
    """Parse ``data`` both ways; return the outcome after checking the path."""
    path.write_bytes(data)
    spy = mock.patch.object(chart_store, "_parse_chart_rows",
                            wraps=chart_store._parse_chart_rows)
    blocks = mock.patch.object(chart_store, "_BLOCK_BYTES",
                               block_bytes or chart_store._BLOCK_BYTES)
    with spy as loop, blocks:
        outcome = _outcome(_columnar, path)
    assert loop.called != plain
    assert outcome == _outcome(oracle_parse_file, path)
    return outcome


def _rows(*lines: str) -> bytes:
    return HEADER + "".join(line + "\n" for line in lines).encode()


PLAIN = {
    "leading zeros": _rows("2007-01-07,a,x,007", "2007-01-07,a,y,0000",
                           "2007-01-07,b,x,000000001"),
    "nine digits": _rows("2007-01-07,a,x,999999999"),
    "non-ASCII labels": _rows("2007-01-07,Montréal,Björk,4",
                              "2007-01-07,東京,シュガー,5",
                              "2007-01-07,Montréal,シュガー,6"),
    "long labels": _rows("2007-01-07,new york city,arcade fire,4",
                         "2007-01-07,new york,arcade fire and friends,5",
                         "2007-01-07,ny,a,6"),
    "empty labels": _rows("2007-01-07,,,5", "2007-01-07,a,,6",
                          "2007-01-07,,x,7"),
    "two spellings": _rows("2007-01-07,a,x,1", "20070107,a,y,2",
                           "2007-01-14,a,x,3"),
    "no final newline": HEADER + b"2007-01-07,a,x,1\n2007-01-07,a,y,2",
    "header only": HEADER,
    "header only, no newline": HEADER[:-1],
    "one wide label": _rows("2007-01-07,a,x,1", "2007-01-07,a," + "y" * 3000
                            + ",2", *(f"2007-01-07,b,x{i},3" for i in range(9))),
}

# Input the byte path starts to code and then hands to the row loop: a
# blank line or a count of ten or more characters, whatever its value,
# stops the block coder, and columns that fail validation are read again so
# that the loop reports the error with its line.
REROUTED = {
    "ten digits": _rows("2007-01-07,a,x,1000000000"),
    "leading zeros, sixteen characters": _rows(
        "2007-01-07,a,x,007", "2007-01-07,b,x,0000000000000001"),
    "sixteen digits": _rows("2007-01-07,a,x,1234567890123456"),
    "below bound": _rows(f"2007-01-07,a,x,{MAX_LISTENERS - 1}"),
    "at bound": _rows(f"2007-01-07,a,x,{MAX_LISTENERS}"),
    "above bound": _rows("2007-01-07,a,w,3",
                         f"2007-01-07,a,x,{MAX_LISTENERS + 1}"),
    "two spellings, one key": _rows("2007-01-07,a,x,1", "20070107,a,x,2"),
    "blank lines": HEADER + b"\n\n2007-01-07,a,x,1\n\n\n2007-01-07,a,y,2\n\n",
    "duplicate after blank": _rows("2007-01-07,a,x,1", "", "2007-01-07,a,x,2"),
    "weekday anchor": _rows("2007-01-07,a,x,1", "2007-01-08,a,y,1"),
}

LOOP = {
    "quoted city over two lines": _rows('2007-01-07,"a\nb",x,1',
                                        "2007-01-07,a,x,zz"),
    "quoted field": _rows('2007-01-07,"a,b",x,1'),
    "quoted count": _rows('2007-01-07,a,x,"1"'),
    "CRLF": HEADER + b"2007-01-07,a,x,1\r\n2007-01-07,a,y,2\r\n",
    "CR in label": _rows("2007-01-07,a\r,x,1"),
    "NUL in label": _rows("2007-01-07,a\0,x,1"),
    "seventeen digits": _rows("2007-01-07,a,x,09007199254740992"),
    "seventeen digits, above bound": _rows("2007-01-07,a,x,10000000000000000"),
    "negative count": _rows("2007-01-07,a,x,-1"),
    "signed count": _rows("2007-01-07,a,x,+1"),
    "colon in count": _rows("2007-01-07,a,x,1:"),
    "slash in count": _rows("2007-01-07,a,x,/1"),
    "empty count": _rows("2007-01-07,a,x,"),
    "three fields": _rows("2007-01-07,a,x,1", "2007-01-07,a,2"),
    "five fields": _rows("2007-01-07,a,x,1,2"),
    "bad date": _rows("2007-01-07,a,x,1", "2007-13-07,a,y,2"),
    "not UTF-8": HEADER + b"2007-01-07,a,x,1\n2007-01-07,a,\xff,2\n",
    "bad header": b"week,city,artist,listeners\n2007-01-07,a,x,1\n",
    "BOM": b"\xef\xbb\xbf" + _rows("2007-01-07,a,x,1"),
    "empty file": b"",
    "oversized field": _rows("2007-01-07,a,x,1", "2007-01-07,a,"
                             + "y" * (csv.field_size_limit() + 1) + ",2"),
}


@pytest.mark.parametrize("block_bytes", [None, 5, 64])
@pytest.mark.parametrize("name", sorted({**PLAIN, **REROUTED}))
def test_plain_inputs_take_byte_path(tmp_path, name, block_bytes):
    """The byte path codes the input; it keeps the outcome only when plain.
    Its blocks start after the header, so a file of the header alone has
    none to code."""
    data = {**PLAIN, **REROUTED}[name]
    coder = mock.patch.object(chart_store, "_code_block",
                              wraps=chart_store._code_block)
    with coder as coded:
        _check(tmp_path / "corpus.csv", data, name in PLAIN, block_bytes)
    assert coded.called == (len(data) > len(HEADER))


@pytest.mark.parametrize("name", sorted(LOOP))
def test_other_inputs_take_row_loop(tmp_path, name):
    _check(tmp_path / "corpus.csv", LOOP[name], False)


# Corpora whose canonical CSV, as ``write_chart_csv`` writes it, is plain.
CANONICAL = {
    "small plant": lambda: generate_planted(SMALL_PLANT),
    "non-ASCII": lambda: make_series([
        (0, "Montréal", "Björk", 4), (0, "東京", "シュガー", 5),
        (0, "new york", "Sigur Rós", 6), (1, "Montréal", "シュガー", 7),
        (1, "東京", "Björk", 10), (2, "new york", "Björk", 1000),
    ]),
    "header only": lambda: make_series([]),
}

_BASE = ("2007-01-07,a,x,1", "2007-01-07,a,y,20", "2007-01-07,b,x,3",
         "2007-01-14,a,x,4")
# Each case breaks one condition of canonical bytes: the final newline, a
# count without leading zero, ISO week text, canonical row order. The zero
# count also starts with ``0``, and each plain label is its csv.writer
# rendering, so the two tests below break those conditions alone.
NEAR_CANONICAL = {
    "no final newline": _rows(*_BASE)[:-1],
    "leading zero": _rows(*_BASE).replace(b",20\n", b",020\n"),
    "compact week": _rows(*_BASE).replace(b"2007-01-14", b"20070114"),
    "rows out of order": _rows(_BASE[1], _BASE[0], *_BASE[2:]),
    "zero count": _rows(*_BASE[:2], "2007-01-07,a,z,0", *_BASE[2:]),
}


def _check_digest(path, data: bytes, canonical: bool, block_bytes):
    """``_check`` the byte path, spying on the render ``fingerprint`` falls
    back to: it must run exactly when the input is not canonical."""
    render = mock.patch.object(chart_store, "chart_csv_chunks",
                               wraps=chart_store.chart_csv_chunks)
    with render as rendered:
        outcome = _check(path, data, True, block_bytes)
    assert outcome[0] == "ok"
    assert rendered.called != canonical


@pytest.mark.parametrize("block_bytes", [None, 5, 64])
@pytest.mark.parametrize("name", sorted(CANONICAL))
def test_canonical_input_is_hashed_not_rendered(tmp_path, name, block_bytes):
    path = tmp_path / "corpus.csv"
    digest = write_chart_csv(CANONICAL[name](), path)
    _check_digest(path, path.read_bytes(), True, block_bytes)
    assert parse_chart_csv(path).digest == digest


def test_base_case_is_canonical(tmp_path):
    _check_digest(tmp_path / "corpus.csv", _rows(*_BASE), True, None)


@pytest.mark.parametrize("block_bytes", [None, 5, 64])
@pytest.mark.parametrize("name", sorted(NEAR_CANONICAL))
def test_near_canonical_input_is_rendered(tmp_path, name, block_bytes):
    _check_digest(tmp_path / "corpus.csv", NEAR_CANONICAL[name], False,
                  block_bytes)


@pytest.mark.parametrize("codes, counts, kept", [
    ([0, 1, 2], [1, 2, 3], True),
    ([0, 2, 1], [1, 2, 3], False),  # rows out of order
    ([0, 1, 2], [1, 0, 3], False),  # a zero-count row is dropped
])
def test_from_columns_keeps_digest_only_for_canonical_rows(codes, counts,
                                                          kept):
    """A zero count always starts with ``0``, so no file breaks the
    zero-count condition alone; ``from_columns`` checks it all the same."""
    series = ChartSeries.from_columns(
        (date(2007, 1, 7),), ("a",), ("x", "y", "z"), [0, 0, 0], [0, 0, 0],
        codes, counts, digest="d",
    )
    assert (series.digest == "d") == kept


def test_label_rendering_is_checked(tmp_path):
    """No plain label is quoted by this csv.writer, so no file breaks the
    label check alone; a renderer that quotes every label must."""
    path = tmp_path / "corpus.csv"
    path.write_bytes(_rows(*_BASE))
    quoted = mock.patch.object(chart_store, "_csv_fields",
                               lambda labels: [f'"{x}"' for x in labels])
    with quoted:
        series = parse_chart_csv(path)
        rendered = b"".join(chart_store.chart_csv_chunks(series))
        assert series.digest is None
        assert fingerprint(series) == hashlib.sha256(rendered).hexdigest()


def test_outcomes_pinned(tmp_path):
    """A few of the cases above, with the outcome spelled out."""
    path = tmp_path / "corpus.csv"
    ok = _check(path, PLAIN["two spellings"], True)
    assert ok[0] == "ok" and ok[2] == (date(2007, 1, 7), date(2007, 1, 14))
    assert _check(path, REROUTED["above bound"], False)[1:] == (
        ChartValueError, 3
    )
    assert _check(path, REROUTED["duplicate after blank"], False)[1:] == (
        DuplicateKeyError, 4
    )
    assert _check(path, LOOP["quoted city over two lines"], False)[1:] == (
        ParseError, 4
    )
    assert _check(path, LOOP["oversized field"], False)[1:] == (ParseError, 3)


def test_file_larger_than_one_block(tmp_path):
    w0 = date(2007, 1, 7)
    lines = []
    for k in range(12):
        for city in ("montréal", "toronto", "new york city"):
            lines += [f"{w0 + timedelta(days=7 * k)},{city},artist {i:04d},"
                      f"{(i * 7919 + k) % 100000}" for i in range(1200)]
    data = _rows(*lines)
    assert len(data) > chart_store._BLOCK_BYTES
    outcome = _check(tmp_path / "corpus.csv", data, True)
    assert outcome[0] == "ok" and len(outcome[3]) == 3


class _Rewritten(io.BytesIO):
    """A seekable handle holding ``before`` until its first rewind, and
    ``after`` from then on: a file written again while it is read."""

    def __init__(self, before: bytes, after: bytes):
        super().__init__(before)
        self.after = after

    def seek(self, pos, whence=io.SEEK_SET):
        if self.after is not None:
            super().seek(0)
            self.truncate()
            self.write(self.after)
            self.after = None
        return super().seek(pos, whence)


_BEFORE = _rows("2007-01-07,a,x,1", "2007-01-07,a,y,2", "2007-01-07,b,x,3")
# The bytes the first pass counts, and the bytes the second pass codes. The
# last two keep the row count, so the byte path codes the new bytes itself.
CHANGED = {
    "rows added": (_BEFORE, _BEFORE + b"2007-01-14,a,x,4\n"),
    "rows removed": (_BEFORE, _rows("2007-01-07,a,x,1")),
    "from empty": (b"", _BEFORE),
    "to header only": (_BEFORE, HEADER),
    "header changed": (_BEFORE, _BEFORE.replace(b"listeners", b"listenerz")),
    "to a bad count": (_BEFORE, _rows("2007-01-07,a,x,1",
                                      "2007-01-07,a,y,zz")),
    "final newline dropped": (_BEFORE, _BEFORE[:-1]),
    "same row count": (_BEFORE, _rows("2007-01-07,c,x,1", "2007-01-07,c,y,2",
                                      "2007-01-07,d,x,3")),
}


@pytest.mark.parametrize("block_bytes", [None, 5])
@pytest.mark.parametrize("name", sorted(CHANGED))
def test_bytes_changed_between_the_passes(tmp_path, name, block_bytes):
    """The first pass only sizes the columns: when the second pass codes
    another number of rows, the row loop parses the bytes as they now are,
    so the outcome is the oracle's on those bytes, never wrong columns."""
    before, after = CHANGED[name]
    path = tmp_path / "corpus.csv"
    path.write_bytes(after)
    spy = mock.patch.object(chart_store, "_parse_chart_rows",
                            wraps=chart_store._parse_chart_rows)
    blocks = mock.patch.object(chart_store, "_BLOCK_BYTES",
                               block_bytes or chart_store._BLOCK_BYTES)

    def parse(_):
        handle = _Rewritten(before, after)
        return _summary(chart_store._parse_chart_binary(handle))

    with spy as loop, blocks:
        outcome = _outcome(parse, path)
    assert loop.called == (name not in ("final newline dropped",
                                        "same row count"))
    assert outcome == _outcome(oracle_parse_file, path)


@pytest.mark.parametrize("data, rows", [
    (b"", 0),
    (HEADER, 0),
    (HEADER[:-1], 0),
    (_BEFORE, 3),
    (_BEFORE[:-1], 3),
    (HEADER + b"\n\n", 2),
    (HEADER + b"x", 1),
])
def test_count_rows(data, rows):
    """The lines after the header, which the parse has already read (all
    of a shorter input)."""
    handle = io.BytesIO(data)
    handle.read(len(HEADER))
    with mock.patch.object(chart_store, "_BLOCK_BYTES", 7):
        assert chart_store._count_rows(handle) == rows
    assert handle.tell() == 0


@pytest.mark.parametrize("data", [
    b"",
    HEADER[:-2],
    HEADER[:-1] + b",\n",
    HEADER.replace(b"city", b"town") + _BEFORE[len(HEADER):],
    bytes(range(256)) * 64,
])
def test_input_without_the_header_is_not_counted(tmp_path, data):
    """Input that does not start with the header line is not counted: only
    the row loop reads it."""
    path = tmp_path / "corpus.csv"
    path.write_bytes(data)
    count = mock.patch.object(chart_store, "_count_rows",
                              wraps=chart_store._count_rows)
    with count as counted:
        outcome = _outcome(_columnar, path)
    assert not counted.called
    assert outcome == _outcome(oracle_parse_file, path)


_LABELS = st.text(alphabet="ab é東", max_size=12)
_SPELLINGS = [lambda d: d.isoformat(), lambda d: d.strftime("%Y%m%d")]


@st.composite
def plain_corpora(draw):
    lines = []
    # Plain counts have at most 9 digits; one example in four allows 16.
    widest = 16 if draw(st.integers(0, 3)) == 0 else 9
    for _ in range(draw(st.integers(0, 30))):
        day = date(2007, 1, 7) + timedelta(days=7 * draw(st.integers(0, 3)))
        count = draw(st.one_of(
            st.integers(0, 10**6),
            st.integers(MAX_LISTENERS - 2, 10**16 - 1),
        ))
        digits = str(count).zfill(draw(st.integers(1, widest)))[-widest:]
        lines.append(f"{draw(st.sampled_from(_SPELLINGS))(day)},"
                     f"{draw(_LABELS)},{draw(_LABELS)},{digits}")
    if draw(st.integers(0, 9)) == 0:  # a blank line sends the file to the loop
        lines.insert(draw(st.integers(0, len(lines))), "")
    data = _rows(*lines)
    if draw(st.booleans()) and data.endswith(b"\n"):
        data = data[:-1]
    return data, draw(st.sampled_from([None, 3, 17, 40]))


@given(plain_corpora())
@settings(max_examples=200, deadline=None)
def test_plain_corpora_match_oracle(tmp_path_factory, case):
    data, block_bytes = case
    path = tmp_path_factory.mktemp("plain") / "corpus.csv"
    path.write_bytes(data)
    accepted = _outcome(oracle_parse_file, path)[0] == "ok"
    short_counts = all(len(line.rpartition(b",")[2]) <= 9
                       for line in data.split(b"\n")[1:])
    _check(path, data, accepted and short_counts and b"\n\n" not in data,
           block_bytes)


@pytest.mark.skipif(not Path("/dev/fd").is_dir(), reason="needs /dev/fd")
@pytest.mark.parametrize("name", ["two spellings", "quoted field"])
def test_pipe(tmp_path, name):
    """A pipe cannot rewind, so it is read whole before either path runs."""
    data = {**PLAIN, **LOOP}[name]
    read, write = os.pipe()
    with os.fdopen(write, "wb") as sink:
        sink.write(data)
    try:
        outcome = _outcome(_columnar, f"/dev/fd/{read}")
    finally:
        os.close(read)
    path = tmp_path / "corpus.csv"
    path.write_bytes(data)
    assert outcome == _outcome(oracle_parse_file, path)


def _row_loop(path):
    """The row loop's series of the file at ``path``."""
    with open(path, "rb") as handle:
        text = io.TextIOWrapper(handle, encoding="utf-8", newline="")
        rows = chart_store._csv_rows(text, CHART_HEADER)
        return chart_store._parse_chart_rows(rows)


def _both_paths(path, block_bytes=None):
    """The byte path's series of the file at ``path`` and the row loop's,
    checked equal and at equal widths."""
    spy = mock.patch.object(chart_store, "_parse_chart_rows",
                            wraps=chart_store._parse_chart_rows)
    blocks = mock.patch.object(chart_store, "_BLOCK_BYTES",
                               block_bytes or chart_store._BLOCK_BYTES)
    with spy as loop, blocks:
        series = parse_chart_csv(path)
    assert not loop.called
    again = _row_loop(path)
    assert series == again
    columns = ("week_idx", "city_idx", "artist_idx", "listeners")
    assert ([getattr(series, name).dtype for name in columns]
            == [getattr(again, name).dtype for name in columns])
    return series


@pytest.mark.parametrize("name", sorted(PLAIN))
def test_both_paths_store_equal_columns(tmp_path, name):
    path = tmp_path / "corpus.csv"
    path.write_bytes(PLAIN[name])
    series = _both_paths(path)
    assert series.artist_idx.dtype == np.int16


@pytest.mark.parametrize("count, dtype", [
    (2**31 - 1, np.int32), (2**31, np.int64), (MAX_LISTENERS, np.int64),
])
def test_count_width(tmp_path, count, dtype):
    """A count of ten or more digits goes to the row loop, which stores the
    counts at the narrowest width that holds them."""
    path = tmp_path / "corpus.csv"
    _check(path, _rows("2007-01-07,a,x,1", f"2007-01-07,a,y,{count}"), False)
    assert parse_chart_csv(path).listeners.dtype == dtype


@pytest.mark.parametrize("artists, last_count, widened, dtype", [
    (32_768, 5, "artist_idx", np.int32),
])
def test_later_block_widens_a_column(tmp_path, artists, last_count, widened,
                                     dtype):
    """The 32,768th artist comes only in the last of many blocks: the
    column is widened then, and the rows coded before it keep their
    values."""
    lines = [f"2007-01-07,c,a{i:05d},{i % 7 + 1}" for i in range(artists)]
    lines[-1] = f"2007-01-07,c,a{artists - 1:05d},{last_count}"
    path = tmp_path / "corpus.csv"
    path.write_bytes(_rows(*lines))
    series = _both_paths(path, block_bytes=1024)
    assert getattr(series, widened).dtype == dtype
    assert series.listeners[:-1].tolist() == [i % 7 + 1
                                              for i in range(artists - 1)]
    assert series.listeners[-1] == last_count
    assert fingerprint(series) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_labels_first_seen_out_of_order_are_ranked_in_place(tmp_path):
    """An artist that sorts first comes only in the last of many blocks:
    the byte path renumbers its column in place, so ``from_columns`` keeps
    every column instead of ranking one into a copy."""
    lines = [f"2007-01-07,c,b{i:03d},{i + 1}" for i in range(200)]
    path = tmp_path / "corpus.csv"
    path.write_bytes(_rows(*lines, "2007-01-14,c,a000,7"))
    kept = []
    ranked = chart_store._ranked

    def spy(rank, codes):
        out = ranked(rank, codes)
        kept.append(out is codes)
        return out

    with mock.patch.object(chart_store, "_ranked", spy):
        series = _both_paths(path, block_bytes=1024)
    assert kept[:3] == [True, True, True]
    assert series.artists[0] == "a000"
    assert series.artist_idx[-1] == 0 and series.artist_idx[0] == 1
