"""The numpy byte path of ``parse_chart_csv`` against the row-by-row oracle.

Plain input (the exact header, no quote, carriage return, NUL byte or
blank line, lines of three commas and a 1-16 digit count) is coded from its
bytes and kept when it validates; any other input, and plain input that
fails validation, goes to the row loop. Each case checks which of the two
produced the outcome, with a spy on the loop, and that the outcome (digest
and labels, or error class and line) equals the oracle's. Input that the
byte path starts to code and then hands on (``REROUTED``) runs at every
block size, so the rewind is tried from each point it can happen. Block sizes far
below the default make lines straddle block boundaries.
"""

import csv
import os
from datetime import date, timedelta
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartflow import chart_store, parse_chart_csv
from chartflow.chart_store import CHART_HEADER, MAX_LISTENERS
from chartflow.errors import ChartValueError, DuplicateKeyError, ParseError
from chartflow.synth import fingerprint

from parser_oracle import oracle_parse_file

HEADER = (",".join(CHART_HEADER) + "\n").encode()


def _outcome(parse, path):
    try:
        return ("ok", *parse(path))
    except Exception as exc:  # compared by class and line, never raised
        return ("error", type(exc), getattr(exc, "line", None))


def _columnar(path):
    series = parse_chart_csv(path)
    return fingerprint(series), series.weeks, series.cities, series.artists


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
                           "2007-01-07,b,x,0000000000000001"),
    "sixteen digits": _rows("2007-01-07,a,x,1234567890123456"),
    "below bound": _rows(f"2007-01-07,a,x,{MAX_LISTENERS - 1}"),
    "at bound": _rows(f"2007-01-07,a,x,{MAX_LISTENERS}"),
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
# blank line stops the block coder, and columns that fail validation are
# read again so that the loop reports the error with its line.
REROUTED = {
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
    """The byte path codes the input; it keeps the outcome only when plain."""
    coder = mock.patch.object(chart_store, "_code_block",
                              wraps=chart_store._code_block)
    with coder as coded:
        _check(tmp_path / "corpus.csv", {**PLAIN, **REROUTED}[name],
               name in PLAIN, block_bytes)
    assert coded.called


@pytest.mark.parametrize("name", sorted(LOOP))
def test_other_inputs_take_row_loop(tmp_path, name):
    _check(tmp_path / "corpus.csv", LOOP[name], False)


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


_LABELS = st.text(alphabet="ab é東", max_size=12)
_SPELLINGS = [lambda d: d.isoformat(), lambda d: d.strftime("%Y%m%d")]


@st.composite
def plain_corpora(draw):
    lines = []
    for _ in range(draw(st.integers(0, 30))):
        if draw(st.integers(0, 5)) == 0:
            lines.append("")
            continue
        day = date(2007, 1, 7) + timedelta(days=7 * draw(st.integers(0, 3)))
        count = draw(st.one_of(
            st.integers(0, 10**6),
            st.integers(MAX_LISTENERS - 2, 10**16 - 1),
        ))
        digits = str(count).zfill(draw(st.integers(1, 16)))[-16:]
        lines.append(f"{draw(st.sampled_from(_SPELLINGS))(day)},"
                     f"{draw(_LABELS)},{draw(_LABELS)},{digits}")
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
    _check(path, data, accepted and b"\n\n" not in data, block_bytes)


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
