"""Differential test: the columnar parser against the row-by-row oracle.

Small canonical corpora are mutated at the byte level (lines swapped,
repeated, dropped or altered; quote, carriage-return, non-UTF-8 and
underscore bytes inserted). For every input both parsers must fail with
the same error class on the same line, or agree on the digest and on the
week, city and artist labels.
"""

import tempfile
from datetime import date, timedelta
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from chartflow import fingerprint
from chartflow.chart_store import CHART_HEADER, MAX_LISTENERS, parse_chart_csv

from parser_oracle import oracle_parse_file

W0 = date(2007, 1, 7)
# Three weeks on one weekday and one a day later.
_WEEKS = [W0, W0 + timedelta(days=7), W0 + timedelta(days=14),
          W0 + timedelta(days=8)]
_COUNTS = st.one_of(
    st.integers(0, 60),
    st.sampled_from([-1, MAX_LISTENERS, MAX_LISTENERS + 1, 10**20]),
)
_INSERTS = [b'"', b"\r", b"\xff", b"_", b",", b"-", b" ", b"\n", b"0"]


def _render(rows) -> bytes:
    lines = [",".join(CHART_HEADER)]
    for week, city, artist, count in rows:
        lines.append(f"{week.isoformat()},{city},{artist},{count}")
    return ("\n".join(lines) + "\n").encode()


@st.composite
def mutated_corpora(draw):
    keys = draw(st.lists(
        st.tuples(
            st.sampled_from(_WEEKS),
            st.sampled_from(["a", "b"]),
            st.sampled_from(["x", "y", "z"]),
        ),
        unique=True,
        max_size=8,
    ))
    rows = sorted((*key, draw(_COUNTS)) for key in keys)
    lines = _render(rows).split(b"\n")[:-1]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(
            ["swap", "repeat", "drop", "alter", "insert"]
        ))
        i = draw(st.integers(0, len(lines) - 1)) if lines else 0
        if op == "swap" and len(lines) > 1:
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "repeat" and lines:
            lines.insert(draw(st.integers(0, len(lines))), lines[i])
        elif op == "drop" and lines:
            del lines[i]
        elif op == "alter" and lines:
            week, city, artist = draw(st.tuples(
                st.sampled_from(_WEEKS),
                st.sampled_from(["a", "c"]),
                st.sampled_from(["x", "w"]),
            ))
            lines[i] = _render([(week, city, artist, draw(_COUNTS))])[
                len(",".join(CHART_HEADER)) + 1 : -1
            ]
        elif op == "insert" and lines:
            pos = draw(st.integers(0, len(lines[i])))
            byte = draw(st.sampled_from(_INSERTS))
            lines[i] = lines[i][:pos] + byte + lines[i][pos:]
    return b"\n".join(lines) + b"\n"


def _outcome(parse, path):
    try:
        return ("ok", *parse(path))
    except Exception as exc:  # compared by class and line, never raised
        return ("error", type(exc), getattr(exc, "line", None))


def _columnar(path):
    series = parse_chart_csv(path)
    return fingerprint(series), series.weeks, series.cities, series.artists


@given(mutated_corpora())
@settings(max_examples=250, deadline=None)
def test_parser_matches_oracle(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.csv"
        path.write_bytes(data)
        assert _outcome(_columnar, path) == _outcome(oracle_parse_file, path)
