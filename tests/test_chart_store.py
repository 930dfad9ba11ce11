"""Corpus ingestion: parsing, indexing, filtering, round trips."""

import tempfile
from datetime import date
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartflow import (
    ChartSeries,
    build_artist_index,
    filter_by_tag,
    load_tags,
    parse_chart_csv,
    write_chart_csv,
)
from chartflow.chart_store import MAX_LISTENERS, chart_csv_chunks
from chartflow.errors import ChartValueError, DuplicateKeyError, ParseError

from conftest import make_series, series_from_rows, week

HEADER = "week_start,city,artist,listeners\n"


def parse_text(text, region_label=""):
    """``parse_chart_csv`` of a file holding the UTF-8 bytes of ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.csv"
        path.write_bytes(text.encode("utf-8"))
        return parse_chart_csv(path, region_label)


def csv_text(series):
    """The canonical CSV of ``series``, as one string."""
    return "".join(chart_csv_chunks(series))


class TestParse:
    def test_two_rows(self):
        text = HEADER + (
            "2007-01-07,montreal,arcade fire,320\n"
            "2007-01-07,toronto,arcade fire,210\n"
        )
        series = parse_text(text)
        assert len(series.records) == 2
        assert series.weeks == (date(2007, 1, 7),)
        assert series.cities == ("montreal", "toronto")

    def test_header_only(self):
        series = parse_text(HEADER)
        assert series.records == ()
        assert series.weeks == ()
        assert series.cities == ()

    def test_negative_listeners(self):
        text = HEADER + "2007-01-07,montreal,x,-3\n"
        with pytest.raises(ChartValueError) as err:
            parse_text(text)
        assert err.value.line == 2

    def test_listener_bound(self):
        at_bound = HEADER + f"2007-01-07,montreal,x,{MAX_LISTENERS}\n"
        assert parse_text(at_bound).records[0].listeners == 2**53
        text = HEADER + f"2007-01-07,montreal,x,{MAX_LISTENERS + 1}\n"
        with pytest.raises(ChartValueError) as err:
            parse_text(text)
        assert err.value.line == 2

    def test_non_utf8_byte_names_line(self, tmp_path):
        path = tmp_path / "corpus.csv"
        path.write_bytes(
            HEADER.encode() + b"2007-01-07,a,x,1\n2007-01-07,a,\xff,2\n"
        )
        with pytest.raises(ParseError) as err:
            parse_chart_csv(path)
        assert err.value.line == 3

    def test_zero_listeners_dropped(self):
        text = HEADER + (
            "2007-01-07,montreal,x,0\n2007-01-07,montreal,y,5\n"
        )
        series = parse_text(text)
        assert [r.artist for r in series.records] == ["y"]

    def test_duplicate_key(self):
        text = HEADER + (
            "2007-01-07,montreal,x,1\n2007-01-07,montreal,x,2\n"
        )
        with pytest.raises(DuplicateKeyError) as err:
            parse_text(text)
        assert err.value.line == 3

    def test_bad_date(self):
        with pytest.raises(ParseError) as err:
            parse_text(HEADER + "not-a-date,a,b,1\n")
        assert err.value.line == 2

    def test_bad_count(self):
        # Counts are an optional minus sign and ASCII digits, nothing else.
        for raw in ("many", "1_000", " 5", "5 ", "+5", "\u0665", "\uff15",
                    "1.0", "", "-", "0x10"):
            text = HEADER + "2007-01-07,a,a,1\n" + f'2007-01-07,a,b,"{raw}"\n'
            with pytest.raises(ParseError, match="bad listener count") as err:
                parse_text(text)
            assert err.value.line == 3, raw
        with pytest.raises(ChartValueError, match="negative") as err:
            parse_text(HEADER + "2007-01-07,a,b,-5\n")
        assert err.value.line == 2

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as err:
            parse_text(HEADER + "2007-01-07,a,b\n")
        assert err.value.line == 2

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_text("week,city,artist,count\n")
        assert err.value.line == 1

    def test_weekday_anchor(self):
        # 2007-01-08 is a Monday; the anchor week is a Sunday.
        text = HEADER + (
            "2007-01-07,a,x,1\n2007-01-08,a,y,1\n"
        )
        with pytest.raises(ParseError) as err:
            parse_text(text)
        assert err.value.line == 3

    def test_file_roundtrip(self, tmp_path):
        series = make_series(
            [(0, "montreal", "a", 10), (1, "toronto", "b", 20)]
        )
        path = tmp_path / "corpus.csv"
        write_chart_csv(series, path)
        again = parse_chart_csv(path, region_label="test")
        assert again == series


    def test_earlier_line_wins_over_later_syntax_error(self):
        text = HEADER + (
            "2007-01-07,a,x,1\n2007-01-07,a,x,2\n2007-01-07,a,y,lots\n"
        )
        with pytest.raises(DuplicateKeyError) as err:
            parse_text(text)
        assert err.value.line == 3

    def test_weeks_keyed_by_date(self):
        # Both spellings are ISO 8601 for the same day: one week, one key.
        text = HEADER + "2007-01-07,a,x,1\n20070107,a,y,2\n"
        series = parse_text(text)
        assert series.weeks == (date(2007, 1, 7),)
        with pytest.raises(DuplicateKeyError):
            parse_text(HEADER + "2007-01-07,a,x,1\n20070107,a,x,2\n")

    def test_zero_row_labels_dropped(self):
        text = HEADER + "2007-01-14,b,x,0\n2007-01-07,a,y,5\n"
        series = parse_text(text)
        assert series.weeks == (date(2007, 1, 7),)
        assert series.cities == ("a",) and series.artists == ("y",)


class TestFromColumns:
    def test_canonical_order_and_labels(self):
        series = ChartSeries.from_columns(
            (week(1), week(0)), ("z", "a"), ("q", "p", "unused"),
            [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 1, 0], [4, 3, 2, 1],
        )
        assert series.weeks == (week(0), week(1))
        assert series.cities == ("a", "z")
        assert series.artists == ("p", "q")
        assert [(r.week_start, r.city, r.artist, r.listeners)
                for r in series.records] == [
            (week(0), "a", "p", 2),
            (week(0), "z", "q", 3),
            (week(1), "a", "q", 1),
            (week(1), "z", "p", 4),
        ]
        assert series.week_idx.dtype == np.int32
        assert series.listeners.dtype == np.int64

    def test_first_invalid_row_in_input_order(self):
        # Row 1 repeats row 0's key; row 2 is negative: the repeat is first.
        with pytest.raises(DuplicateKeyError) as err:
            ChartSeries.from_columns(
                (week(0),), ("c",), ("a", "b"),
                [0, 0, 0], [0, 0, 0], [0, 0, 1], [1, 2, -1], lines=[5, 6, 7],
            )
        assert err.value.line == 6

    def test_rejects_above_bound(self):
        with pytest.raises(ChartValueError):
            ChartSeries.from_columns(
                (week(0),), ("c",), ("a",), [0], [0], [0], [MAX_LISTENERS + 1]
            )

    def test_rejects_duplicates(self):
        with pytest.raises(DuplicateKeyError):
            ChartSeries.from_columns(
                (week(0),), ("c",), ("a",), [0, 0], [0, 0], [0, 0], [1, 2]
            )

    def test_rejects_repeated_labels(self):
        with pytest.raises(ValueError):
            ChartSeries.from_columns(
                (week(0),), ("c", "c"), ("a",), [0], [0], [0], [1]
            )

    def test_keeps_canonical_int32_columns(self):
        codes = [np.array(col, dtype=np.int32)
                 for col in ([0, 0, 1], [0, 1, 1], [1, 0, 0])]
        listeners = np.array([3, 2, 1], dtype=np.int64)
        series = ChartSeries.from_columns(
            (week(0), week(1)), ("a", "b"), ("p", "q"), *codes, listeners
        )
        kept = (series.week_idx, series.city_idx, series.artist_idx,
                series.listeners)
        for column, given in zip(kept, [*codes, listeners]):
            assert np.shares_memory(column, given)
            assert np.array_equal(column, given)

    def test_int32_codes_of_unsorted_labels_are_ranked(self):
        cities = np.array([0, 1], dtype=np.int32)
        series = ChartSeries.from_columns(
            (week(0),), ("z", "a"), ("p",), np.zeros(2, np.int32), cities,
            np.zeros(2, np.int32), [1, 2],
        )
        assert series.cities == ("a", "z")
        assert series.city_idx.tolist() == [0, 1]
        assert series.listeners.tolist() == [2, 1]
        assert series.city_idx.dtype == np.int32
        assert not np.shares_memory(series.city_idx, cities)

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_out_of_range_codes_raise(self, dtype):
        with pytest.raises(IndexError):
            ChartSeries.from_columns(
                (week(0),), ("c",), ("a", "b"), np.zeros(2, dtype),
                np.zeros(2, dtype), np.array([0, 2], dtype), [1, 1],
            )

    def test_equality_reads_columns(self):
        base = make_series([(0, "c", "a", 1), (0, "c", "b", 2)])
        assert base == make_series([(0, "c", "b", 2), (0, "c", "a", 1)])
        assert base != make_series([(0, "c", "a", 1), (0, "c", "b", 3)])
        assert base != make_series([(0, "c", "a", 1), (0, "c", "b", 2)], "x")


class TestArtistIndex:
    def test_lexicographic(self):
        series = make_series(
            [(0, "c", "b", 1), (0, "c", "a", 1), (0, "c", "c", 1)]
        )
        index = build_artist_index(series)
        assert index.artists == ("a", "b", "c")

    def test_empty(self):
        assert build_artist_index(make_series([])).size == 0

    def test_distinctness(self):
        rows = [(k, "c", "solo", 5) for k in range(40)]
        index = build_artist_index(make_series(rows))
        assert index.size == 1

    def test_deterministic_rebuild(self):
        series = make_series([(0, "c", a, 1) for a in "zyxw"])
        assert build_artist_index(series) == build_artist_index(series)


class TestFilterByTag:
    def test_identity(self):
        series = make_series([(0, "c", "x", 1), (1, "c", "y", 2)])
        assert filter_by_tag(series, {"x", "y"}) == series

    def test_disjoint(self):
        series = make_series([(0, "c", "x", 1)])
        out = filter_by_tag(series, {"nope"})
        assert out.records == () and out.weeks == () and out.cities == ()

    def test_subset(self):
        series = make_series([(0, "c", "x", 1), (0, "c", "y", 2)])
        out = filter_by_tag(series, {"x"})
        assert [r.artist for r in out.records] == ["x"]

    def test_weeks_recomputed(self):
        series = make_series([(0, "c", "x", 1), (3, "d", "y", 2)])
        out = filter_by_tag(series, {"x"})
        assert out.weeks == (week(0),) and out.cities == ("c",)


def test_load_tags(tmp_path):
    path = tmp_path / "tags.csv"
    path.write_text("artist,tag\nx,indie\ny,indie\nx,rock\n", encoding="utf-8")
    tags = load_tags(path)
    assert tags == {"indie": {"x", "y"}, "rock": {"x"}}


def test_load_tags_bad_header(tmp_path):
    path = tmp_path / "tags.csv"
    path.write_text("a,b\n", encoding="utf-8")
    with pytest.raises(ParseError):
        load_tags(path)


def test_load_tags_non_utf8_names_line(tmp_path):
    path = tmp_path / "tags.csv"
    path.write_bytes(b"artist,tag\nx,indie\n\xfe,rock\n")
    with pytest.raises(ParseError) as err:
        load_tags(path)
    assert err.value.line == 3


# Names deliberately include CSV-hostile characters (commas, quotes,
# whitespace) to exercise RFC 4180 quoting on the round trip.
_names = st.text(
    alphabet='abc ,"\'-_0159', min_size=1, max_size=10
).filter(lambda s: s.strip() == s and s)


@st.composite
def corpora(draw):
    n = draw(st.integers(min_value=0, max_value=25))
    entries = draw(
        st.dictionaries(
            st.tuples(st.integers(0, 5), _names, _names),
            st.integers(min_value=1, max_value=10**6),
            min_size=n,
            max_size=n,
        )
    )
    rows = [
        (week(k), city, artist, count)
        for (k, city, artist), count in entries.items()
    ]
    return series_from_rows(rows, "prop")


@given(corpora())
@settings(max_examples=60, deadline=None)
def test_csv_roundtrip_property(series):
    again = parse_text(csv_text(series), region_label="prop")
    assert again == series


@given(corpora(), st.sets(_names, max_size=6))
@settings(max_examples=60, deadline=None)
def test_filter_idempotent_and_monotone(series, tag_set):
    once = filter_by_tag(series, tag_set)
    assert filter_by_tag(once, tag_set) == once
    assert build_artist_index(once).size <= build_artist_index(series).size
