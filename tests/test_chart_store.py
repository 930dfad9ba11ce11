"""Corpus ingestion: parsing, indexing, filtering, round trips."""

from datetime import date

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartflow import (
    ChartRecord,
    ChartSeries,
    build_artist_index,
    chart_csv_text,
    filter_by_tag,
    load_tags,
    parse_chart_csv,
    parse_chart_csv_text,
    write_chart_csv,
)
from chartflow.chart_store import MAX_LISTENERS
from chartflow.errors import (
    ChartFlowError,
    ChartValueError,
    DuplicateKeyError,
    IndexingError,
    ParseError,
)

from conftest import make_series, week

HEADER = "week_start,city,artist,listeners\n"


class TestParse:
    def test_two_rows(self):
        text = HEADER + (
            "2007-01-07,montreal,arcade fire,320\n"
            "2007-01-07,toronto,arcade fire,210\n"
        )
        series = parse_chart_csv_text(text)
        assert len(series.records) == 2
        assert series.weeks == (date(2007, 1, 7),)
        assert series.cities == ("montreal", "toronto")

    def test_header_only(self):
        series = parse_chart_csv_text(HEADER)
        assert series.records == ()
        assert series.weeks == ()
        assert series.cities == ()

    def test_negative_listeners(self):
        text = HEADER + "2007-01-07,montreal,x,-3\n"
        with pytest.raises(ChartValueError) as err:
            parse_chart_csv_text(text)
        assert err.value.line == 2

    def test_listener_bound(self):
        at_bound = HEADER + f"2007-01-07,montreal,x,{MAX_LISTENERS}\n"
        assert parse_chart_csv_text(at_bound).records[0].listeners == 2**53
        text = HEADER + f"2007-01-07,montreal,x,{MAX_LISTENERS + 1}\n"
        with pytest.raises(ChartValueError) as err:
            parse_chart_csv_text(text)
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
        series = parse_chart_csv_text(text)
        assert [r.artist for r in series.records] == ["y"]

    def test_duplicate_key(self):
        text = HEADER + (
            "2007-01-07,montreal,x,1\n2007-01-07,montreal,x,2\n"
        )
        with pytest.raises(DuplicateKeyError) as err:
            parse_chart_csv_text(text)
        assert err.value.line == 3

    def test_bad_date(self):
        with pytest.raises(ParseError) as err:
            parse_chart_csv_text(HEADER + "not-a-date,a,b,1\n")
        assert err.value.line == 2

    def test_bad_count(self):
        with pytest.raises(ParseError) as err:
            parse_chart_csv_text(HEADER + "2007-01-07,a,b,many\n")
        assert err.value.line == 2

    def test_wrong_field_count(self):
        with pytest.raises(ParseError) as err:
            parse_chart_csv_text(HEADER + "2007-01-07,a,b\n")
        assert err.value.line == 2

    def test_bad_header(self):
        with pytest.raises(ParseError) as err:
            parse_chart_csv_text("week,city,artist,count\n")
        assert err.value.line == 1

    def test_weekday_anchor(self):
        # 2007-01-08 is a Monday; the anchor week is a Sunday.
        text = HEADER + (
            "2007-01-07,a,x,1\n2007-01-08,a,y,1\n"
        )
        with pytest.raises(ParseError) as err:
            parse_chart_csv_text(text)
        assert err.value.line == 3

    def test_file_roundtrip(self, tmp_path):
        series = make_series(
            [(0, "montreal", "a", 10), (1, "toronto", "b", 20)]
        )
        path = tmp_path / "corpus.csv"
        write_chart_csv(series, path)
        again = parse_chart_csv(path, region_label="test")
        assert again == series


class TestArtistIndex:
    def test_lexicographic(self):
        series = make_series(
            [(0, "c", "b", 1), (0, "c", "a", 1), (0, "c", "c", 1)]
        )
        index = build_artist_index(series)
        assert index.artists == ("a", "b", "c")
        assert [index.column_of(a) for a in "abc"] == [0, 1, 2]

    def test_empty(self):
        assert build_artist_index(make_series([])).size == 0

    def test_distinctness(self):
        rows = [(k, "c", "solo", 5) for k in range(40)]
        index = build_artist_index(make_series(rows))
        assert index.size == 1

    def test_missing_artist(self):
        index = build_artist_index(make_series([(0, "c", "a", 1)]))
        with pytest.raises(IndexingError):
            index.column_of("zzz")

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


class TestFromRecords:
    def test_rejects_nonpositive(self):
        with pytest.raises(ChartFlowError):
            ChartSeries.from_records([ChartRecord(week(0), "c", "a", 0)])

    def test_rejects_above_bound(self):
        record = ChartRecord(week(0), "c", "a", MAX_LISTENERS + 1)
        with pytest.raises(ChartValueError):
            ChartSeries.from_records([record])

    def test_rejects_duplicates(self):
        records = [
            ChartRecord(week(0), "c", "a", 1),
            ChartRecord(week(0), "c", "a", 2),
        ]
        with pytest.raises(DuplicateKeyError):
            ChartSeries.from_records(records)


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
    records = [
        ChartRecord(week(k), city, artist, count)
        for (k, city, artist), count in entries.items()
    ]
    return ChartSeries.from_records(records, "prop")


@given(corpora())
@settings(max_examples=60, deadline=None)
def test_csv_roundtrip_property(series):
    again = parse_chart_csv_text(chart_csv_text(series), region_label="prop")
    assert again == series


@given(corpora(), st.sets(_names, max_size=6))
@settings(max_examples=60, deadline=None)
def test_filter_idempotent_and_monotone(series, tag_set):
    once = filter_by_tag(series, tag_set)
    assert filter_by_tag(once, tag_set) == once
    assert build_artist_index(once).size <= build_artist_index(series).size
