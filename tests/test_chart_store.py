"""Corpus ingestion: parsing, indexing, round trips; tag narrowing."""

import tempfile
import tracemalloc
from datetime import date
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chartflow import (
    ChartSeries,
    Influence,
    PlantSpec,
    build_velocities,
    generate_planted,
    load_tags,
    parse_chart_csv,
    write_chart_csv,
)
from chartflow import chart_store
from chartflow.chart_store import (
    MAX_LISTENERS,
    build_artist_index,
    chart_csv_chunks,
)
from chartflow.errors import ChartValueError, DuplicateKeyError, ParseError
from chartflow.preprocess import _restrict_artists, to_listeners_matrices

from conftest import make_series, series_from_rows, week
from oracles import oracle_chart_csv

HEADER = "week_start,city,artist,listeners\n"


def parse_text(text):
    """``parse_chart_csv`` of a file holding the UTF-8 bytes of ``text``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "corpus.csv"
        path.write_bytes(text.encode("utf-8"))
        return parse_chart_csv(path)


def csv_text(series):
    """The canonical CSV of ``series``, as one string."""
    return b"".join(chart_csv_chunks(series)).decode("utf-8")


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
        again = parse_chart_csv(path)
        assert again == series


    def test_earlier_line_wins_over_later_syntax_error(self):
        text = HEADER + (
            "2007-01-07,a,x,1\n2007-01-07,a,x,2\n2007-01-07,a,y,lots\n"
        )
        with pytest.raises(DuplicateKeyError) as err:
            parse_text(text)
        assert err.value.line == 3

    @pytest.mark.parametrize("quoted", [False, True])
    @pytest.mark.parametrize(
        "raw", ["2007-W02-7", "2007W027", "2007-0107", "200701-07",
                "2007-1-07", "2007-001", "2007-01-07T00", " 2007-01-07",
                "\u0662\u0660\u0660\u0667-01-07", "2007-02-30"]
    )
    def test_other_date_spellings_name_their_line(self, raw, quoted):
        # Only YYYY-MM-DD and YYYYMMDD are dates, on every Python: a week
        # date such as 2007-W02-7 is an error, in the byte path (unquoted)
        # and in the row loop (quoted) alike.
        field = f'"{raw}"' if quoted else raw
        text = HEADER + f"2007-01-07,a,x,1\n{field},a,y,2\n"
        with pytest.raises(ParseError, match="bad date") as err:
            parse_text(text)
        assert err.value.line == 3

    def test_parse_date(self):
        assert chart_store.parse_date("2007-01-07") == date(2007, 1, 7)
        assert chart_store.parse_date("20070107") == date(2007, 1, 7)
        for raw in ("2007-W02-7", "2007-0107", "2007-01-7", "", "2007-13-01"):
            with pytest.raises(ValueError):
                chart_store.parse_date(raw)

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
        for column in (series.week_idx, series.city_idx, series.artist_idx):
            assert column.dtype == np.int16
        assert series.listeners.dtype == np.int32

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

    def test_keeps_canonical_columns_at_their_width(self):
        codes = [np.array(col, dtype=np.int16)
                 for col in ([0, 0, 1], [0, 1, 1], [1, 0, 0])]
        listeners = np.array([3, 2, 1], dtype=np.int32)
        series = ChartSeries.from_columns(
            (week(0), week(1)), ("a", "b"), ("p", "q"), *codes, listeners
        )
        kept = (series.week_idx, series.city_idx, series.artist_idx,
                series.listeners)
        for column, given in zip(kept, [*codes, listeners]):
            assert np.shares_memory(column, given)
            assert np.array_equal(column, given)

    def test_wider_columns_are_stored_narrow(self):
        codes = [np.array(col, dtype=np.int32)
                 for col in ([0, 0, 1], [0, 1, 1], [1, 0, 0])]
        listeners = np.array([3, 2, 1], dtype=np.int64)
        series = ChartSeries.from_columns(
            (week(0), week(1)), ("a", "b"), ("p", "q"), *codes, listeners
        )
        kept = (series.week_idx, series.city_idx, series.artist_idx,
                series.listeners)
        for column, given in zip(kept, [*codes, listeners]):
            assert column.itemsize == given.itemsize // 2
            assert np.array_equal(column, given)

    @pytest.mark.parametrize("labels, unused, dtype", [
        (32_767, 0, np.int16), (32_768, 0, np.int32), (32_768, 1, np.int16),
    ])
    def test_code_width_follows_the_label_count(self, labels, unused, dtype):
        """A code column holds its label count: int16 up to 32,767 labels,
        counted after unused labels are dropped."""
        used = labels - unused
        series = ChartSeries.from_columns(
            (week(0), week(1)), ("c",),
            tuple(f"a{i:05d}" for i in range(labels)),
            np.arange(used) % 2, np.zeros(used, np.int32),
            np.arange(used, dtype=np.int32), np.ones(used, np.int32),
        )
        assert len(series.artists) == used
        assert series.artist_idx.dtype == dtype
        assert series.week_idx.dtype == series.city_idx.dtype == np.int16
        assert np.array_equal(np.sort(series.artist_idx), np.arange(used))
        slices = dict(series.week_slices())
        assert slices[week(0)] == slice(0, (used + 1) // 2)

    @pytest.mark.parametrize("count, dtype", [
        (2**31 - 1, np.int32), (2**31, np.int64), (MAX_LISTENERS, np.int64),
    ])
    def test_count_width_follows_the_largest_count(self, count, dtype):
        series = ChartSeries.from_columns(
            (week(0),), ("c",), ("a", "b"), [0, 0], [0, 0], [0, 1], [1, count],
        )
        assert series.listeners.dtype == dtype
        assert series.listeners.tolist() == [1, count]
        assert csv_text(series).endswith(f"c,b,{count}\n")

    def test_int32_codes_of_unsorted_labels_are_ranked(self):
        cities = np.array([0, 1], dtype=np.int32)
        series = ChartSeries.from_columns(
            (week(0),), ("z", "a"), ("p",), np.zeros(2, np.int32), cities,
            np.zeros(2, np.int32), [1, 2],
        )
        assert series.cities == ("a", "z")
        assert series.city_idx.tolist() == [0, 1]
        assert series.listeners.tolist() == [2, 1]
        assert series.city_idx.dtype == np.int16
        assert not np.shares_memory(series.city_idx, cities)

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
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


class TestArtistIndex:
    """The column index is the corpus's own sorted artist tuple."""

    def test_lexicographic(self):
        series = make_series(
            [(0, "c", "b", 1), (0, "c", "a", 1), (0, "c", "c", 1)]
        )
        assert build_artist_index(series) == ("a", "b", "c")

    def test_empty(self):
        assert build_artist_index(make_series([])) == ()

    def test_distinctness(self):
        rows = [(k, "c", "solo", 5) for k in range(40)]
        assert build_artist_index(make_series(rows)) == ("solo",)

    def test_deterministic_rebuild(self):
        series = make_series([(0, "c", a, 1) for a in "zyxw"])
        assert build_artist_index(series) == build_artist_index(series)
        assert build_artist_index(series) is series.artists


class TestFilterByTag:
    """A tag narrows the weekly matrices' columns, never the corpus: the
    ``pre`` stage's velocities (the stage that normalizes over the tagged
    artists alone)."""

    @staticmethod
    def tagged(series, tag):
        return build_velocities(series, tag, filter_stage="pre")

    def test_identity(self):
        series = make_series([(k, "c", a, 1 + k) for k in range(3)
                              for a in "xy"])
        out, whole = self.tagged(series, {"x", "y"}), build_velocities(series)
        assert (out.weeks, out.cities, out.artists) == (
            whole.weeks, whole.cities, whole.artists
        )
        assert np.array_equal(out.defined, whole.defined)
        for a, b in zip(out.matrices, whole.matrices):
            assert a.data.tobytes() == b.data.tobytes()

    def test_disjoint(self):
        series = make_series([(0, "c", "x", 1), (1, "c", "x", 2)])
        out = self.tagged(series, {"nope"})
        assert out.artists == () and out.cities == ("c",)
        assert not out.defined.any()

    def test_subset(self):
        series = make_series([(0, "c", "x", 1), (0, "c", "y", 2),
                              (1, "c", "x", 3), (1, "c", "y", 2)])
        out = self.tagged(series, {"x"})
        assert out.artists == ("x",)
        # x alone is each week's whole unit row: 1.0 both weeks.
        assert out.matrices[0].data.tolist() == [0.0]

    def test_weeks_and_cities_kept(self):
        series = make_series([(0, "c", "x", 1), (1, "c", "x", 1),
                              (3, "d", "y", 2), (4, "d", "y", 2)])
        out = self.tagged(series, {"x"})
        assert out.weeks == series.weeks[1:] and out.cities == ("c", "d")
        assert out.defined.tolist() == [[True, False], [False, False],
                                         [False, False]]


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
    return series_from_rows(rows)


@given(corpora())
@settings(max_examples=60, deadline=None)
def test_csv_roundtrip_property(series):
    again = parse_text(csv_text(series))
    assert again == series


@given(corpora(), st.sets(_names, max_size=6))
@settings(max_examples=60, deadline=None)
def test_filter_idempotent_and_monotone(series, tag_set):
    """A tag slices the weekly matrices' columns: slicing again by the same
    tag changes nothing, and no artist or row is added."""
    matrices = to_listeners_matrices(series)
    once, kept = _restrict_artists(matrices, series.artists, tag_set)
    twice, kept_again = _restrict_artists(once, kept, tag_set)
    assert kept_again == kept
    assert set(kept) <= set(series.artists) & tag_set
    for a, b, whole in zip(once, twice, matrices):
        assert a.shape == b.shape == (whole.shape[0], len(kept))
        assert np.array_equal(a.indptr, b.indptr)
        assert np.array_equal(a.indices, b.indices)
        assert np.array_equal(a.data, b.data)
        assert a.nnz <= whole.nnz


def test_parse_peak_memory_is_bounded_by_the_columns(tmp_path):
    """Parsing holds the columns plus block-sized scratch, not copies of them:
    the columns are allocated at their final length and each block is
    coded into its rows."""
    names = [f"c{i:02d}" for i in range(30)]
    roles = {"c00": "leader", "c01": "follower"}
    spec = PlantSpec(
        cities=tuple((n, roles.get(n, "unlabeled")) for n in names),
        influence=(Influence("c00", "c01", 2, 0.8),),
        weeks=40,
        artists=600,
        chart_size=150,
        noise_sigma=0.04,
        seed=101,
    )
    path = tmp_path / "corpus.csv"
    write_chart_csv(generate_planted(spec), path)
    tracemalloc.start()
    try:
        series = parse_chart_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    columns = sum(
        column.nbytes
        for column in (series.week_idx, series.city_idx, series.artist_idx,
                       series.listeners)
    )
    assert len(series) == 40 * 30 * 150
    assert series.digest is not None  # the byte path read it
    assert peak <= columns + 6 * chart_store._BLOCK_BYTES, (peak, columns)


def test_week_slices_do_not_copy_the_week_column():
    """The week bounds are searched with codes of the column's own dtype,
    so the 180,000-row int16 column is not cast to int64 (1.4 MiB)."""
    weeks, cities, artists = 40, 30, 150
    series = ChartSeries.from_columns(
        tuple(week(k) for k in range(weeks)),
        tuple(f"c{i:02d}" for i in range(cities)),
        tuple(f"a{i:03d}" for i in range(artists)),
        np.repeat(np.arange(weeks, dtype=np.int32), cities * artists),
        np.tile(np.repeat(np.arange(cities, dtype=np.int32), artists), weeks),
        np.tile(np.arange(artists, dtype=np.int32), weeks * cities),
        np.ones(weeks * cities * artists, dtype=np.int64),
    )
    assert len(series) == 180_000
    tracemalloc.start()
    try:
        slices = list(series.week_slices())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert slices[1] == (week(1), slice(cities * artists, 2 * cities * artists))
    assert peak < 64 * 1024, peak


# Labels that csv.writer quotes (a comma, a quote, a newline) or that are
# not ASCII, so their fields are longer in bytes than in characters.
_HOSTILE = series_from_rows([
    (week(0), "a,b", "plain", 1),
    (week(0), 'say "hi"', "two\nlines", 9),
    (week(0), "Montréal", "東京事変", 10),
    (week(1), "a,b", "東京事変", MAX_LISTENERS),
    (week(1), "x", "plain", 100),
])


class TestRender:
    """``chart_csv_chunks`` is byte-equal to the f-string row renderer."""

    @pytest.mark.parametrize("series", [
        _HOSTILE,
        ChartSeries.from_columns((), (), (), [], [], [], []),
        make_series([(0, "c", "x", 1), (0, "c", "y", 9), (2, "d", "x", 10)]),
    ], ids=["hostile labels", "header only", "short counts"])
    def test_matches_the_row_renderer(self, series):
        assert b"".join(chart_csv_chunks(series)) == oracle_chart_csv(series)

    def test_label_wider_than_one_block(self):
        wide = "w" * (chart_store._RENDER_BYTES + 1)
        series = make_series([(0, "c", wide, 3), (0, "c", "x", 12),
                              (1, "d", wide, 7)])
        chunks = list(chart_csv_chunks(series))
        assert len(chunks) == 4  # the header, then one row per block
        assert b"".join(chunks) == oracle_chart_csv(series)

    @given(corpora(), st.integers(min_value=1, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_any_block_size(self, series, block_bytes):
        with mock.patch.object(chart_store, "_RENDER_BYTES", block_bytes):
            rendered = b"".join(chart_csv_chunks(series))
        assert rendered == oracle_chart_csv(series)

    def test_wide_label_peak_memory(self):
        """One 10,000-byte artist label widens every line of the block
        matrix, so a block holds fewer rows: the rendering peak stays near
        the label table, not the corpus times the label width (40 MB)."""
        series = ChartSeries.from_columns(
            tuple(week(k) for k in range(10)),
            ("c0", "c1", "c2", "c3"),
            ("w" * 10_000, *(f"a{i:02d}" for i in range(99))),
            np.repeat(np.arange(10, dtype=np.int32), 400),
            np.tile(np.repeat(np.arange(4, dtype=np.int32), 100), 10),
            np.tile(np.arange(100, dtype=np.int32), 40),
            np.full(4000, 12345, dtype=np.int64),
        )
        tracemalloc.start()
        try:
            for _ in chart_csv_chunks(series):
                pass
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20, peak

    def test_wide_label_among_many_artists(self):
        """One 10,000-byte artist label among 2,000 artists: the label table
        holds the labels' bytes, about 30 KB, not every label padded to the
        widest (20 MB)."""
        series = ChartSeries.from_columns(
            (week(0),), ("c0",),
            ("w" * 10_000, *(f"a{i:04d}" for i in range(1999))),
            np.zeros(2000, np.int16), np.zeros(2000, np.int16),
            np.arange(2000, dtype=np.int16),
            np.arange(1, 2001, dtype=np.int32),
        )
        tracemalloc.start()
        try:
            rendered = b"".join(chart_csv_chunks(series))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rendered == oracle_chart_csv(series)
        assert peak - len(rendered) < 2**20, peak
