"""Tests for table statistics and selectivity estimation."""

from collections import Counter

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import (
    Schema,
    Table,
    analyze,
    float_column,
    string_column,
)
from repro.storage import statistics
from repro.storage.statistics import Histogram, TableCounts, _equi_depth
from tests.storage.oracles import analyze_rowwise


def _table(values, strings=None):
    schema = Schema([
        string_column("name"),
        float_column("score", nullable=True),
    ])
    table = Table("t", schema)
    strings = strings or [f"s{i % 4}" for i in range(len(values))]
    for name, value in zip(strings, values):
        table.insert({"name": name, "score": value})
    return table


class TestAnalyze:
    def test_basic_counts(self):
        stats = analyze(_table([1.0, 2.0, None, 2.0]))
        score = stats.column("score")
        assert score.row_count == 4
        assert score.null_count == 1
        assert score.distinct_count == 2
        assert score.min_value == 1.0
        assert score.max_value == 2.0

    def test_string_column_has_no_histogram(self):
        stats = analyze(_table([1.0]))
        assert stats.column("name").histogram is None
        assert stats.column("score").histogram is not None

    def test_most_common_values(self):
        stats = analyze(_table([1.0] * 8 + [2.0] * 2))
        mcv = stats.column("score").most_common
        assert mcv[0] == (1.0, 8)

    def test_unknown_column(self):
        stats = analyze(_table([1.0]))
        with pytest.raises(StorageError):
            stats.column("zz")

    def test_empty_table(self):
        stats = analyze(_table([]))
        assert stats.row_count == 0
        assert stats.column("score").distinct_count == 0

    def test_invalid_buckets(self):
        with pytest.raises(StorageError):
            analyze(_table([1.0]), histogram_buckets=0)


class TestEqualitySelectivity:
    def test_mcv_hit_is_exact(self):
        stats = analyze(_table([1.0] * 8 + [2.0] * 2))
        sel = stats.column("score").equality_selectivity(1.0)
        assert sel == pytest.approx(0.8)

    def test_non_mcv_uses_distinct_count(self):
        values = [float(i) for i in range(100)]
        stats = analyze(_table(values), mcv_count=0)
        sel = stats.column("score").equality_selectivity(42.0)
        assert sel == pytest.approx(1 / 100)

    def test_empty_table_zero(self):
        stats = analyze(_table([]))
        assert stats.column("score").equality_selectivity(1.0) == 0.0


class TestRangeSelectivity:
    def test_uniform_range_estimate(self):
        values = [float(i) for i in range(100)]
        stats = analyze(_table(values), histogram_buckets=20)
        sel = stats.column("score").range_selectivity(low=None, high=49.0)
        assert sel == pytest.approx(0.5, abs=0.1)

    def test_full_range_is_one(self):
        values = [float(i) for i in range(50)]
        stats = analyze(_table(values))
        sel = stats.column("score").range_selectivity()
        assert sel == pytest.approx(1.0)

    def test_band_selectivity(self):
        values = [float(i) for i in range(100)]
        stats = analyze(_table(values), histogram_buckets=20)
        sel = stats.column("score").range_selectivity(25.0, 75.0)
        assert sel == pytest.approx(0.5, abs=0.12)

    def test_string_column_fallback(self):
        stats = analyze(_table([1.0, 2.0]))
        assert stats.column("name").range_selectivity("a", "z") == 0.33


class TestHistogram:
    def test_equi_depth_buckets(self):
        histogram = _equi_depth(Counter(float(i) for i in range(100)), 4)
        assert len(histogram.bounds) == 4
        assert histogram.bounds[-1] == 99.0

    def test_fewer_values_than_buckets(self):
        histogram = _equi_depth(Counter([1.0, 2.0]), 10)
        assert len(histogram.bounds) == 2

    def test_empty_histogram_neutral(self):
        histogram = Histogram((), 0)
        assert histogram.selectivity_below(5.0) == 0.5

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.floats(0, 1000, allow_nan=False), min_size=1,
                    max_size=200),
           st.floats(0, 1000, allow_nan=False))
    def test_property_selectivity_close_to_truth(self, values, probe):
        histogram = _equi_depth(Counter(values), 16)
        estimate = histogram.selectivity_below(probe)
        truth = sum(v <= probe for v in values) / len(values)
        # Equi-depth with 16 buckets: error bounded by ~1.5 buckets.
        assert abs(estimate - truth) <= 1.5 / min(16, len(values)) + 1e-9

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(0, 100, allow_nan=False), min_size=2,
                    max_size=100))
    def test_property_range_selectivity_in_bounds(self, values):
        histogram = _equi_depth(Counter(values), 8)
        sel = histogram.selectivity_range(10.0, 90.0)
        assert 0.0 <= sel <= 1.0


#: Column cells as they can reach ANALYZE: through validation (typed)
#: or through ``restore_rows`` (recovered or loaded rows, unchecked), so
#: a column may mix ints and floats, or bools and ints.
_COLUMN_CELLS = {
    "int": st.integers(-4, 4),
    "float": st.floats(-4, 4, allow_nan=False).map(
        lambda x: round(x, 1) + 0.0),  # no -0.0: its repr differs
    "int_and_float": st.one_of(st.integers(-2, 2),
                               st.sampled_from([-1.0, 0.0, 1.0, 1.5])),
    "bool": st.booleans(),
    "bool_and_int": st.one_of(st.booleans(), st.integers(0, 2)),
    "string": st.sampled_from(["", "a", "b", "10", "9", "1.0"]),
    # Equal under ==, so one counter key: only the kept types tell.
    "one_in_three_types": st.sampled_from([1, 1.0, True, 0, 0.0, False]),
    "all_null": st.none(),
}


def _rows(kinds):
    return st.tuples(*[st.one_of(st.none(), _COLUMN_CELLS[kind])
                       for kind in kinds])


def _empty_table(width):
    return Table("t", Schema([string_column(f"c{i}", nullable=True)
                              for i in range(width)]))


_KINDS = st.lists(st.sampled_from(sorted(_COLUMN_CELLS)), min_size=1,
                  max_size=4)


@st.composite
def _tables(draw):
    kinds = draw(_KINDS)
    table = _empty_table(len(kinds))
    table.restore_rows(enumerate(draw(st.lists(_rows(kinds),
                                               max_size=40))))
    return table


@st.composite
def _appends(draw):
    """A column layout and the row batches appended to it in turn, each
    followed by a re-ANALYZE or not."""
    kinds = draw(_KINDS)
    return len(kinds), draw(st.lists(
        st.tuples(st.lists(_rows(kinds), max_size=12), st.booleans()),
        min_size=1, max_size=6))


class TestColumnAtATime:
    """ANALYZE over columns and distinct values returns exactly what
    the row-at-a-time pass it replaced returns."""

    @settings(max_examples=200, deadline=None)
    @given(_tables(), st.integers(1, 80), st.integers(0, 15))
    def test_matches_the_row_at_a_time_pass(self, table, buckets, mcv):
        got = analyze(table, histogram_buckets=buckets, mcv_count=mcv)
        want = analyze_rowwise(table, histogram_buckets=buckets,
                               mcv_count=mcv)
        assert got == want
        # repr tells 1 from 1.0 from True: the same values, not just
        # equal ones.
        assert repr(got) == repr(want)

    def test_ties_at_the_cut_are_broken_by_text(self):
        values = [float(v) for v in (10, 9, 8, 2, 2, 3, 3, 1, 1)]
        stats = analyze(_table(values), mcv_count=3)
        assert stats.column("score").most_common \
            == ((1.0, 2), (2.0, 2), (3.0, 2))
        assert stats == analyze_rowwise(_table(values), mcv_count=3)



def _kept_counts_match(appends, buckets, mcv):
    width, batches = appends
    table, counts = _empty_table(width), TableCounts(width)
    for rows, reanalyze in batches + [([], True)]:
        table.restore_rows(enumerate(rows, start=table.next_row_id))
        if reanalyze:
            got = analyze(table, histogram_buckets=buckets, mcv_count=mcv,
                          counts=counts)
            want = analyze_rowwise(table, histogram_buckets=buckets,
                                   mcv_count=mcv)
            assert got == want
            assert repr(got) == repr(want)
    assert counts.rows == table.row_count


class TestKeptCounts:
    """Re-ANALYZE that counts only the rows appended since its last
    count returns exactly what the row-at-a-time pass over every row
    returns, however appends and re-ANALYZEs interleave."""

    @settings(max_examples=200, deadline=None)
    @given(_appends(), st.integers(1, 80), st.integers(0, 15))
    def test_matches_the_row_at_a_time_pass(self, appends, buckets, mcv):
        _kept_counts_match(appends, buckets, mcv)

    def test_planted_types_read_from_the_counter_keys_is_caught(
            self, monkeypatch):
        column_statistics = statistics._column_statistics

        def types_from_keys(name, row_count, counts, nulls, kinds, *rest):
            return column_statistics(name, row_count, counts, nulls,
                                     set(map(type, counts)), *rest)

        monkeypatch.setattr(statistics, "_column_statistics",
                            types_from_keys)

        @settings(max_examples=200, deadline=None, database=None,
                  phases=[Phase.generate])  # found is enough: no shrink
        @given(_appends(), st.integers(1, 80), st.integers(0, 15))
        def planted(appends, buckets, mcv):
            _kept_counts_match(appends, buckets, mcv)

        with pytest.raises(AssertionError):
            planted()
