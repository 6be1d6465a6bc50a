"""Tests for hash and sorted indexes."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import HashIndex, SortedIndex


class TestHashIndex:
    def test_insert_lookup(self):
        index = HashIndex("ix", ("col",))
        index.insert("a", 1)
        index.insert("a", 2)
        index.insert("b", 3)
        assert index.lookup("a") == [1, 2]
        assert index.lookup("b") == [3]
        assert index.lookup("zz") == []

    def test_delete(self):
        index = HashIndex("ix", ("col",))
        index.insert("a", 1)
        index.insert("a", 2)
        index.delete("a", 1)
        assert index.lookup("a") == [2]

    def test_delete_missing_raises(self):
        index = HashIndex("ix", ("col",))
        with pytest.raises(StorageError):
            index.delete("a", 1)

    def test_no_range_support(self):
        assert not HashIndex("ix", ("col",)).supports_range


class TestSortedIndex:
    def _index(self, pairs):
        index = SortedIndex("ix", ("col",))
        for key, row_id in pairs:
            index.insert(key, row_id)
        return index

    def test_lookup_exact(self):
        index = self._index([(5, 0), (3, 1), (5, 2), (9, 3)])
        assert index.lookup(5) == [0, 2]
        assert index.lookup(4) == []

    def test_range_inclusive(self):
        index = self._index([(i, i) for i in range(10)])
        assert index.range(3, 6) == [3, 4, 5, 6]

    def test_range_exclusive(self):
        index = self._index([(i, i) for i in range(10)])
        assert index.range(3, 6, include_low=False,
                           include_high=False) == [4, 5]

    def test_open_ranges(self):
        index = self._index([(i, i) for i in range(5)])
        assert index.range(low=3) == [3, 4]
        assert index.range(high=1) == [0, 1]
        assert index.range() == [0, 1, 2, 3, 4]

    def test_inverted_range_empty(self):
        index = self._index([(i, i) for i in range(5)])
        assert index.range(4, 2) == []

    def test_delete_specific_row(self):
        index = self._index([(5, 0), (5, 1), (5, 2)])
        index.delete(5, 1)
        assert index.lookup(5) == [0, 2]

    def test_delete_missing_raises(self):
        index = self._index([(5, 0)])
        with pytest.raises(StorageError):
            index.delete(5, 99)
        with pytest.raises(StorageError):
            index.delete(7, 0)

    def test_null_keys(self):
        index = self._index([(None, 0), (1, 1), (None, 2)])
        assert index.lookup(None) == [0, 2]
        assert index.range() == [1]  # nulls excluded from ranges
        index.delete(None, 0)
        assert index.lookup(None) == [2]

    def test_min_max(self):
        index = self._index([(5, 0), (3, 1), (9, 2)])
        assert index.min_key() == 3
        assert index.max_key() == 9
        assert SortedIndex("e", ("c",)).min_key() is None

    def test_multi_column_rejected(self):
        with pytest.raises(StorageError):
            SortedIndex("ix", ("a", "b"))

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.integers(-50, 50), max_size=60),
           st.integers(-50, 50), st.integers(-50, 50))
    def test_property_range_matches_filter(self, keys, raw_low, raw_high):
        low, high = min(raw_low, raw_high), max(raw_low, raw_high)
        index = SortedIndex("ix", ("col",))
        for row_id, key in enumerate(keys):
            index.insert(key, row_id)
        expected = sorted(
            row_id for row_id, key in enumerate(keys) if low <= key <= high
        )
        assert index.range(low, high) == expected

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 20), min_size=1, max_size=40))
    def test_property_insert_delete_roundtrip(self, keys):
        index = SortedIndex("ix", ("col",))
        for row_id, key in enumerate(keys):
            index.insert(key, row_id)
        for row_id, key in enumerate(keys):
            index.delete(key, row_id)
        assert len(index) == 0
        assert index.range() == []

    def test_ordered_walks_ties_in_ascending_row_id(self):
        index = SortedIndex("ix", ("col",))
        # Row ids arrive out of order on purpose: the rule is about
        # ids, not insertion order.
        for row_id, key in ((4, 7), (1, 7), (3, 5), (0, 9), (2, 7)):
            index.insert(key, row_id)
        assert list(index.ordered()) == [3, 1, 2, 4, 0]
        assert list(index.ordered(descending=True)) == [0, 1, 2, 4, 3]

    def test_ordered_places_nulls_like_the_sort_key(self):
        index = SortedIndex("ix", ("col",))
        for row_id, key in enumerate((None, 2, None, 1)):
            index.insert(key, row_id)
        assert list(index.ordered()) == [0, 2, 3, 1]
        assert list(index.ordered(descending=True)) == [1, 3, 0, 2]
        # A bound is a range predicate, and none matches NULL.
        assert list(index.ordered(low=1)) == [3, 1]
        assert list(index.ordered(True, None, 2, True, False)) == [3]

    def test_ordered_is_lazy(self):
        index = SortedIndex("ix", ("col",))
        for row_id in range(100):
            index.insert(row_id, row_id)
        walk = index.ordered(descending=True)
        assert [next(walk), next(walk)] == [99, 98]

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.one_of(st.none(), st.integers(0, 6)), max_size=40),
           st.booleans(),
           st.one_of(st.none(), st.integers(0, 6)),
           st.one_of(st.none(), st.integers(0, 6)),
           st.booleans(), st.booleans())
    def test_property_ordered_matches_stable_sort(
            self, keys, descending, low, high, include_low, include_high):
        index = SortedIndex("ix", ("col",))
        for row_id, key in enumerate(keys):
            index.insert(key, row_id)

        def in_range(key):
            if low is None and high is None:
                return True
            if key is None:
                return False
            above = (low is None or key > low
                     or (include_low and key == low))
            below = (high is None or key < high
                     or (include_high and key == high))
            return above and below

        live = [row_id for row_id, key in enumerate(keys) if in_range(key)]
        expected = sorted(
            live, key=lambda row_id: (keys[row_id] is not None,
                                      keys[row_id]),
            reverse=descending)  # stable: ties stay in row-id order
        assert list(index.ordered(descending, low, high, include_low,
                                  include_high)) == expected
