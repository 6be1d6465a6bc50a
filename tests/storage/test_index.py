"""Tests for hash and sorted indexes."""

import random
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage import HashIndex, Schema, SortedIndex, Table, int_column
from tests.storage.oracles import FlatSortedIndex, with_planted_bug


class TestHashIndex:
    def test_insert_lookup(self):
        index = HashIndex("ix", ("col",))
        index.insert("a", 1)
        index.insert("a", 2)
        index.insert("b", 3)
        assert index.lookup("a") == [1, 2]
        assert index.lookup("b") == [3]
        assert index.lookup("zz") == []

    def test_no_range_support(self):
        assert not HashIndex("ix", ("col",)).supports_range

    def test_counts_without_copying_row_ids(self):
        index = HashIndex("ix", ("col",))
        for row_id, key in enumerate(("a", None, "a", "b", None, "a")):
            index.insert(key, row_id)
        assert index.count("a") == 3
        assert index.count("zz") == 0
        assert index.count(None) == 2
        assert index.distinct() == 2  # NULL is no key value
        assert HashIndex("ix", ("col",)).distinct() == 0


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

    def test_null_keys(self):
        index = self._index([(None, 0), (1, 1), (None, 2)])
        assert index.lookup(None) == [0, 2]
        assert index.range() == [1]  # nulls excluded from ranges

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


class SmallChunks(SortedIndex):
    """Chunks of two keys: every few inserts split a chunk, so runs of
    equal keys cross chunk boundaries all the time."""

    CHUNK = 2


_KEYS = st.one_of(st.none(), st.integers(0, 8))
#: Rows as (key, gap): ids rise by each gap, as a table issues them
#: (gap 1) or a cluster view restores a partition's sparse ids.
_ROWS = st.lists(st.tuples(_KEYS, st.integers(1, 5)), min_size=8,
                 max_size=150)
#: How the rows reach the indexes: live inserts, a bulk load, or a
#: table's unlogged ``append_rows`` into indexes created beforehand.
_FILLS = st.sampled_from(("insert", "load", "restore"))


def _entries(rows):
    """``(key, row_id)`` pairs, row ids ascending by each row's gap."""
    entries, row_id = [], -1
    for key, gap in rows:
        row_id += gap
        entries.append((key, row_id))
    return entries


def _fill(entries, fill):
    """A hash and a sorted index (two-key chunks) holding *entries*."""
    if fill == "restore":
        table = Table("t", Schema([int_column("col", nullable=True)]))
        with mock.patch.object(SortedIndex, "CHUNK", 2):
            hashed = table.create_index(["col"], kind="hash")
            ordered = table.create_index(["col"], kind="sorted")
            table.append_rows([(row_id, (key,)) for key, row_id in entries],
                              log=False)
        return hashed, ordered
    hashed, ordered = HashIndex("h", ("col",)), SmallChunks("ix", ("col",))
    for index in (hashed, ordered):
        if fill == "load":
            index.load(entries)
        else:
            for key, row_id in entries:
                index.insert(key, row_id)
    return hashed, ordered


def _same_reads(index, oracle, low, high, include_low, include_high):
    assert len(index) == len(oracle)
    assert index.min_key() == oracle.min_key()
    assert index.max_key() == oracle.max_key()
    for key in (None, *range(-1, 10)):
        assert index.lookup(key) == oracle.lookup(key)
    for key in range(-1, 10):
        assert index.count(key, key) == len(oracle.lookup(key))
    assert index.range(low, high, include_low, include_high) \
        == oracle.range(low, high, include_low, include_high)
    assert index.count(low, high, include_low, include_high) \
        == oracle.count(low, high, include_low, include_high)
    for descending in (False, True):
        assert list(index.ordered(descending, low, high, include_low,
                                  include_high)) \
            == list(oracle.ordered(descending, low, high, include_low,
                                   include_high))


def check_matches_the_flat_index(entries, fill, low=None, high=None,
                                 include_low=True, include_high=True):
    """Both indexes answer what the flat oracle answers; every lookup
    comes back in ascending row id."""
    hashed, ordered = _fill(entries, fill)
    oracle = FlatSortedIndex()
    for key, row_id in entries:
        oracle.insert(key, row_id)
    _same_reads(ordered, oracle, low, high, include_low, include_high)
    for key in (None, *range(-1, 10)):
        assert hashed.lookup(key) == oracle.lookup(key)


class TestBlockedSortedIndex:
    """The chunked index answers exactly what the flat two-list index
    it replaced answers, at every chunk size and however its rows
    arrived."""

    @settings(max_examples=150, deadline=None)
    @given(_ROWS, _FILLS, st.one_of(st.none(), st.integers(-1, 9)),
           st.one_of(st.none(), st.integers(-1, 9)),
           st.booleans(), st.booleans())
    def test_matches_the_flat_index(self, rows, fill, low, high,
                                    include_low, include_high):
        check_matches_the_flat_index(_entries(rows), fill, low, high,
                                     include_low, include_high)

    @pytest.mark.parametrize("fill", ["insert", "load", "restore"])
    def test_planted_bug_a_bucket_that_prepends_is_caught(self, fill):
        entries = _entries([(key % 3 or None, 1 + key % 2)
                            for key in range(12)])

        def prepend(index, entries):
            for key, row_id in entries:
                index._buckets.setdefault(key, []).insert(0, row_id)

        with mock.patch.object(HashIndex, "extend", prepend), \
                pytest.raises(AssertionError):
            check_matches_the_flat_index(entries, fill)

    def test_planted_bug_a_count_that_ignores_include_high_is_caught(self):
        # Two keys per chunk: the band's exclusive top, key 2, opens a
        # chunk, so a count that takes it inclusively reads one chunk
        # too many.
        planted = with_planted_bug(SortedIndex.count,
                                   ("include_high)", "True)"))
        entries = _entries([(key // 2, 1) for key in range(12)])
        check_matches_the_flat_index(entries, "load", 0, 2, True, False)
        with mock.patch.object(SortedIndex, "count", planted), \
                pytest.raises(AssertionError):
            check_matches_the_flat_index(entries, "load", 0, 2, True, False)

    #: Keys 0..5, two rows each, loaded into two-key chunks: chunk k
    #: holds exactly key k, so every integer bound sits on a chunk edge.
    EDGE_ENTRIES = [(row_id // 2, row_id) for row_id in range(12)]

    @pytest.mark.parametrize("low, high, include_low, include_high", [
        (0, 2, True, False),
        (0, 2, True, True),
        (0, 2, False, False),
        (1, 1, True, True),
        (1, 1, False, True),
        (1, 1, True, False),
        (None, 3, True, False),
        (3, None, False, True),
        (None, None, True, True),
        (-1, 9, False, False),
        (2.5, 3.5, True, True),
        (4, 2, True, True),
    ])
    def test_count_at_chunk_edges(self, low, high, include_low,
                                  include_high):
        index, oracle = SmallChunks("ix", ("col",)), FlatSortedIndex()
        index.load(self.EDGE_ENTRIES)
        for key, row_id in self.EDGE_ENTRIES:
            oracle.insert(key, row_id)
        assert [len(chunk) for chunk in index._layout[1]] == [2] * 6
        expected = len(index.range(low, high, include_low, include_high))
        assert index.count(low, high, include_low, include_high) \
            == oracle.count(low, high, include_low, include_high) \
            == expected

    def test_count_leaves_out_null_keys(self):
        index = SmallChunks("ix", ("col",))
        for row_id, key in enumerate((None, 1, None, 2, 3, None)):
            index.insert(key, row_id)
        assert len(index) == 6
        assert index.count() == 3
        assert index.count(None, 2) == 2
        assert index.null_count() == 3

    def test_count_of_an_empty_index_is_zero(self):
        index = SmallChunks("ix", ("col",))
        assert index.count() == 0
        assert index.count(0, 10) == 0

    def test_count_follows_inserts_that_split_chunks(self):
        index, oracle = SmallChunks("ix", ("col",)), FlatSortedIndex()
        rng = random.Random(5)
        for row_id in range(60):
            key = rng.randrange(10)
            index.insert(key, row_id)
            oracle.insert(key, row_id)
            low, high = sorted((rng.randrange(-1, 11),
                                rng.randrange(-1, 11)))
            flags = rng.random() < 0.5, rng.random() < 0.5
            assert index.count(low, high, *flags) \
                == oracle.count(low, high, *flags)
        assert len(index._layout[1]) > 10

    def test_equal_keys_span_many_chunks(self):
        index, oracle = SmallChunks("ix", ("col",)), FlatSortedIndex()
        for row_id in range(40):
            key = 5 if row_id % 5 else row_id // 10
            index.insert(key, row_id)
            oracle.insert(key, row_id)
        assert len(index._layout[1]) > 10  # the run crosses chunks
        _same_reads(index, oracle, 0, 5, True, True)
        _same_reads(index, oracle, 5, None, False, True)

    def test_a_split_keeps_the_walk_lazy(self):
        index = SmallChunks("ix", ("col",))
        index.load((key, key) for key in range(100))
        walk = index.ordered(descending=True)
        assert [next(walk), next(walk)] == [99, 98]
        walk = index.ordered()
        assert [next(walk), next(walk)] == [0, 1]

    def test_bulk_load_fills_whole_chunks(self):
        index = SortedIndex("ix", ("col",))
        index.load((key % 7, row_id) for row_id, key in enumerate(
            range(3 * SortedIndex.CHUNK + 1)))
        sizes = [len(chunk) for chunk in index._layout[1]]
        assert sizes == [SortedIndex.CHUNK] * 3 + [1]
        assert index.lookup(3) == [row_id for row_id in range(len(index))
                                   if row_id % 7 == 3]

    @pytest.mark.parametrize("read", ["range", "lookup"])
    def test_a_read_an_insert_interrupts_is_read_again(self, read):
        """Readers take no lock: an insert lands after a read found its
        bounds and before it sliced the row ids. The answer is still
        the index's, before or after that insert."""
        index = SortedIndex("ix", ("col",))
        for row_id in range(20):
            index.insert(row_id % 10, row_id)
        first, calls = index._first, []

        def insert_after_the_bounds(layout, key, above):
            found = first(layout, key, above)
            calls.append(key)
            if len(calls) == 2:  # both bounds found, nothing sliced yet
                index.insert(-1, 100)
            return found

        index._first = insert_after_the_bounds
        if read == "range":
            assert index.range(3, 5) == [3, 4, 5, 13, 14, 15]
        else:
            assert index.lookup(7) == [7, 17]
        assert len(calls) == 4  # read once more, with no insert

    def test_readers_never_raise_while_a_writer_inserts(self):
        """Real threads, a switch every microsecond: four readers walk
        and probe while one thread inserts; then the index equals the
        flat oracle fed the same rows."""
        index = SmallChunks("ix", ("col",))
        oracle = FlatSortedIndex()
        rng = random.Random(7)
        keys = [rng.randrange(30) for _ in range(3000)]
        errors: list[BaseException] = []
        done = threading.Event()

        def reader(seed: int) -> None:
            probe = random.Random(seed)
            try:
                while not done.is_set():
                    low = probe.randrange(30)
                    index.range(low, low + 5)
                    index.count(low, low + 5)
                    index.lookup(probe.randrange(30))
                    walk = index.ordered(probe.random() < 0.5, low)
                    for _ in range(20):
                        if next(walk, None) is None:
                            break
                    index.min_key(), index.max_key()
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def writer() -> None:
            try:
                for row_id, key in enumerate(keys):
                    index.insert(key, row_id)
            except BaseException as error:  # noqa: BLE001 - reported below
                errors.append(error)
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader, args=(seed,))
                       for seed in range(4)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        for row_id, key in enumerate(keys):
            oracle.insert(key, row_id)
        _same_reads(index, oracle, None, None, True, True)
        _same_reads(index, oracle, 3, 20, False, True)
