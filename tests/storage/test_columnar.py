"""ColumnStore: the table-maintained columnar mirror of a table."""

import sys
import threading

import pytest

from repro.errors import StorageError
from repro.storage import Schema, Table, float_column, string_column


def make_table(n=10):
    schema = Schema([
        string_column("sample_id"),
        float_column("score"),
        string_column("tag"),
    ])
    table = Table("samples", schema)
    for i in range(n):
        table.insert({
            "sample_id": f"s{i:03d}",
            "score": float(i),
            "tag": "even" if i % 2 == 0 else "odd",
        })
    return table


class TestBackfill:
    def test_backfills_existing_rows(self):
        table = make_table(10)
        store = table.column_store()
        assert len(store) == 10
        assert store.column("score") == [float(i) for i in range(10)]
        assert store.verify_against_rows()

    def test_column_store_is_cached(self):
        table = make_table(3)
        assert table.column_store() is table.column_store()

    def test_unknown_column_raises(self):
        store = make_table(3).column_store()
        with pytest.raises(StorageError, match="no column"):
            store.column("nope")


class TestListeners:
    def test_insert_appends(self):
        table = make_table(4)
        store = table.column_store()
        table.insert({"sample_id": "s999", "score": 99.0, "tag": "odd"})
        assert len(store) == 5
        assert store.column("score")[-1] == 99.0
        assert store.appends == 1
        assert store.verify_against_rows()

    def test_delete_tombstones_without_shifting(self):
        table = make_table(6)
        store = table.column_store()
        victim = list(table.scan())[2][0]
        table.delete(victim)
        assert len(store) == 5
        assert store.buffer_length == 6  # tombstoned, not shifted
        assert store.tombstones == 1
        assert store.verify_against_rows()

    def test_live_positions_keep_insertion_order(self):
        table = make_table(6)
        store = table.column_store()
        assert list(store.live_positions()) == list(range(6))
        victim = list(table.scan())[0][0]
        table.delete(victim)
        assert list(store.live_positions()) == [1, 2, 3, 4, 5]

    def test_position_of_dead_row_raises(self):
        table = make_table(3)
        store = table.column_store()
        victim = list(table.scan())[1][0]
        position = store.position_of(victim)
        table.delete(victim)
        with pytest.raises(StorageError, match="no live row"):
            store.position_of(victim)
        # the other rows keep their positions
        assert position not in [
            store.position_of(rid) for rid, _ in table.scan()
        ]


class TestCompaction:
    def test_explicit_compact_rebuilds_dense(self):
        table = make_table(8)
        store = table.column_store()
        for row_id, _ in list(table.scan())[::2]:
            table.delete(row_id)
        assert store.buffer_length == 8
        store.compact()
        assert store.buffer_length == len(store) == 4
        assert store.compactions == 1
        assert store.column("tag") == ["odd"] * 4
        assert store.verify_against_rows()

    def test_compact_on_dense_store_is_a_noop(self):
        store = make_table(4).column_store()
        store.compact()
        assert store.compactions == 0

    def test_auto_compaction_past_threshold(self):
        table = make_table(200)
        store = table.column_store()
        doomed = [row_id for row_id, _ in list(table.scan())[:150]]
        for row_id in doomed:
            table.delete(row_id)
        assert store.compactions >= 1
        assert store.buffer_length < 200
        assert store.verify_against_rows()

    def test_gather(self):
        table = make_table(10)
        store = table.column_store()
        assert store.gather("score", [0, 3, 7]) == [0.0, 3.0, 7.0]


class TestOrderAgainstReaders:
    """Readers take no lock, so the order in which one insert reaches
    the store, the indexes and the listeners is what they can see."""

    def test_store_holds_a_row_before_its_index_or_listeners_see_it(self):
        table = make_table(4)
        index = table.create_index(["score"], kind="sorted")
        seen = []
        # Registered before the store exists, as the overlay's
        # data-version stamp is.
        table.add_insert_listener(
            lambda row_id, row: seen.append(store.position_of(row_id)))
        store = table.column_store()
        insert = index.insert

        def checked_insert(key, row_id):
            store.position_of(row_id)  # raises if the store lacks it
            insert(key, row_id)

        index.insert = checked_insert
        table.insert({"sample_id": "s100", "score": 1.5, "tag": "odd"})
        assert seen == [4]
        assert store.verify_against_rows()

    def test_an_indexed_row_stays_in_the_store_until_unindexed(self):
        table = make_table(4)
        index = table.create_index(["score"], kind="sorted")
        store = table.column_store()
        gone = []
        table.add_delete_listener(
            lambda row_id, row: gone.append(row_id not in [
                store._row_ids[p] for p in store.live_positions()]))
        delete = index.delete

        def checked_delete(key, row_id):
            store.position_of(row_id)  # raises if already dropped
            delete(key, row_id)

        index.delete = checked_delete
        table.delete(2)
        assert gone == [True]
        assert store.verify_against_rows()

    def test_a_reader_builds_the_store_while_the_writer_inserts(self):
        failures = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                table = make_table(2000)

                def writer():
                    for i in range(200):
                        table.insert({"sample_id": f"w{i:03d}",
                                      "score": -float(i), "tag": "new"})

                thread = threading.Thread(target=writer)
                thread.start()
                try:
                    table.column_store()
                except RuntimeError as error:
                    failures.append(error)
                thread.join(timeout=60)
                assert not thread.is_alive()
                if not table.column_store().verify_against_rows():
                    failures.append("the store lost or doubled a row")
        finally:
            sys.setswitchinterval(interval)
        assert failures == []
