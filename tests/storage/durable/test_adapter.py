"""Table + DurableTableAdapter: WAL-first mutations and restore."""

import pytest

from repro.faults import Crash, CrashPoint, FaultSchedule
from repro.obs import MetricsRegistry, set_metrics
from repro.storage import (
    Schema,
    Table,
    float_column,
    int_column,
    string_column,
)
from repro.storage.durable import (
    Database,
    DurableTableAdapter,
    StorageConfig,
)


@pytest.fixture(autouse=True)
def fresh_state():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def schema():
    return Schema([
        string_column("name"),
        int_column("rank"),
        float_column("score", nullable=True),
    ])


def open_db(tmp_path, **overrides):
    kwargs = {"durable": True, "data_dir": str(tmp_path / "db"),
              "fsync": "never", "memtable_flush_bytes": 1 << 20}
    kwargs.update(overrides)
    cfg = StorageConfig(**kwargs)
    return Database.open(cfg.data_dir, cfg)


def durable_table(db, name="things"):
    return Table(name, schema(),
                 durable=DurableTableAdapter(db, name))


class TestMutationLogging:
    def test_insert_reaches_the_wal_before_memory(self, tmp_path):
        db = open_db(tmp_path)
        table = durable_table(db)
        db.set_schedule(FaultSchedule([Crash(at="db.after_append")]))
        with pytest.raises(CrashPoint):
            table.insert({"name": "a", "rank": 1, "score": 0.5})
        # Crash after the WAL append, before the in-memory apply:
        # memory never saw the row, recovery has it.
        assert table.row_count == 0
        db.wal.sync()
        db2 = open_db(tmp_path)
        table2 = durable_table(db2)
        assert table2.durable.restore_into(table2) == 1
        assert table2.get(0) == ("a", 1, 0.5)

    def test_restore_rebuilds_table_exactly(self, tmp_path):
        db = open_db(tmp_path)
        table = durable_table(db)
        rows = [("a", 1, 0.25), ("b", 2, None), ("c", 3, 9.75)]
        for name, rank, score in rows:
            table.insert({"name": name, "rank": rank, "score": score})
        table.delete(1)
        db.close()

        db2 = open_db(tmp_path)
        table2 = durable_table(db2)
        restored = table2.durable.restore_into(table2)
        assert restored == 2
        assert dict(table2.scan()) == {0: ("a", 1, 0.25),
                                       2: ("c", 3, 9.75)}

    def test_restore_fires_listeners(self, tmp_path):
        db = open_db(tmp_path)
        table = durable_table(db)
        table.insert({"name": "a", "rank": 1, "score": None})
        db.close()

        db2 = open_db(tmp_path)
        table2 = durable_table(db2)
        seen = []
        table2.add_insert_listener(lambda rid, row: seen.append(rid))
        table2.create_index(["name"], kind="hash")
        table2.durable.restore_into(table2)
        assert seen == [0]
        index = table2.index_on("name")
        assert list(index.lookup("a")) == [0]

    def test_row_ids_never_reused_after_tombstone_gc(self, tmp_path):
        db = open_db(tmp_path)
        table = durable_table(db)
        for i in range(3):
            table.insert({"name": f"r{i}", "rank": i, "score": None})
        table.delete(2)  # highest row id
        db.compact()  # GC drops the tombstone entirely
        assert sum(s.reader.tombstones for s in db.segments) == 0
        db.close()

        db2 = open_db(tmp_path)
        table2 = durable_table(db2)
        table2.durable.restore_into(table2)
        # The watermark keeps id 2 burned even though its tombstone
        # was collected.
        new_id = table2.insert({"name": "new", "rank": 9, "score": None})
        assert new_id == 3

    def test_delete_and_watermark_share_one_batch(self, tmp_path):
        db = open_db(tmp_path, fsync="always")
        table = durable_table(db)
        table.insert({"name": "a", "rank": 1, "score": None})
        from repro.obs import get_metrics
        before = get_metrics().counter_values().get("wal.fsyncs", 0)
        table.delete(0)
        after = get_metrics().counter_values()["wal.fsyncs"]
        assert after - before == 1  # tombstone + watermark, one sync

    def test_a_delete_inside_a_batch_keeps_the_group_commit(self,
                                                            tmp_path):
        db = open_db(tmp_path, fsync="always")
        table = durable_table(db)
        table.insert({"name": "doomed", "rank": 0, "score": None})
        from repro.obs import get_metrics
        before = get_metrics().counter_values().get("wal.fsyncs", 0)
        with db.batch():
            table.insert({"name": "a", "rank": 1, "score": None})
            table.delete(0)
            for i in range(10):
                table.insert({"name": f"r{i}", "rank": i, "score": 0.5})
        after = get_metrics().counter_values()["wal.fsyncs"]
        assert after - before == 1


class Pred:
    """Comparison stand-in: pruning only reads column/op/value.

    The real :class:`~repro.core.query.ast.Comparison` validates its
    column against the overlay schemas, which this synthetic table is
    not part of.
    """

    def __init__(self, column, op, value):
        self.column = column
        self.op = op
        self.value = value


class TestSegmentPruning:
    def make_flushed_table(self, tmp_path):
        db = open_db(tmp_path)
        table = durable_table(db)
        # Three disjoint rank bands, one segment each.
        for band in range(3):
            for i in range(10):
                table.insert({
                    "name": f"b{band}-{i}",
                    "rank": band * 100 + i,
                    "score": float(band),
                })
            db.flush()
        return db, table

    def test_refuted_segments_are_pruned(self, tmp_path):
        from repro.core.query.physical import ExecCounters

        db, table = self.make_flushed_table(tmp_path)
        store = table.column_store()
        counters = ExecCounters()
        residual = (Pred("rank", ">=", 200),)
        positions = table.durable.scan_positions(store, residual,
                                                 counters)
        assert positions is not None
        assert counters.segments_pruned == 2
        assert counters.segments_read == 1
        ranks = store.gather("rank", positions)
        assert ranks == [200 + i for i in range(10)]

    def test_unprunable_predicate_returns_none(self, tmp_path):
        from repro.core.query.physical import ExecCounters

        db, table = self.make_flushed_table(tmp_path)
        counters = ExecCounters()
        residual = (Pred("rank", ">=", 0),)  # matches every band
        positions = table.durable.scan_positions(
            table.column_store(), residual, counters,
        )
        assert positions is None  # nothing pruned: scan everything

    def test_memtable_rows_always_kept(self, tmp_path):
        from repro.core.query.physical import ExecCounters

        db, table = self.make_flushed_table(tmp_path)
        table.insert({"name": "fresh", "rank": 500, "score": None})
        counters = ExecCounters()
        positions = table.durable.scan_positions(
            table.column_store(),
            (Pred("rank", ">=", 300),), counters,
        )
        assert positions is not None
        assert counters.segments_pruned == 3
        assert store_names(table, positions) == ["fresh"]


def store_names(table, positions):
    return table.column_store().gather("name", positions)


class TestPositionsInRowIdRanges:
    def test_interval_walk_matches_filter(self, tmp_path):
        db = open_db(tmp_path)
        table = durable_table(db)
        for i in range(20):
            table.insert({"name": f"r{i}", "rank": i, "score": None})
        table.delete(5)
        table.delete(12)
        store = table.column_store()
        intervals = [(3, 8), (10, 14)]
        got = store.positions_in_row_id_ranges(intervals)
        expected = [p for p in store.live_positions()
                    if any(low <= store._row_ids[p] <= high
                           for low, high in intervals)]
        assert got == expected

    def test_overlapping_intervals_deduplicated(self, tmp_path):
        db = open_db(tmp_path)
        table = durable_table(db)
        for i in range(10):
            table.insert({"name": f"r{i}", "rank": i, "score": None})
        store = table.column_store()
        got = store.positions_in_row_id_ranges([(0, 6), (4, 9)])
        assert got == list(range(10))
