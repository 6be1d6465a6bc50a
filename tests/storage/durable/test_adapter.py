"""Table + DurableTableAdapter: WAL-first inserts, and restore from
the store's committed tables, including the row tombstones and row-id
watermarks a store written while rows could be deleted holds."""

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
    meta_key,
    row_key,
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


def tombstone(table, row_id):
    """Write a row delete as the store holds one: the row's tombstone
    and the table's row-id watermark in one group commit."""
    with table.durable.database.batch() as db:
        db.delete(row_key(table.name, row_id))
        db.put(meta_key(table.name), table.next_row_id)


def restore(table):
    """Replay the store's committed rows and row-id watermark into
    *table*, as DrugTree recovery does; returns the rows restored."""
    rows, watermarks = table.durable.database.committed_tables()
    mine = rows.get(table.name, [])
    table.restore_rows(mine)
    if table.name in watermarks:
        table.bump_next_row_id(watermarks[table.name])
    return len(mine)


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
        assert restore(table2) == 1
        assert table2.get(0) == ("a", 1, 0.5)

    def test_restore_rebuilds_table_exactly(self, tmp_path):
        db = open_db(tmp_path)
        table = durable_table(db)
        rows = [("a", 1, 0.25), ("b", 2, None), ("c", 3, 9.75)]
        for name, rank, score in rows:
            table.insert({"name": name, "rank": rank, "score": score})
        tombstone(table, 1)
        db.close()

        db2 = open_db(tmp_path)
        table2 = durable_table(db2)
        restored = restore(table2)
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
        restore(table2)
        assert seen == [0]
        index = table2.index_on("name")
        assert list(index.lookup("a")) == [0]

    def test_row_ids_never_reused_after_tombstone_gc(self, tmp_path):
        db = open_db(tmp_path)
        table = durable_table(db)
        for i in range(3):
            table.insert({"name": f"r{i}", "rank": i, "score": None})
        tombstone(table, 2)  # highest row id
        db.compact()  # GC drops the tombstone entirely
        assert sum(s.reader.tombstones for s in db.segments) == 0
        db.close()

        db2 = open_db(tmp_path)
        table2 = durable_table(db2)
        restore(table2)
        # The watermark keeps id 2 burned even though its tombstone
        # was collected.
        new_id = table2.insert({"name": "new", "rank": 9, "score": None})
        assert new_id == 3

    def test_a_delete_inside_a_batch_keeps_the_group_commit(self,
                                                            tmp_path):
        db = open_db(tmp_path, fsync="always")
        table = durable_table(db)
        table.insert({"name": "doomed", "rank": 0, "score": None})
        from repro.obs import get_metrics
        before = get_metrics().counter_values().get("wal.fsyncs", 0)
        with db.batch():
            table.insert({"name": "a", "rank": 1, "score": None})
            tombstone(table, 0)
            for i in range(10):
                table.insert({"name": f"r{i}", "rank": i, "score": 0.5})
        after = get_metrics().counter_values()["wal.fsyncs"]
        assert after - before == 1
