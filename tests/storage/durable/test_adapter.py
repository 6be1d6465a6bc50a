"""Table + DurableTableAdapter: WAL-first inserts, restore from the
store's committed tables, and recovery refusing any key it cannot
place."""

import re

import pytest

from repro.bio import parse_newick
from repro.chem.affinity import ActivityType, BindingRecord
from repro.core import DrugTree
from repro.errors import StorageError
from repro.faults import Crash, CrashPoint, FaultSchedule
from repro.obs import MetricsRegistry, get_metrics, set_metrics
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


def restore(table):
    """Replay the store's committed rows into *table*, as DrugTree
    recovery does; returns the rows restored."""
    rows = table.durable.database.committed_tables([table.name])
    mine = rows.get(table.name, [])
    table.append_rows(mine, log=False)
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
        db.close()

        db2 = open_db(tmp_path)
        table2 = durable_table(db2)
        restored = restore(table2)
        assert restored == 3
        assert dict(table2.scan()) == dict(enumerate(rows))
        assert table2.insert({"name": "d", "rank": 4, "score": None}) == 3

    def test_restore_fires_listeners(self, tmp_path):
        db = open_db(tmp_path)
        table = durable_table(db)
        table.insert({"name": "a", "rank": 1, "score": None})
        db.close()

        db2 = open_db(tmp_path)
        table2 = durable_table(db2)
        seen = []
        table2.add_insert_listener(
            lambda pairs: seen.extend(rid for rid, _ in pairs))
        table2.create_index(["name"], kind="hash")
        restore(table2)
        assert seen == [0]
        index = table2.index_on("name")
        assert list(index.lookup("a")) == [0]

    def test_a_nested_batch_keeps_the_table_s_group_commit(self,
                                                           tmp_path):
        db = open_db(tmp_path, fsync="always")
        table = durable_table(db)
        table.insert({"name": "first", "rank": 0, "score": None})
        before = get_metrics().counter_values().get("wal.fsyncs", 0)
        with db.batch():
            table.insert({"name": "a", "rank": 1, "score": None})
            with db.batch():
                table.insert({"name": "b", "rank": 2, "score": None})
            for i in range(10):
                table.insert({"name": f"r{i}", "rank": i, "score": 0.5})
        after = get_metrics().counter_values()["wal.fsyncs"]
        assert after - before == 1


TREE = "((a:1,b:1)ab:1,(c:1,d:1)cd:1)root;"


class TestWritingAfterClose:
    """An insert into a closed store raises ``StorageError`` naming the
    data directory before anything is written: no WAL byte, no memtable
    entry, no row."""

    def test_a_table_insert_after_close(self, tmp_path):
        db = open_db(tmp_path)
        table = durable_table(db)
        table.insert({"name": "a", "rank": 1, "score": None})
        db.close()
        wal = (tmp_path / "db" / "wal.log").read_bytes()
        with pytest.raises(StorageError, match=re.escape(
                repr(str(tmp_path / "db"))) + " is closed"):
            table.insert({"name": "b", "rank": 2, "score": None})
        assert table.row_count == 1
        assert table.next_row_id == 1
        assert len(db.memtable) == 0
        assert (tmp_path / "db" / "wal.log").read_bytes() == wal

    def test_add_binding_after_drugtree_close(self, tmp_path):
        data_dir = str(tmp_path / "db")
        drugtree = DrugTree(parse_newick(TREE), storage=StorageConfig(
            durable=True, data_dir=data_dir))
        drugtree.add_protein("a")
        record = BindingRecord(ligand_id="L1", protein_id="a",
                               activity_type=ActivityType.KI,
                               value_nm=10.0)
        drugtree.add_binding(record)
        drugtree.close()
        bindings = drugtree.tables["bindings"]
        version = drugtree.data_version
        wal = (tmp_path / "db" / "wal.log").read_bytes()
        with pytest.raises(StorageError,
                           match=re.escape(repr(data_dir)) + " is closed"):
            drugtree.add_binding(record)
        assert bindings.row_count == 1
        assert drugtree.data_version == version
        assert len(drugtree.database.memtable) == 0
        assert (tmp_path / "db" / "wal.log").read_bytes() == wal


class TestRecoveryRefusesKeysItCannotPlace:
    """A key that is no row of an overlay table stops the reopen with a
    ``StorageError`` naming the data directory and the key: nothing is
    dropped or misread in silence."""

    @pytest.mark.parametrize("key", ["t/nosuch/000000000001",
                                     "x/bindings/1", "junk"])
    def test_a_key_of_no_overlay_row_is_refused(self, tmp_path, key):
        data_dir = str(tmp_path / "db")
        storage = StorageConfig(durable=True, data_dir=data_dir)
        drugtree = DrugTree(parse_newick(TREE), storage=storage)
        drugtree.database.put(key, ["a", 1])
        drugtree.close()
        with pytest.raises(StorageError, match=re.escape(repr(data_dir))
                           + ".*" + re.escape(repr(key))):
            DrugTree(parse_newick(TREE), storage=storage)
