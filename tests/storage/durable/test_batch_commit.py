"""A durable batch is applied as a batch.

Inside an open ``Database.batch()`` a ``Table.insert`` validates its
row, issues its id and logs it at once, but stages the row: readers
see nothing of the batch until the outermost group exits, which
writes the batch's frames, applies each table's staged rows in one
append and syncs. A group that raises still applies what it logged
and syncs nothing.
"""

import sys
import threading

import pytest

from repro.bio import parse_newick
from repro.core import DrugTree
from repro.errors import SchemaError, StorageError
from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.storage.durable import StorageConfig

TREE = "((a:1,b:1)ab:1,(c:1,d:1)cd:1)root;"


@pytest.fixture(autouse=True)
def fresh_metrics():
    set_metrics(MetricsRegistry())
    yield
    set_metrics(MetricsRegistry())


def durable_drugtree(tmp_path, fsync="never"):
    drugtree = DrugTree(parse_newick(TREE), storage=StorageConfig(
        durable=True, data_dir=str(tmp_path / "db"), fsync=fsync))
    for leaf in "abcd":
        drugtree.add_protein(leaf)
    drugtree.create_default_indexes()
    drugtree.tables["bindings"].column_store()
    return drugtree


def binding(drugtree, serial, leaf="a"):
    p_affinity = 5.0 + serial % 7 / 3
    return {"ligand_id": f"L{serial}", "protein_id": leaf,
            "activity_type": "Ki", "value_nm": 10.0 ** (9 - p_affinity),
            "p_affinity": p_affinity, "potent": p_affinity >= 6.0,
            "leaf_pre": drugtree.labeling.leaf_position(leaf)}


def visible(drugtree):
    """What a reader can observe of the bindings."""
    bindings = drugtree.tables["bindings"]
    return (len(bindings), list(bindings.scan()),
            bindings.index_on("ligand_id").lookup("L1"),
            bindings.index_on("leaf_pre").range(None, None),
            len(bindings.column_store()), drugtree.clade_stats("root"),
            drugtree.data_version)


class TestVisibility:
    def test_a_staged_row_shows_only_at_the_outermost_exit(self, tmp_path):
        drugtree = durable_drugtree(tmp_path)
        bindings = drugtree.tables["bindings"]
        batches = []
        bindings.add_insert_listener(
            lambda pairs: batches.append([row_id for row_id, _ in pairs]))
        empty = visible(drugtree)
        with drugtree.database.batch():
            assert bindings.insert(binding(drugtree, 1)) == 0
            assert bindings.next_row_id == 1
            with drugtree.database.batch():
                assert bindings.insert(binding(drugtree, 2, "c")) == 1
            assert visible(drugtree) == empty
            with pytest.raises(StorageError, match="no row 0"):
                bindings.get(0)
            assert bindings.insert(binding(drugtree, 3)) == 2
            assert visible(drugtree) == empty
        assert batches == [[0, 1, 2]]
        assert len(bindings) == 3
        assert bindings.index_on("ligand_id").lookup("L1") == [0]
        assert drugtree.clade_stats("root")["count"] == 3.0
        assert drugtree.clade_stats("cd")["count"] == 1.0
        assert drugtree.data_version == empty[-1] + 3
        assert bindings.column_store().verify_against_rows()

    def test_outside_a_batch_an_insert_is_a_one_row_append(self, tmp_path):
        drugtree = durable_drugtree(tmp_path)
        bindings = drugtree.tables["bindings"]
        batches = []
        bindings.add_insert_listener(
            lambda pairs: batches.append([row_id for row_id, _ in pairs]))
        assert bindings.insert(binding(drugtree, 1)) == 0
        assert len(bindings) == 1 and batches == [[0]]

    def test_a_bad_row_is_refused_before_it_is_logged(self, tmp_path):
        drugtree = durable_drugtree(tmp_path)
        bindings = drugtree.tables["bindings"]
        appends = get_metrics().counter("wal.appends").value
        with drugtree.database.batch():
            bindings.insert(binding(drugtree, 1))
            with pytest.raises(SchemaError, match="not nullable"):
                bindings.insert({**binding(drugtree, 2),
                                 "p_affinity": None})
            bindings.insert(binding(drugtree, 3))
        assert get_metrics().counter("wal.appends").value == appends + 2
        assert [row_id for row_id, _ in bindings.scan()] == [0, 1]


class TestExceptionsInsideABatch:
    def test_the_logged_rows_are_applied_and_nothing_is_synced(
            self, tmp_path):
        drugtree = durable_drugtree(tmp_path, fsync="always")
        bindings = drugtree.tables["bindings"]
        fsyncs = get_metrics().counter("wal.fsyncs").value
        appends = get_metrics().counter("wal.appends").value
        with pytest.raises(RuntimeError):
            with drugtree.database.batch():
                for serial in range(3):
                    bindings.insert(binding(drugtree, serial))
                raise RuntimeError("abandon the batch")
        assert len(bindings) == 3
        assert get_metrics().counter("wal.appends").value == appends + 3
        assert get_metrics().counter("wal.fsyncs").value == fsyncs
        drugtree.database.wal.close()  # a kill: the OS has the frames
        reopened = DrugTree(drugtree.tree, storage=drugtree.storage)
        assert list(reopened.tables["bindings"].scan()) \
            == list(bindings.scan())
        reopened.close()

    def test_each_batch_writes_its_frames_in_one_write(self, tmp_path):
        drugtree = durable_drugtree(tmp_path)
        wal = drugtree.database.wal
        writes = []

        class CountingFile:
            def __init__(self, file):
                self.file = file

            def write(self, data):
                writes.append(len(data))
                return self.file.write(data)

            def __getattr__(self, name):
                return getattr(self.file, name)

        wal._file = CountingFile(wal._file)
        counters = get_metrics().counter_values()
        with drugtree.database.batch():
            for serial in range(5):
                drugtree.tables["bindings"].insert(binding(drugtree, serial))
            assert writes == []
        after = get_metrics().counter_values()
        assert after["wal.appends"] - counters["wal.appends"] == 5
        assert writes == [after["wal.bytes"] - counters["wal.bytes"]]


class TestReadersDuringCommits:
    def test_readers_see_whole_batches_and_filled_positions(self,
                                                           tmp_path):
        """Real threads, a switch every microsecond: readers scan and
        walk the column store while one thread commits 100-row
        batches. A scan holds whole batches only, and every position
        the store publishes is held by every list and typed mirror."""
        drugtree = durable_drugtree(tmp_path)
        bindings = drugtree.tables["bindings"]
        store = bindings.column_store()
        mirrored = ("value_nm", "p_affinity", "potent", "leaf_pre")
        errors: list[BaseException] = []
        done = threading.Event()

        def reader() -> None:
            try:
                while not done.is_set():
                    ids = [row_id for row_id, _ in bindings.scan()]
                    assert len(ids) % 100 == 0
                    assert ids == list(range(len(ids)))
                    positions = store.live_positions()
                    for name in mirrored:
                        data, _ = store.typed(name)
                        assert len(data) >= len(positions), name
                    for name in store.column_names:
                        assert len(store.column(name)) >= len(positions)
                    if len(positions):
                        store.position_of(store._row_ids[positions[-1]])
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)

        def writer() -> None:
            try:
                for batch in range(30):
                    with drugtree.database.batch():
                        for slot in range(100):
                            bindings.insert(binding(
                                drugtree, batch * 100 + slot, "abcd"[slot % 4]))
            except Exception as error:  # noqa: BLE001 - reported below
                errors.append(error)
            finally:
                done.set()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=reader) for _ in range(3)]
            threads.append(threading.Thread(target=writer))
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(bindings) == 3000
        assert store.verify_against_rows()
        drugtree.close()
