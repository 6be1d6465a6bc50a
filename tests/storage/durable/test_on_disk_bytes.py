"""The durable store's bytes are a function of what was written.

A golden digest pins a fixed-seed data directory (segments, manifest
and WAL) as the straightforward flush and compaction code wrote it;
a directory whose segment footers still carry the retired ``meta`` key
opens, reads, compacts and recovers like a current one; and reopening
decodes each stored value at most once.
"""

import hashlib
import json
import os
from pathlib import Path

from repro.chem.affinity import ActivityType, BindingRecord
from repro.core import DrugTree
from repro.storage.durable import StorageConfig, sstable
from repro.storage.durable.db import row_key
from repro.storage.durable.memtable import TOMBSTONE
from repro.workloads import DatasetConfig, build_dataset

WORLD = DatasetConfig(n_leaves=24, n_ligands=40, seed=1103)
#: sha256 over (name, sha256(bytes)) of every file, sorted by name:
#: after the writes (two levels, tombstones, a WAL tail) and after a
#: major compaction. Re-captured when segment footers dropped their
#: ``meta`` key, a deliberate format change; nothing else moved.
WRITTEN = "924750e960442b3bb00257a38edf65a344aac389b6b077afffed38af2f5173f7"
COMPACTED = "909721c45c2a7a743bbe54146aacc4416b98c4badca7f1eff17106d18ba93205"


def digest(data_dir: Path) -> str:
    total = hashlib.sha256()
    for name in sorted(os.listdir(data_dir)):
        total.update(name.encode() + b"\0")
        total.update(hashlib.sha256((data_dir / name).read_bytes()).digest())
    return total.hexdigest()


def write_world(data_dir: Path):
    """Integrate in small flushes, delete every fifth binding, then log
    a few more bindings in one batch that stays in the WAL."""
    dataset = build_dataset(WORLD)
    drugtree, _ = dataset.integrate(storage=StorageConfig(
        durable=True, data_dir=str(data_dir), memtable_flush_bytes=8192))
    bindings = drugtree.tables["bindings"]
    for row_id in range(0, bindings.next_row_id, 5):
        bindings.delete(row_id)
    proteins = sorted(dataset.family.protein_ids)
    with drugtree.database.batch():
        for i in range(5):
            drugtree.add_binding(BindingRecord(
                ligand_id=dataset.ligands[i % 3].ligand_id,
                protein_id=proteins[i % len(proteins)],
                activity_type=ActivityType.KI, value_nm=10.0 ** (i % 5)))
    return dataset, drugtree


def test_golden_directory_digest(tmp_path):
    _, drugtree = write_world(tmp_path / "db")
    levels = [stats["level"] for stats in drugtree.database.level_stats()]
    assert levels == [0, 1]
    assert len(drugtree.database.memtable) > 0
    assert digest(tmp_path / "db") == WRITTEN
    drugtree.database.compact()
    assert digest(tmp_path / "db") == COMPACTED
    drugtree.close()
    assert digest(tmp_path / "db") == COMPACTED


class CountingDecoder(json.JSONDecoder):
    def __init__(self):
        super().__init__()
        self.calls = 0

    def decode(self, text):
        self.calls += 1
        return super().decode(text)


def test_reopen_decodes_each_stored_value_at_most_once(tmp_path,
                                                      monkeypatch):
    dataset, drugtree = write_world(tmp_path / "db")
    rows = {name: dict(table.scan())
            for name, table in drugtree.tables.items()}
    drugtree.database.wal.sync()
    entries = sum(segment.reader.count
                  for segment in drugtree.database.segments)
    decoder = CountingDecoder()
    monkeypatch.setattr(sstable, "JSON_DECODER", decoder)
    reopened = DrugTree(dataset.tree, storage=StorageConfig(
        durable=True, data_dir=str(tmp_path / "db")))
    assert {name: dict(table.scan())
            for name, table in reopened.tables.items()} == rows
    # Three table scans and three watermark reads; scanning every
    # segment whole per table would decode 3 * entries.
    assert 0 < decoder.calls <= entries
    reopened.close()
    drugtree.close()


#: ``write_world``'s directory as written while segment footers carried
#: a ``meta`` key (the ``WRITTEN`` digest of that format).
LEGACY_WRITTEN = \
    "0081281eae0dfcee3722d0ea348bb216a72aa3ac8029e9714abb620525e3d1ef"


def legacy_meta(items):
    """The retired footer ``meta``: per table, the row-id interval of
    its puts and each column position's ``[min, max]`` over non-NULL
    cells (``None`` when all are NULL), folded one cell at a time."""
    tables = {}
    for key, value in items:
        if value is TOMBSTONE or not key.startswith("t/") \
                or not isinstance(value, list):
            continue
        _, table, rid = key.split("/", 2)
        meta = tables.setdefault(table, {"rid_min": int(rid),
                                         "rid_max": int(rid), "zones": []})
        meta["rid_min"] = min(meta["rid_min"], int(rid))
        meta["rid_max"] = max(meta["rid_max"], int(rid))
        zones = meta["zones"]
        zones.extend([None] * (len(value) - len(zones)))
        for position, cell in enumerate(value):
            if cell is None:
                continue
            if zones[position] is None:
                zones[position] = [cell, cell]
            low, high = zones[position]
            if _kind(cell) is _kind(low):  # other kinds never compare
                zones[position] = [min(low, cell), max(high, cell)]
    return tables


def _kind(cell):
    return bool if isinstance(cell, bool) \
        else str if isinstance(cell, str) else float


def with_legacy_footers(data_dir: Path) -> None:
    """Rewrite every segment's footer the way the previous format did:
    the same keys, then ``meta`` last."""
    for name in sorted(os.listdir(data_dir)):
        if not name.endswith(".sst"):
            continue
        path = data_dir / name
        reader = sstable.SSTableReader(str(path))
        data = path.read_bytes()
        length = sstable._FOOTER_LEN
        footer = json.loads(data[reader.data_end:-length.size])
        footer["meta"] = legacy_meta(list(reader.entries()))
        footer_bytes = sstable.JSON_ENCODER.encode(footer).encode("utf-8")
        path.write_bytes(data[:reader.data_end] + footer_bytes
                         + length.pack(len(footer_bytes)))


def test_a_segment_with_the_old_meta_footer_still_works(tmp_path):
    data_dir = tmp_path / "db"
    dataset, drugtree = write_world(data_dir)
    rows = {name: dict(table.scan())
            for name, table in drugtree.tables.items()}
    drugtree.database.wal.close()  # the writer exits without a flush
    with_legacy_footers(data_dir)
    assert digest(data_dir) == LEGACY_WRITTEN

    def reopen():
        return DrugTree(dataset.tree, storage=StorageConfig(
            durable=True, data_dir=str(data_dir)))

    reopened = reopen()
    assert {name: dict(table.scan())
            for name, table in reopened.tables.items()} == rows
    database = reopened.database
    bindings = rows["bindings"]
    for row_id in sorted(bindings)[::7]:
        assert database.get(row_key("bindings", row_id)) \
            == list(bindings[row_id])
    assert [int(key.rsplit("/", 1)[1])
            for key, _ in database.scan("t/bindings/")] == sorted(bindings)
    database.compact()
    assert digest(data_dir) == COMPACTED
    reopened.close()
    recovered = reopen()
    assert {name: dict(table.scan())
            for name, table in recovered.tables.items()} == rows
    recovered.close()
