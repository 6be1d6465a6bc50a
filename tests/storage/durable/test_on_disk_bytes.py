"""The durable store's bytes are a function of what was written.

A golden digest pins a fixed-seed data directory (segments, manifest
and WAL) as the straightforward flush and compaction code wrote it;
a directory in either older footer format (with the retired key
filter, block index and tombstone count, and before that also
``meta``) opens, reads, compacts and recovers like a current one; and
reopening decodes each stored value at most once.
"""

import hashlib
import json
import os
from pathlib import Path

from repro.chem.affinity import ActivityType, BindingRecord
from repro.core import DrugTree
from repro.storage.durable import StorageConfig, sstable
from repro.storage.durable.db import row_key
from repro.workloads import DatasetConfig, build_dataset
from tests.storage.oracles import retired_key_index, with_tombstone_count

WORLD = DatasetConfig(n_leaves=24, n_ligands=40, seed=1103)
#: sha256 over (name, sha256(bytes)) of every file, sorted by name:
#: after the writes (level-0 segments only, a WAL tail) and after a
#: major compaction. Re-captured when segment footers dropped their
#: ``meta`` key, and again when they dropped the key filter and block
#: index: deliberate format changes; nothing else moved. Again when
#: flushes stopped compacting: the segments and their ids moved, the
#: format did not. Again when the store came to hold puts only: this
#: directory stopped holding tombstones and row-id watermarks, and
#: footers dropped their ``tombstones`` count.
WRITTEN = "daf2cfec2bf4bc7f22918d1873c739a3edacf8beb16e2d5ff92b6aed35697e3d"
COMPACTED = "0526f188673da8661633b397ab5a556910befc2498c2e621e9bbf67a28844193"


def digest(data_dir: Path) -> str:
    total = hashlib.sha256()
    for name in sorted(os.listdir(data_dir)):
        total.update(name.encode() + b"\0")
        total.update(hashlib.sha256((data_dir / name).read_bytes()).digest())
    return total.hexdigest()


def write_world(data_dir: Path):
    """Integrate in small flushes, then log a few more bindings in one
    batch that stays in the WAL. Returns the dataset, the DrugTree and
    the rows a reopen recovers: the overlay's."""
    dataset = build_dataset(WORLD)
    drugtree, _ = dataset.integrate(storage=StorageConfig(
        durable=True, data_dir=str(data_dir), memtable_flush_bytes=8192))
    proteins = sorted(dataset.family.protein_ids)
    with drugtree.database.batch():
        for i in range(5):
            drugtree.add_binding(BindingRecord(
                ligand_id=dataset.ligands[i % 3].ligand_id,
                protein_id=proteins[i % len(proteins)],
                activity_type=ActivityType.KI, value_nm=10.0 ** (i % 5)))
    rows = {name: dict(table.scan())
            for name, table in drugtree.tables.items()}
    return dataset, drugtree, rows


def test_golden_directory_digest(tmp_path):
    _, drugtree, _ = write_world(tmp_path / "db")
    levels = [stats["level"] for stats in drugtree.database.level_stats()]
    assert levels == [0]
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
    dataset, drugtree, rows = write_world(tmp_path / "db")
    drugtree.database.wal.sync()
    entries = sum(segment.reader.count
                  for segment in drugtree.database.segments)
    decoder = CountingDecoder()
    monkeypatch.setattr(sstable, "JSON_DECODER", decoder)
    reopened = DrugTree(dataset.tree, storage=StorageConfig(
        durable=True, data_dir=str(tmp_path / "db")))
    assert {name: dict(table.scan())
            for name, table in reopened.tables.items()} == rows
    # One merged scan; scanning every segment whole per table would
    # decode 3 * entries.
    assert 0 < decoder.calls <= entries
    reopened.close()
    drugtree.close()


#: ``write_world``'s directory as written while segment footers carried
#: the key filter, block index and tombstone count
#: (``KEY_INDEX_WRITTEN``), and before that also a ``meta`` key
#: (``META_WRITTEN``): the ``WRITTEN`` digests of those formats.
KEY_INDEX_WRITTEN = \
    "3a6c50997a17a2403780cccfdabfc4707504860766aa07d88170ad08008f6853"
META_WRITTEN = \
    "ca42391c0bf617dc412b0a733f91b3489a0dc5b634cc5e7d7301104d56933a1a"


def legacy_meta(items):
    """The retired footer ``meta``: per table, the row-id interval of
    its puts and each column position's ``[min, max]`` over non-NULL
    cells (``None`` when all are NULL), folded one cell at a time."""
    tables = {}
    for key, value in items:
        if not key.startswith("t/") or not isinstance(value, list):
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


def with_key_index(entry_area, footer, reader):
    """The footer with the retired key filter and block index first,
    and the retired tombstone count."""
    return {**retired_key_index(entry_area), **with_tombstone_count(footer)}


def with_meta(entry_area, footer, reader):
    """The format before that: the same keys, then ``meta`` last."""
    return {**with_key_index(entry_area, footer, reader),
            "meta": legacy_meta(list(reader.entries()))}


def rewrite_footers(data_dir: Path, footer_of) -> None:
    """Rewrite every segment's footer as ``footer_of(entry_area,
    footer, reader)`` returns it."""
    for name in sorted(os.listdir(data_dir)):
        if not name.endswith(".sst"):
            continue
        path = data_dir / name
        reader = sstable.SSTableReader(str(path))
        data = path.read_bytes()
        length = sstable._FOOTER_LEN
        footer = json.loads(data[reader.data_end:-length.size])
        footer = footer_of(data[:reader.data_end], footer, reader)
        footer_bytes = sstable.JSON_ENCODER.encode(footer).encode("utf-8")
        path.write_bytes(data[:reader.data_end] + footer_bytes
                         + length.pack(len(footer_bytes)))


def reopen(dataset, data_dir: Path) -> DrugTree:
    return DrugTree(dataset.tree, storage=StorageConfig(
        durable=True, data_dir=str(data_dir)))


def test_a_segment_with_the_old_meta_footer_still_works(tmp_path):
    for footer_of, written in ((with_key_index, KEY_INDEX_WRITTEN),
                               (with_meta, META_WRITTEN)):
        data_dir = tmp_path / footer_of.__name__
        dataset, drugtree, rows = write_world(data_dir)
        drugtree.database.wal.close()  # the writer exits without a flush
        rewrite_footers(data_dir, footer_of)
        assert digest(data_dir) == written
        reopened = reopen(dataset, data_dir)
        assert {name: dict(table.scan())
                for name, table in reopened.tables.items()} == rows
        database = reopened.database
        live = dict(database.scan())
        bindings = rows["bindings"]
        for row_id in sorted(bindings)[::7]:
            assert live[row_key("bindings", row_id)] == list(bindings[row_id])
        assert [int(key.rsplit("/", 1)[1]) for key in live
                if key.startswith("t/bindings/")] == sorted(bindings)
        database.compact()
        assert digest(data_dir) == COMPACTED
        reopened.close()
        recovered = reopen(dataset, data_dir)
        assert {name: dict(table.scan())
                for name, table in recovered.tables.items()} == rows
        recovered.close()
