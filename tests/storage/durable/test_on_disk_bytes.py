"""The durable store's bytes are a function of what was written.

A golden digest pins a fixed-seed data directory (segments, manifest
and WAL) as the straightforward flush and compaction code wrote it; the
zone-map kernel is held to the cell-at-a-time fold on generated rows;
and reopening decodes each stored value at most once.
"""

import hashlib
import json
import os
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chem.affinity import ActivityType, BindingRecord
from repro.core import DrugTree
from repro.storage.durable import StorageConfig, sstable
from repro.storage.durable.db import _table_meta
from repro.storage.durable.memtable import TOMBSTONE
from repro.workloads import DatasetConfig, build_dataset
from tests.storage.oracles import table_meta_cellwise

WORLD = DatasetConfig(n_leaves=24, n_ligands=40, seed=1103)
#: sha256 over (name, sha256(bytes)) of every file, sorted by name:
#: after the writes (two levels, tombstones, a WAL tail) and after a
#: major compaction. Captured from the row-at-a-time implementation.
WRITTEN = "0081281eae0dfcee3722d0ea348bb216a72aa3ac8029e9714abb620525e3d1ef"
COMPACTED = "b02f60ed9234fb2332fc363ac5dce3138f3217de72a0cc8f1c34d32e4d1ff6b8"


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


_CELLS = {
    "int": st.integers(-5, 5),
    "float": st.floats(-5, 5, allow_nan=False).map(lambda x: x + 0.0),
    "number": st.one_of(st.integers(-3, 3),
                        st.sampled_from([-1.0, 0.0, 1.0, 2.5])),
    "bool": st.booleans(),
    "str": st.sampled_from(["", "a", "b", "ab", "10", "9"]),
    "mixed": st.one_of(st.booleans(), st.integers(0, 2),
                       st.sampled_from([0.0, 1.0, 1.5]),
                       st.sampled_from(["0", "1", "a"])),
    "null": st.none(),
}


@st.composite
def segment_items(draw):
    """Sorted, unique ``(key, value)`` items as a flush or compaction
    hands them over: rows of a few tables (NULLs, ragged widths,
    same-kind and mixed columns), tombstones, and non-row keys."""
    items = {}
    for table in draw(st.lists(st.sampled_from(["a", "bb", "c"]),
                               unique=True, max_size=3)):
        kinds = draw(st.lists(st.sampled_from(sorted(_CELLS)),
                              min_size=1, max_size=5))
        for rid in draw(st.lists(st.integers(0, 60), unique=True,
                                 max_size=25)):
            key = f"t/{table}/{rid:012d}"
            if draw(st.integers(0, 7)) == 0:
                items[key] = TOMBSTONE
                continue
            width = draw(st.integers(max(0, len(kinds) - 1), len(kinds)))
            items[key] = [draw(st.one_of(st.none(), _CELLS[kind]))
                          for kind in kinds[:width]]
    if draw(st.booleans()):
        items["m/a/rowid"] = draw(st.integers(0, 99))
    return sorted(items.items())


@settings(max_examples=200, deadline=None)
@given(segment_items())
def test_zone_kernel_matches_the_cell_fold(items):
    got, want = _table_meta(items), table_meta_cellwise(items)
    assert got == want
    # JSON tells 1 from 1.0 from True: the footer bytes are equal too.
    assert json.dumps(got) == json.dumps(want)
