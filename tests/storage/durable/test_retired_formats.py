"""What the store no longer reads is refused by name, never half-read.

While overlay tables could still drop rows, the store wrote tombstones
(flag-1 segment entries and ``"del"`` WAL records) and
``m/<table>/rowid`` row-id watermarks. It now holds puts only, so a
directory holding any of the three raises ``StorageError`` naming the
file or key. :mod:`tests.storage.oracles` rebuilds the retired
writer's bytes; the digests below were taken from that writer's output.
"""

import hashlib
import re

import pytest

from repro.bio import parse_newick
from repro.core import DrugTree
from repro.errors import StorageError
from repro.storage.durable import Database, StorageConfig
from tests.storage.oracles import (
    DELETED,
    retired_delete_frame,
    retired_segment,
)

ITEMS = [("t/x/000000000000", ["a", 1, 0.5]),
         ("t/x/000000000001", DELETED),
         ("t/x/000000000002", ["c", 3, None])]
#: sha256 of the retired writer's ``write_sstable(ITEMS)`` and of the
#: WAL frame its ``Database.delete("t/x/000000000001")`` appended.
SEGMENT_SHA = \
    "5672b7caaf776640f7d2bfcad6c0f869405912c63d90410b3798922f2c6a7e90"
FRAME_SHA = \
    "67bf29ced5c28a20340c19e0b5660c3df61bdb08550ba98032a5466d5fd304cc"


def test_the_oracle_rebuilds_the_retired_writer_byte_for_byte():
    assert hashlib.sha256(retired_segment(ITEMS)).hexdigest() == SEGMENT_SHA
    assert hashlib.sha256(retired_delete_frame(ITEMS[1][0])).hexdigest() \
        == FRAME_SHA


def store_of(tmp_path):
    """A closed store holding ``ITEMS``' puts in one segment."""
    db = Database.open(str(tmp_path / "db"))
    for key, value in ITEMS:
        if value is not DELETED:
            db.put(key, value)
    db.close()
    return tmp_path / "db"


def test_a_segment_holding_a_tombstone_is_refused(tmp_path):
    data_dir = store_of(tmp_path)
    (data_dir / "seg-000001.sst").write_bytes(retired_segment(ITEMS))
    db = Database.open(str(data_dir))
    with pytest.raises(StorageError, match=r"seg-000001\.sst.*"
                       r"'t/x/000000000001'.*no longer read"):
        list(db.scan())


def test_a_del_wal_record_is_refused(tmp_path):
    data_dir = store_of(tmp_path)
    with open(data_dir / "wal.log", "ab") as wal:
        wal.write(retired_delete_frame("t/x/000000000001"))
    with pytest.raises(StorageError, match=r"wal\.log.*'del'.*"
                       r"'t/x/000000000001'.*no longer read"):
        Database.open(str(data_dir))


def test_a_row_id_watermark_is_refused(tmp_path):
    tree = "((a:1,b:1)ab:1,(c:1,d:1)cd:1)root;"
    data_dir = str(tmp_path / "db")
    storage = StorageConfig(durable=True, data_dir=data_dir)
    drugtree = DrugTree(parse_newick(tree), storage=storage)
    drugtree.database.put("m/bindings/rowid", 7)
    drugtree.close()
    with pytest.raises(StorageError, match=re.escape(repr(data_dir))
                       + r".*'m/bindings/rowid'.*no longer read"):
        DrugTree(parse_newick(tree), storage=storage)
