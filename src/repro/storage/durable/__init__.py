"""Durable storage engine: WAL + memtable + append-only SSTables.

The opt-in persistence layer beneath :mod:`repro.storage.table`. See
``docs/DURABILITY.md`` for file formats, the recovery protocol, and
why flushes never compact; :mod:`repro.storage.durable.db` for the
write path. This package (plus :mod:`repro.obs`) is the only place allowed
to mutate files directly — lint rule L007 enforces that everything
else persists through the WAL.
"""

from repro.storage.durable.db import (
    Database,
    DurableTableAdapter,
    RecoveryReport,
    SegmentInfo,
    StorageConfig,
    row_key,
)
from repro.storage.durable.memtable import MemTable
from repro.storage.durable.sstable import SSTableReader, write_sstable
from repro.storage.durable.wal import WriteAheadLog

__all__ = [
    "Database",
    "DurableTableAdapter",
    "MemTable",
    "RecoveryReport",
    "SSTableReader",
    "SegmentInfo",
    "StorageConfig",
    "WriteAheadLog",
    "row_key",
    "write_sstable",
]
