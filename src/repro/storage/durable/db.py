"""The durable key-value database: WAL + memtable + leveled SSTables.

One :class:`Database` persists every overlay table of a DrugTree under
a single data directory::

    data_dir/
        MANIFEST.json     # the authority: segment list + WAL name
        wal.log           # CRC-framed records since the last flush
        seg-000001.sst    # immutable sorted segments, leveled

Write path: a mutation is framed into the WAL *first* (group commit
and fsync policy per :class:`StorageConfig`), then applied to the
memtable; once the memtable passes ``memtable_flush_bytes`` it is
written as a level-0 SSTable, the manifest is swapped atomically
(``tmp`` + ``os.replace``), and the WAL resets. When a level collects
more than :data:`LEVEL_FANOUT` segments, it is merged with the level below
into one new segment; tombstones are garbage-collected only when the
merge lands on the bottom level (below which no older version of any
key can hide).

A :class:`~repro.faults.Crash` in the schedule installed with
:meth:`Database.set_schedule` kills the store at its crash point (see
:data:`~repro.faults.CRASH_POINTS`), once.

Recovery (:meth:`Database.open`) is the inverse: read the manifest,
drop orphaned segment files the manifest never adopted (the residue of
a crash mid-flush), replay the WAL — truncating a torn tail — into a
fresh memtable. The committed pre-crash state is restored exactly:
a record is committed once its WAL frame is complete, and nothing else
survives.

Keys are strings. Overlay rows use ``t/<table>/<row_id:012d>`` (zero
padding makes lexicographic order equal numeric row-id order) with the
row tuple JSON-encoded — floats round-trip bit-exactly through
``repr``. Overlay tables only append, so their adapter writes puts
only. A directory written while tables could still drop rows holds row
tombstones and ``m/<table>/rowid``, the table's next-row-id watermark,
logged with each tombstone so that tombstone GC can never regress
row-id assignment. Recovery reads both.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterator
from dataclasses import dataclass
from typing import Any

from repro.errors import StorageError
from repro.faults import CrashPoint, FaultSchedule
from repro.obs import get_metrics, get_tracer
from repro.storage.durable.memtable import TOMBSTONE, MemTable
from repro.storage.durable.sstable import (
    JSON_DECODER,
    JSON_ENCODER,
    SSTableReader,
    write_sstable,
)
from repro.storage.durable.wal import WriteAheadLog

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"

#: Segments a level tolerates before compacting into the next.
LEVEL_FANOUT = 4


@dataclass(frozen=True)
class StorageConfig:
    """Knobs of the table layer's (opt-in) durable mode."""

    durable: bool = False
    data_dir: str | None = None
    #: WAL sync policy: ``always`` | ``batch`` | ``never``.
    fsync: str = "batch"
    #: Memtable size that triggers a flush to a level-0 SSTable.
    memtable_flush_bytes: int = 256 * 1024

    def __post_init__(self) -> None:
        if self.fsync not in ("always", "batch", "never"):
            raise StorageError(f"unknown fsync policy {self.fsync!r}")
        if self.durable and not self.data_dir:
            raise StorageError("durable mode needs a data_dir")


def row_key(table: str, row_id: int) -> str:
    """Zero-padded so key order equals row-id order per table."""
    return f"t/{table}/{row_id:012d}"


def meta_key(table: str) -> str:
    return f"m/{table}/rowid"


@dataclass
class SegmentInfo:
    """One manifest-adopted SSTable."""

    segment_id: int
    level: int
    file: str
    reader: SSTableReader

    def as_row(self) -> dict[str, Any]:
        return {
            "id": self.segment_id,
            "level": self.level,
            "file": self.file,
            "keys": self.reader.count,
            "tombstones": self.reader.tombstones,
            "bytes": self.reader.size_bytes,
            "min_key": self.reader.min_key,
            "max_key": self.reader.max_key,
        }


@dataclass
class RecoveryReport:
    """What :meth:`Database.open` found and repaired."""

    segments: int = 0
    wal_records: int = 0
    torn_bytes: int = 0
    orphans_removed: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "segments": self.segments,
            "wal_records": self.wal_records,
            "torn_bytes": self.torn_bytes,
            "orphans_removed": self.orphans_removed,
        }


def _merge(segments: list[SegmentInfo]) -> dict[str, Any]:
    """Every key of *segments* and its newest value (or TOMBSTONE).

    Reads the segments oldest-to-newest: deepest level first, then by
    segment id. A compaction merges a level into the one below it
    whole, so a level's versions are newer than any below it, and only
    level 0 holds more than one segment. The id alone is not recency:
    merging levels 1 and 2 mints an id newer than level 0's segments.
    """
    merged: dict[str, Any] = {}
    for segment in sorted(segments,
                          key=lambda s: (-s.level, s.segment_id)):
        merged.update(segment.reader.entries())
    return merged


class Database:
    """An LSM-tree key-value store under one data directory."""

    def __init__(self, data_dir: str,
                 config: StorageConfig | None = None) -> None:
        self.data_dir = data_dir
        self.config = config or StorageConfig(durable=True,
                                              data_dir=data_dir)
        os.makedirs(data_dir, exist_ok=True)
        self.segments: list[SegmentInfo] = []
        self.next_segment_id = 1
        self.memtable = MemTable()
        self.recovery = RecoveryReport()
        self.compactions = 0
        self.tombstones_collected = 0
        #: Open :meth:`batch` groups; the outermost one commits.
        self._batch_depth = 0
        self._closed = False
        self._recover()
        self.wal = WriteAheadLog(
            os.path.join(data_dir, WAL_NAME),
            fsync=self.config.fsync,
        )
        self.set_schedule(FaultSchedule())
        self._publish_gauges()

    @classmethod
    def open(cls, data_dir: str,
             config: StorageConfig | None = None) -> "Database":
        """Open (and recover) the database at *data_dir*."""
        return cls(data_dir, config)

    def set_schedule(self, schedule: FaultSchedule) -> None:
        """Install a fault schedule; its crashes kill this store."""
        self.schedule = schedule
        self.wal.schedule = schedule

    def _crash(self, point: str) -> None:
        if self.schedule.crash_at(point):
            raise CrashPoint(point)

    # -- recovery ----------------------------------------------------------

    def _manifest_path(self) -> str:
        return os.path.join(self.data_dir, MANIFEST_NAME)

    def _recover(self) -> None:
        tracer = get_tracer()
        with tracer.span("durable.recover",
                         data_dir=self.data_dir) as span:
            segments: list[dict[str, Any]] = []
            next_segment_id = 1
            path = self._manifest_path()
            if os.path.exists(path):
                try:
                    with open(path, encoding="utf-8") as handle:
                        manifest = json.load(handle)
                    segments = manifest["segments"]
                    next_segment_id = manifest["next_segment_id"]
                except (ValueError, KeyError, TypeError) as exc:
                    raise StorageError(
                        f"manifest {path!r} is corrupt: {exc!r}") from exc
            adopted: set[str] = set()
            for entry in segments:
                file_path = os.path.join(self.data_dir, entry["file"])
                if not os.path.exists(file_path):
                    raise StorageError(
                        f"manifest references missing segment "
                        f"{entry['file']!r}"
                    )
                self.segments.append(SegmentInfo(
                    segment_id=entry["id"], level=entry["level"],
                    file=entry["file"],
                    reader=SSTableReader(file_path),
                ))
                adopted.add(entry["file"])
            self.next_segment_id = next_segment_id
            # Orphans: segment files a crash wrote but the manifest
            # never adopted. The manifest is the authority; drop them.
            for name in sorted(os.listdir(self.data_dir)):
                if name.startswith("seg-") and name.endswith(".sst") \
                        and name not in adopted:
                    os.remove(os.path.join(self.data_dir, name))
                    self.recovery.orphans_removed += 1
            payloads, torn = WriteAheadLog.replay(
                os.path.join(self.data_dir, WAL_NAME)
            )
            for payload in payloads:
                record = JSON_DECODER.decode(payload.decode("utf-8"))
                value = (TOMBSTONE if record["op"] == "del"
                         else record["value"])
                self.memtable.put(record["key"], value, len(payload))
            self.recovery.segments = len(self.segments)
            self.recovery.wal_records = len(payloads)
            self.recovery.torn_bytes = torn
            span.set("segments", len(self.segments))
            span.set("wal_records", len(payloads))
            span.set("torn_bytes", torn)
            span.set("orphans_removed", self.recovery.orphans_removed)

    def _write_manifest(self) -> None:
        manifest = {
            "segments": [
                {"id": s.segment_id, "level": s.level, "file": s.file}
                for s in self.segments
            ],
            "next_segment_id": self.next_segment_id,
        }
        tmp = self._manifest_path() + ".tmp"
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=1, sort_keys=True)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, self._manifest_path())

    # -- write path --------------------------------------------------------

    def put(self, key: str, value: Any) -> None:
        self._log({"op": "put", "key": key, "value": value})

    def delete(self, key: str) -> None:
        self._log({"op": "del", "key": key})

    def _log(self, record: dict[str, Any]) -> None:
        payload = JSON_ENCODER.encode(record).encode("utf-8")
        in_batch = self._batch_depth > 0
        self.wal.append(payload, defer_sync=in_batch)
        value = TOMBSTONE if record["op"] == "del" else record["value"]
        self.memtable.put(record["key"], value, len(payload))
        get_metrics().gauge("memtable.bytes").set(self.memtable.bytes)
        self._crash("db.after_append")
        if not in_batch \
                and self.memtable.bytes >= self.config.memtable_flush_bytes:
            self.flush()

    class _Batch:
        """Group commit: one fsync (and flush check) per batch.

        Batches nest: a group opened inside another joins it, and only
        the outermost exit syncs and may flush.
        """

        def __init__(self, db: "Database") -> None:
            self.db = db

        def __enter__(self) -> "Database":
            self.db._batch_depth += 1
            return self.db

        def __exit__(self, exc_type, exc, tb) -> None:
            self.db._batch_depth -= 1
            if exc_type is None and not self.db._batch_depth:
                self.db.wal.sync()
                if self.db.memtable.bytes \
                        >= self.db.config.memtable_flush_bytes:
                    self.db.flush()

    def batch(self) -> "_Batch":
        return self._Batch(self)

    # -- read path ---------------------------------------------------------

    def scan(self) -> Iterator[tuple[str, Any]]:
        """Every live ``(key, value)`` pair, in key order.

        Merges segments oldest-to-newest, then the memtable, so the
        newest version of each key wins; tombstoned keys are dropped.
        Each segment is read once, whole.
        """
        merged = _merge(self.segments)
        merged.update(self.memtable.items())
        for key in sorted(merged):
            value = merged[key]
            if value is not TOMBSTONE:
                yield key, value

    def committed_tables(self) -> tuple[
            dict[str, list[tuple[int, tuple[Any, ...]]]], dict[str, int]]:
        """Each table's committed ``(row_id, row)`` pairs in ascending
        row id, and each table's row-id watermark, from one
        :meth:`scan` — what recovery hands the overlay."""
        rows: dict[str, list[tuple[int, tuple[Any, ...]]]] = {}
        watermarks: dict[str, int] = {}
        for key, value in self.scan():
            kind, table, rest = key.split("/", 2)
            if kind == "t":
                rows.setdefault(table, []).append((int(rest), tuple(value)))
            elif kind == "m":
                watermarks[table] = int(value)
        return rows, watermarks

    # -- flush & compaction ------------------------------------------------

    def _write_segment(self, items: list[tuple[str, Any]],
                       level: int) -> SegmentInfo:
        segment_id = self.next_segment_id
        self.next_segment_id += 1
        name = f"seg-{segment_id:06d}.sst"
        write_sstable(os.path.join(self.data_dir, name), items)
        return SegmentInfo(
            segment_id=segment_id, level=level, file=name,
            reader=SSTableReader(os.path.join(self.data_dir, name)),
        )

    def flush(self) -> SegmentInfo | None:
        """Freeze the memtable into a level-0 segment; reset the WAL."""
        if not len(self.memtable):
            return None
        tracer = get_tracer()
        with tracer.span("durable.flush",
                         entries=len(self.memtable)) as span:
            self.wal.sync()
            segment = self._write_segment(self.memtable.items_sorted(),
                                          level=0)
            # A kill here leaves the segment orphaned and the WAL
            # intact: recovery drops the file and replays the log.
            self._crash("flush.before_manifest")
            self.segments.append(segment)
            self._write_manifest()
            self.wal.reset()
            self.memtable.clear()
            span.set("segment", segment.file)
            get_metrics().counter("lsm.flushes").inc()
        self._publish_gauges()
        self.maybe_compact()
        return segment

    def maybe_compact(self) -> None:
        """Compact any level holding more than ``LEVEL_FANOUT`` segments."""
        while True:
            counts: dict[int, int] = {}
            for segment in self.segments:
                counts[segment.level] = counts.get(segment.level, 0) + 1
            overfull = [level for level, count in counts.items()
                        if count > LEVEL_FANOUT]
            if not overfull:
                return
            self.compact_level(min(overfull))

    def compact_level(self, level: int) -> SegmentInfo | None:
        """Merge all of *level* and *level + 1* into one new segment.

        Tombstones are dropped only when the output becomes the
        bottom-most level — below it no older segment can still hold a
        value the tombstone must keep shadowing.
        """
        merging = [s for s in self.segments
                   if s.level in (level, level + 1)]
        if not merging:
            return None
        bottom = all(s.level <= level + 1 for s in self.segments)
        tracer = get_tracer()
        with tracer.span("durable.compact", level=level,
                         inputs=len(merging)) as span:
            merged = _merge(merging)
            items = []
            dropped = 0
            for key in sorted(merged):
                value = merged[key]
                if value is TOMBSTONE and bottom:
                    dropped += 1
                    continue
                items.append((key, value))
            survivors = [s for s in self.segments if s not in merging]
            if items:
                segment = self._write_segment(items, level=level + 1)
            else:
                segment = None
            self._crash("compact.before_manifest")
            self.segments = survivors + ([segment] if segment else [])
            self._write_manifest()
            for old in merging:
                os.remove(os.path.join(self.data_dir, old.file))
            self.compactions += 1
            self.tombstones_collected += dropped
            metrics = get_metrics()
            metrics.counter("lsm.compactions").inc()
            metrics.counter("lsm.tombstones_collected").inc(dropped)
            span.set("output", segment.file if segment else None)
            span.set("tombstones_dropped", dropped)
        self._publish_gauges()
        return segment

    def compact(self) -> None:
        """Major compaction: everything into one tombstone-free segment."""
        self.flush()
        while len(self.segments) > 1:
            self.compact_level(min(s.level for s in self.segments))
        if self.segments and self.segments[0].reader.tombstones:
            self.compact_level(self.segments[0].level)

    def _publish_gauges(self) -> None:
        metrics = get_metrics()
        metrics.gauge("memtable.bytes").set(self.memtable.bytes)
        counts: dict[int, int] = {}
        for segment in self.segments:
            counts[segment.level] = counts.get(segment.level, 0) + 1
        for level in range(max(counts, default=-1) + 1):
            metrics.gauge(f"lsm.level_{level}.segments").set(
                counts.get(level, 0)
            )

    # -- inspection --------------------------------------------------------

    def level_stats(self) -> list[dict[str, Any]]:
        """Per-level segment/key/byte totals (the CLI's table)."""
        levels: dict[int, dict[str, int]] = {}
        for segment in self.segments:
            stats = levels.setdefault(
                segment.level,
                {"segments": 0, "keys": 0, "tombstones": 0, "bytes": 0},
            )
            stats["segments"] += 1
            stats["keys"] += segment.reader.count
            stats["tombstones"] += segment.reader.tombstones
            stats["bytes"] += segment.reader.size_bytes
        return [{"level": level, **stats}
                for level, stats in sorted(levels.items())]

    def close(self) -> None:
        """Clean shutdown: flush what's pending, release the WAL.

        Idempotent — a second close is a no-op, so owners with
        overlapping lifetimes (a DrugTree and a test fixture, say) can
        both call it safely.
        """
        if self._closed:
            return
        self._closed = True
        self.flush()
        self.wal.close()

    def __repr__(self) -> str:
        return (f"Database({self.data_dir!r}, "
                f"segments={len(self.segments)}, "
                f"memtable={len(self.memtable)})")


class DurableTableAdapter:
    """Bridge between one :class:`~repro.storage.table.Table` and the
    shared :class:`Database`.

    The table calls :meth:`log_insert` *before* touching its in-memory
    state (write-ahead order); tables only append, so that is the
    adapter's one write. Recovery goes through the store, not the
    adapter: :meth:`Database.committed_tables` hands the DrugTree every
    table's rows and watermark at once.
    """

    def __init__(self, database: Database, table_name: str) -> None:
        self.database = database
        self.table_name = table_name

    def log_insert(self, row_id: int, row: tuple[Any, ...]) -> None:
        self.database.put(row_key(self.table_name, row_id), list(row))
