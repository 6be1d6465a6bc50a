"""The durable key-value database: WAL + memtable + append-only SSTables.

One :class:`Database` persists every overlay table of a DrugTree under
a single data directory::

    data_dir/
        MANIFEST.json     # the authority: segment list + WAL name
        wal.log           # CRC-framed records since the last flush
        seg-000001.sst    # immutable sorted segments, one per flush

Write path: a put is framed into the WAL *first* (group commit and
fsync policy per :class:`StorageConfig`), then applied to the
memtable; once the memtable passes ``memtable_flush_bytes`` it is
written as a level-0 SSTable, the manifest is swapped atomically
(``tmp`` + ``os.replace``), and the WAL resets. Flushes only append:
overlay rows are written once each, so merging segments would reclaim
nothing. Only :meth:`Database.compact` (``repro compact``) merges, level
by level into one segment.

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
``repr``. Overlay tables only append, so the store holds puts only.
What a directory written while tables could still drop rows holds
beyond that (a tombstone in a segment, a ``"del"`` WAL record, an
``m/<table>/rowid`` watermark) is a format no longer read: recovery
refuses it with a :class:`~repro.errors.StorageError` naming the file
or key.
"""

from __future__ import annotations

import json
import os
from collections.abc import Collection, Iterator
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from repro.errors import StorageError
from repro.faults import CrashPoint, FaultSchedule
from repro.obs import get_metrics, get_tracer
from repro.storage.durable.memtable import MemTable
from repro.storage.durable.sstable import (
    JSON_DECODER,
    JSON_ENCODER,
    SSTableReader,
    write_encoded,
    write_sstable,
)
from repro.storage.durable.wal import WriteAheadLog

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.table import Table

MANIFEST_NAME = "MANIFEST.json"
WAL_NAME = "wal.log"


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


def _put_record(path: str, ordinal: int,
                payload: bytes) -> tuple[str, Any]:
    """The key and value of WAL frame *ordinal* (from 1) at *path*;
    a frame holding no put record raises a :class:`StorageError`
    naming both."""
    where = f"WAL {path!r} frame {ordinal}"
    try:
        record = JSON_DECODER.decode(payload.decode("utf-8"))
        op, key = record["op"], record.get("key")
    except (ValueError, KeyError, TypeError) as exc:
        raise StorageError(f"{where} is not a put record: {exc!r}") from exc
    if op != "put":
        raise StorageError(
            f"{where} holds a {op!r} record for key {key!r}: a format "
            f"no longer read, since the store holds puts only")
    if not isinstance(key, str) or "value" not in record:
        raise StorageError(f"{where} is not a put record: key {key!r}, "
                           f"fields {sorted(record)}")
    return key, record["value"]


def _merge(segments: list[SegmentInfo]) -> dict[str, Any]:
    """Every key of *segments* and its newest value.

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
        #: Open :meth:`batch` groups; the outermost one commits.
        self._batch_depth = 0
        #: Tables holding rows staged in the open batch.
        self._staged: dict["Table", None] = {}
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
            wal_path = os.path.join(self.data_dir, WAL_NAME)
            payloads, torn = WriteAheadLog.replay(wal_path)
            for ordinal, payload in enumerate(payloads, 1):
                key, value = _put_record(wal_path, ordinal, payload)
                self.memtable.put(key, JSON_ENCODER.encode(value),
                                  len(payload))
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
        """Log ``key → value``, then apply it. The value is encoded once:
        the WAL record (the bytes ``JSON_ENCODER`` writes for the record
        dict) is built around that text, and the memtable keeps it."""
        if self._closed:
            raise StorageError(f"store {self.data_dir!r} is closed")
        encode = JSON_ENCODER.encode
        text = encode(value)
        payload = ('{"op":"put","key":' + encode(key) + ',"value":'
                   + text + "}").encode("utf-8")
        in_batch = self._batch_depth > 0
        self.wal.append(payload, defer_sync=in_batch)
        self.memtable.put(key, text, len(payload))
        if not in_batch:
            self._publish_memtable_bytes()
        self._crash("db.after_append")
        if not in_batch \
                and self.memtable.bytes >= self.config.memtable_flush_bytes:
            self.flush()

    class _Batch:
        """Group commit. Batches nest: the outermost exit writes their
        WAL frames in one write, applies the staged rows (readers see
        the batch whole), and, unless the group raised, syncs and may
        flush."""

        def __init__(self, db: "Database") -> None:
            self.db = db

        def __enter__(self) -> "Database":
            self.db._batch_depth += 1
            return self.db

        def __exit__(self, exc_type, exc, tb) -> None:
            db = self.db
            db._batch_depth -= 1
            if db._batch_depth:
                return
            db.wal.write_pending()
            staged, db._staged = db._staged, {}
            for table in staged:
                table.apply_staged()
            db._publish_memtable_bytes()
            if exc_type is None:
                db.wal.sync()
                if db.memtable.bytes >= db.config.memtable_flush_bytes:
                    db.flush()

    def stage(self, table: "Table") -> bool:
        """Whether *table*'s rows just logged wait for the batch exit."""
        if not self._batch_depth:
            return False
        self._staged[table] = None
        return True

    def batch(self) -> "_Batch":
        return self._Batch(self)

    # -- read path ---------------------------------------------------------

    def scan(self) -> Iterator[tuple[str, Any]]:
        """Every ``(key, value)`` pair, in key order.

        Merges segments oldest-to-newest, then the memtable, so the
        newest version of each key wins. Each segment is read once,
        whole.
        """
        merged = _merge(self.segments)
        decode = JSON_DECODER.decode
        for key, text in self.memtable.items():
            merged[key] = decode(text)
        for key in sorted(merged):
            yield key, merged[key]

    def committed_tables(self, tables: Collection[str],
                         ) -> dict[str, list[tuple[int, tuple[Any, ...]]]]:
        """Each of *tables*' committed ``(row_id, row)`` pairs in
        ascending row id, from one :meth:`scan` — what recovery hands
        the overlay. A key that is not ``t/<table>/<row id>`` of one of
        *tables* (an ``m/`` row-id watermark among them) raises
        :class:`~repro.errors.StorageError`: no row is dropped."""
        rows: dict[str, list[tuple[int, tuple[Any, ...]]]] = {}
        for key, value in self.scan():
            parts = key.split("/")
            if len(parts) != 3 or parts[0] != "t" \
                    or parts[1] not in tables or not parts[2].isdecimal():
                raise StorageError(
                    f"store {self.data_dir!r} holds key {key!r}, not a row "
                    f"of {sorted(tables)}: a format no longer read, or "
                    f"another program's store")
            rows.setdefault(parts[1], []).append(
                (int(parts[2]), tuple(value)))
        return rows

    # -- flush & compaction ------------------------------------------------

    def _write_segment(self, write, items: list[tuple[str, Any]],
                       level: int) -> SegmentInfo:
        segment_id = self.next_segment_id
        self.next_segment_id += 1
        name = f"seg-{segment_id:06d}.sst"
        write(os.path.join(self.data_dir, name), items)
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
            segment = self._write_segment(
                write_encoded, self.memtable.items_sorted(), level=0)
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
        return segment

    def compact_level(self, level: int) -> SegmentInfo | None:
        """Merge all of *level* and *level + 1* into one new segment."""
        merging = [s for s in self.segments
                   if s.level in (level, level + 1)]
        if not merging:
            return None
        tracer = get_tracer()
        with tracer.span("durable.compact", level=level,
                         inputs=len(merging)) as span:
            segment = self._write_segment(
                write_sstable, sorted(_merge(merging).items()),
                level=level + 1)
            survivors = [s for s in self.segments if s not in merging]
            self._crash("compact.before_manifest")
            self.segments = survivors + [segment]
            self._write_manifest()
            for old in merging:
                os.remove(os.path.join(self.data_dir, old.file))
            get_metrics().counter("lsm.compactions").inc()
            span.set("output", segment.file)
        self._publish_gauges()
        return segment

    def compact(self) -> None:
        """Major compaction: everything into one segment."""
        self.flush()
        while len(self.segments) > 1:
            self.compact_level(min(s.level for s in self.segments))

    def _publish_memtable_bytes(self) -> None:
        """Set after an un-batched put, at the outermost batch exit, and
        with the other gauges."""
        get_metrics().gauge("memtable.bytes").set(self.memtable.bytes)

    def _publish_gauges(self) -> None:
        metrics = get_metrics()
        self._publish_memtable_bytes()
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
                {"segments": 0, "keys": 0, "bytes": 0},
            )
            stats["segments"] += 1
            stats["keys"] += segment.reader.count
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

    The table calls :meth:`log_rows` *before* touching its in-memory
    state (write-ahead order); tables only append, so that is the
    adapter's one write. Recovery goes through the store, not the
    adapter: :meth:`Database.committed_tables` hands the DrugTree every
    table's rows at once.
    """

    def __init__(self, database: Database, table_name: str) -> None:
        self.database = database
        self.table_name = table_name

    def log_rows(self, table: "Table", pairs: list[tuple[int, tuple]],
                 ) -> bool:
        """Put *table*'s ``(row_id, row)`` *pairs*, in order; True when
        they wait for the open batch (:meth:`Database.stage`)."""
        put, name = self.database.put, self.table_name
        for row_id, row in pairs:
            put(row_key(name, row_id), row)
        return self.database.stage(table)
