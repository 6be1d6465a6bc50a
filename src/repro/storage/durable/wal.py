"""Append-only write-ahead log with CRC-framed records.

Every mutation is framed as ``crc32(payload) · length · payload`` and
appended before the in-memory state changes, so the log is the single
source of truth for unflushed data. :meth:`WriteAheadLog.replay` walks
the frames back, stops at the first corrupt or incomplete one (a *torn
tail* — the write the crash interrupted), and truncates the file there:
everything before the tear was durably committed, everything after it
never was.

Durability cost is a policy, not a constant:

``always``
    ``fsync`` after every append — maximum safety, one disk sync per
    record.
``batch``
    group commit: syncs are deferred until :data:`BATCH_BYTES` (64 KiB)
    of unsynced frames accumulate (or an explicit :meth:`sync`, which
    :meth:`~repro.storage.durable.db.Database.batch` issues once per
    logical batch, after writing its buffered frames in one write).
``never``
    OS-buffered writes only; survives process crashes (the kernel has
    the data) but not power loss. The E14 benchmark measures all three.

A :class:`~repro.faults.Crash` at ``wal.append.torn`` in the log's
``schedule`` (its database's, see
:meth:`~repro.storage.durable.db.Database.set_schedule`) kills the
next append half-way through its frame.
"""

from __future__ import annotations

import os
import struct
import zlib

from repro.faults import CrashPoint, FaultSchedule
from repro.obs import get_metrics

#: Frame header: crc32 of the payload, then payload byte length.
_FRAME = struct.Struct("<II")

_POLICIES = ("always", "batch", "never")
#: Unsynced frame bytes after which the ``batch`` policy syncs.
BATCH_BYTES = 64 * 1024


class WriteAheadLog:
    """One append-only log file plus its sync policy."""

    def __init__(self, path: str, fsync: str = "batch") -> None:
        if fsync not in _POLICIES:
            from repro.errors import StorageError
            raise StorageError(
                f"unknown fsync policy {fsync!r} (one of {_POLICIES})"
            )
        self.path = path
        self.fsync = fsync
        self._file = open(path, "ab")
        self._unsynced = 0
        self._pending: list[bytes] = []  # appended, not yet written
        self.schedule = FaultSchedule()

    # -- writes ------------------------------------------------------------

    def append(self, payload: bytes, defer_sync: bool = False) -> None:
        """Frame and append one record; sync per policy.

        With *defer_sync* (group commit) the frame waits for
        :meth:`write_pending` and the policy sync is skipped: the
        caller promises both at batch end.
        """
        frame = _FRAME.pack(zlib.crc32(payload), len(payload)) + payload
        if self.schedule.crash_at("wal.append.torn"):
            # Simulated mid-append kill: half a frame reaches the disk,
            # after the frames appended before it.
            self.write_pending()
            self._file.write(frame[:max(1, len(frame) // 2)])
            self._file.flush()
            raise CrashPoint("wal.append.torn")
        self._pending.append(frame)
        if defer_sync:
            return
        self.write_pending()
        if self.fsync == "always":
            self.sync()
        elif self.fsync == "batch" and self._unsynced >= BATCH_BYTES:
            self.sync()

    def write_pending(self) -> None:
        """Write the frames appended since the last write, in one write
        (each still counts as one append)."""
        if self._pending:
            data = b"".join(self._pending)
            self._file.write(data)
            self._unsynced += len(data)
            get_metrics().counter("wal.appends").inc(len(self._pending))
            get_metrics().counter("wal.bytes").inc(len(data))
            self._pending = []

    def sync(self) -> None:
        """Write, flush to the OS and (policy permitting) to the
        platter."""
        self.write_pending()
        self._file.flush()
        if self.fsync != "never":
            os.fsync(self._file.fileno())
            get_metrics().counter("wal.fsyncs").inc()
        self._unsynced = 0

    def reset(self) -> None:
        """Empty the log (called after its records reach a segment)."""
        self._file.close()
        self._file = open(self.path, "wb")
        self._unsynced = 0

    def close(self) -> None:
        if self._file.closed:
            return
        self.sync()
        self._file.close()

    # -- recovery ----------------------------------------------------------

    @staticmethod
    def replay(path: str) -> tuple[list[bytes], int]:
        """Committed payloads of the log at *path*, tear truncated.

        Returns ``(payloads, torn_bytes)``: every record whose frame is
        complete and whose CRC matches, and the number of trailing
        bytes discarded as a torn tail. The file itself is truncated to
        the last good frame so a later replay sees a clean log.
        """
        if not os.path.exists(path):
            return [], 0
        with open(path, "rb") as handle:
            data = handle.read()
        payloads: list[bytes] = []
        offset = 0
        while True:
            header_end = offset + _FRAME.size
            if header_end > len(data):
                break  # incomplete header
            crc, length = _FRAME.unpack_from(data, offset)
            payload_end = header_end + length
            if payload_end > len(data):
                break  # incomplete payload
            payload = data[header_end:payload_end]
            if zlib.crc32(payload) != crc:
                break  # corrupt frame: stop at the tear
            payloads.append(payload)
            offset = payload_end
        torn = len(data) - offset
        if torn:
            with open(path, "r+b") as handle:
                handle.truncate(offset)
        return payloads, torn
