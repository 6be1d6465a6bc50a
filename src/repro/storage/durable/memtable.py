"""The mutable in-memory head of the LSM tree.

A :class:`MemTable` absorbs every WAL-logged mutation until it grows
past the flush threshold, at which point the database writes its
entries — sorted, tombstones included — into an immutable SSTable and
starts a fresh one. Deletes are recorded as :data:`TOMBSTONE` markers
rather than removals, because the deleted key may live on in an older
segment that only a compaction can forget.
"""

from __future__ import annotations

from typing import Any


class _Tombstone:
    """Sentinel marking a deleted key (singleton :data:`TOMBSTONE`)."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "TOMBSTONE"


#: The delete marker stored in memtables and SSTables.
TOMBSTONE = _Tombstone()


class MemTable:
    """Key → value map with tombstones and approximate byte accounting."""

    def __init__(self) -> None:
        self._entries: dict[str, Any] = {}
        self._sizes: dict[str, int] = {}
        self.bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, key: str, value: Any, size: int) -> None:
        """Record *value* (or :data:`TOMBSTONE`) under *key*.

        *size* is the encoded payload size the WAL just wrote — close
        enough for the flush threshold without re-serializing here.
        """
        self.bytes += size - self._sizes.get(key, 0)
        self._sizes[key] = size
        self._entries[key] = value

    def items(self):
        """Every ``(key, value-or-TOMBSTONE)``, in insertion order."""
        return self._entries.items()

    def items_sorted(self) -> list[tuple[str, Any]]:
        """Every entry in key order (the flush order)."""
        return sorted(self._entries.items())

    def clear(self) -> None:
        self._entries.clear()
        self._sizes.clear()
        self.bytes = 0
