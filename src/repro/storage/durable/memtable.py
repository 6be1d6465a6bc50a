"""The mutable in-memory head of the LSM tree.

A :class:`MemTable` absorbs every WAL-logged put until it grows past
the flush threshold, at which point the database writes its entries,
sorted, into an immutable SSTable and starts a fresh one.
"""

from __future__ import annotations

from typing import Any


class MemTable:
    """Key → value map with approximate byte accounting."""

    def __init__(self) -> None:
        self._entries: dict[str, Any] = {}
        self._sizes: dict[str, int] = {}
        self.bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, key: str, value: Any, size: int) -> None:
        """Record *value* under *key*.

        *size* is the encoded payload size the WAL just wrote — close
        enough for the flush threshold without re-serializing here.
        """
        self.bytes += size - self._sizes.get(key, 0)
        self._sizes[key] = size
        self._entries[key] = value

    def items(self):
        """Every ``(key, value)``, in insertion order."""
        return self._entries.items()

    def items_sorted(self) -> list[tuple[str, Any]]:
        """Every entry in key order (the flush order)."""
        return sorted(self._entries.items())

    def clear(self) -> None:
        self._entries.clear()
        self._sizes.clear()
        self.bytes = 0
