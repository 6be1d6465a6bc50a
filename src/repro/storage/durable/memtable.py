"""The mutable in-memory head of the LSM tree.

A :class:`MemTable` absorbs every WAL-logged put until it grows past
the flush threshold, at which point the database writes its entries,
sorted, into an immutable SSTable and starts a fresh one. It holds
each value as the JSON text its put encoded once for the WAL, so a
flush writes that text as it is.
"""

from __future__ import annotations


class MemTable:
    """Key → value text map with approximate byte accounting."""

    def __init__(self) -> None:
        self._entries: dict[str, str] = {}
        self._sizes: dict[str, int] = {}
        self.bytes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def put(self, key: str, text: str, size: int) -> None:
        """Record the value *text* under *key*.

        *size* is the encoded payload size the WAL just wrote — close
        enough for the flush threshold without re-serializing here.
        """
        self.bytes += size - self._sizes.get(key, 0)
        self._sizes[key] = size
        self._entries[key] = text

    def items(self):
        """Every ``(key, value_text)``, in insertion order."""
        return self._entries.items()

    def items_sorted(self) -> list[tuple[str, str]]:
        """Every entry in key order (the flush order)."""
        return sorted(self._entries.items())

    def clear(self) -> None:
        self._entries.clear()
        self._sizes.clear()
        self.bytes = 0
