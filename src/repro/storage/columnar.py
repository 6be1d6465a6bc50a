"""Columnar projection of a row-store table.

A :class:`ColumnStore` mirrors one :class:`~repro.storage.table.Table`
as dense per-column Python lists, which the table keeps in sync on
every insert and delete like its secondary indexes — so the row store
stays the single source of truth and E10's write-amplification
accounting extends to it naturally (every insert now also appends one
value per column).

Layout
------
All columns share one positional axis: position ``p`` of every column
buffer holds the values of the same row, whose row id is
``row_ids[p]``. Buffers are append-only; a delete marks the position in
a tombstone set instead of shifting the arrays, which keeps live
positions in *insertion order* — the exact order ``Table.scan_rows``
yields — so the vectorized engine emits rows in the same order as the
row engine. When tombstones pile past :attr:`compact_threshold`, the
buffers are rebuilt dense in one pass.

Numeric columns (int/float/bool) could use ``array.array``; Python
lists are used uniformly because overlay columns are nullable (NULL is
``None``) and mixed-width, and because gathers (``buffer[p]``) cost the
same either way in CPython.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.errors import StorageError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.table import Table


class ColumnStore:
    """Per-column buffers over one table, maintained by the table."""

    #: Compact once tombstones exceed this count *and* half the buffer.
    MIN_COMPACT_TOMBSTONES = 64

    def __init__(self, table: "Table") -> None:
        self.table = table
        self.column_names: tuple[str, ...] = tuple(
            table.schema.column_names
        )
        self._positions = tuple(range(len(self.column_names)))
        self._columns: dict[str, list[Any]] = {}
        self._row_ids: list[int] = []
        self._position_of: dict[int, int] = {}
        self._dead: set[int] = set()
        # Maintenance accounting (surfaced by docs/EXECUTION.md tests).
        self.appends = 0
        self.tombstones = 0
        self.compactions = 0
        self._rebuild()

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        """Live row count."""
        return len(self._row_ids) - len(self._dead)

    @property
    def buffer_length(self) -> int:
        """Physical buffer length, tombstones included."""
        return len(self._row_ids)

    def column(self, name: str) -> list[Any]:
        """The raw buffer of one column (positions may be dead)."""
        try:
            return self._columns[name]
        except KeyError:
            raise StorageError(
                f"table {self.table.name!r} has no column {name!r}"
            ) from None

    def live_positions(self) -> range | list[int]:
        """Live buffer positions in insertion order.

        Dense stores answer with a ``range`` so iteration costs no
        allocation; tombstoned stores filter once.
        """
        if not self._dead:
            return range(len(self._row_ids))
        dead = self._dead
        return [p for p in range(len(self._row_ids)) if p not in dead]

    def position_of(self, row_id: int) -> int:
        """Buffer position of a live row id."""
        try:
            return self._position_of[row_id]
        except KeyError:
            raise StorageError(
                f"table {self.table.name!r}: no live row {row_id} in "
                "column store"
            ) from None

    def gather(self, name: str, positions: list[int]) -> list[Any]:
        buffer = self.column(name)
        return [buffer[p] for p in positions]

    # -- maintenance -------------------------------------------------------

    @property
    def compact_threshold(self) -> int:
        return max(self.MIN_COMPACT_TOMBSTONES, len(self._row_ids) // 2)

    def append(self, row_id: int, row: tuple[Any, ...]) -> None:
        position = len(self._row_ids)
        self._row_ids.append(row_id)
        self._position_of[row_id] = position
        for name, value_index in zip(self.column_names, self._positions):
            self._columns[name].append(row[value_index])
        self.appends += 1

    def remove(self, row_id: int) -> None:
        position = self._position_of.pop(row_id, None)
        if position is None:
            return  # never materialized here; nothing to tombstone
        self._dead.add(position)
        self.tombstones += 1
        if len(self._dead) > self.compact_threshold:
            self.compact()

    def compact(self) -> None:
        """Rebuild dense buffers, dropping tombstones, keeping order."""
        if not self._dead:
            return
        dead = self._dead
        keep = [p for p in range(len(self._row_ids)) if p not in dead]
        for name in self.column_names:
            buffer = self._columns[name]
            self._columns[name] = [buffer[p] for p in keep]
        self._row_ids = [self._row_ids[p] for p in keep]
        self._position_of = {
            row_id: position
            for position, row_id in enumerate(self._row_ids)
        }
        self._dead = set()
        self.compactions += 1

    def _rebuild(self) -> None:
        """Backfill from the row store (construction or repair)."""
        self._columns = {name: [] for name in self.column_names}
        self._row_ids = []
        self._position_of = {}
        self._dead = set()
        for row_id, row in self.table.scan():
            position = len(self._row_ids)
            self._row_ids.append(row_id)
            self._position_of[row_id] = position
            for name, value_index in zip(self.column_names,
                                         self._positions):
                self._columns[name].append(row[value_index])

    def verify_against_rows(self) -> bool:
        """True when every live position mirrors the row store.

        A consistency probe for tests; the table's inserts and deletes
        keep this invariant without it.
        """
        live = [self._row_ids[p] for p in self.live_positions()]
        if live != [row_id for row_id, _ in self.table.scan()]:
            return False
        for row_id, row in self.table.scan():
            position = self._position_of[row_id]
            for name, value_index in zip(self.column_names,
                                         self._positions):
                if self._columns[name][position] != row[value_index]:
                    return False
        return True

    def __repr__(self) -> str:
        return (
            f"ColumnStore({self.table.name!r}, live={len(self)}, "
            f"tombstones={len(self._dead)})"
        )
