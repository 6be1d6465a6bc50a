"""Columnar projection of a row-store table.

A :class:`ColumnStore` mirrors one :class:`~repro.storage.table.Table`
as dense per-column Python lists, which the table appends to on every
insert, before its secondary indexes — so the row store stays the
single source of truth and E10's write-amplification accounting
extends to it naturally (every insert also appends one value per
column).

Layout
------
All columns share one positional axis: position ``p`` of every column
buffer holds the values of the same row, whose row id is
``row_ids[p]``. The table only appends, so the buffers only append:
positions are *insertion order* — the exact order ``Table.scan_rows``
yields — and the vectorized engine emits rows in the same order as the
row engine. There are no tombstones and nothing to compact.

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

    def __init__(self, table: "Table") -> None:
        self.table = table
        self.column_names: tuple[str, ...] = tuple(
            table.schema.column_names
        )
        self._positions = tuple(range(len(self.column_names)))
        self._columns: dict[str, list[Any]] = {}
        self._row_ids: list[int] = []
        self._position_of: dict[int, int] = {}
        # Maintenance accounting (surfaced by docs/EXECUTION.md tests).
        self.appends = 0
        self._rebuild()

    # -- reads -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._row_ids)

    def column(self, name: str) -> list[Any]:
        """The raw buffer of one column."""
        try:
            return self._columns[name]
        except KeyError:
            raise StorageError(
                f"table {self.table.name!r} has no column {name!r}"
            ) from None

    def live_positions(self) -> range:
        """Every buffer position, in insertion order."""
        return range(len(self._row_ids))

    def position_of(self, row_id: int) -> int:
        """Buffer position of a row id."""
        try:
            return self._position_of[row_id]
        except KeyError:
            raise StorageError(
                f"table {self.table.name!r}: no row {row_id} in "
                "column store"
            ) from None

    def gather(self, name: str, positions: list[int]) -> list[Any]:
        buffer = self.column(name)
        return [buffer[p] for p in positions]

    # -- maintenance -------------------------------------------------------

    def append(self, row_id: int, row: tuple[Any, ...]) -> None:
        position = len(self._row_ids)
        self._row_ids.append(row_id)
        self._position_of[row_id] = position
        for name, value_index in zip(self.column_names, self._positions):
            self._columns[name].append(row[value_index])
        self.appends += 1

    def _rebuild(self) -> None:
        """Backfill from the row store. The table builds the store
        under its lock, so this reads the row map itself: a scan would
        take that lock again."""
        self._columns = {name: [] for name in self.column_names}
        self._row_ids = []
        self._position_of = {}
        for row_id, row in self.table._rows.items():
            position = len(self._row_ids)
            self._row_ids.append(row_id)
            self._position_of[row_id] = position
            for name, value_index in zip(self.column_names,
                                         self._positions):
                self._columns[name].append(row[value_index])

    def verify_against_rows(self) -> bool:
        """True when every position mirrors the row store.

        A consistency probe for tests; the table's inserts keep this
        invariant without it.
        """
        rows = list(self.table.scan())
        if self._row_ids != [row_id for row_id, _ in rows]:
            return False
        for row_id, row in rows:
            position = self._position_of[row_id]
            for name, value_index in zip(self.column_names,
                                         self._positions):
                if self._columns[name][position] != row[value_index]:
                    return False
        return True

    def __repr__(self) -> str:
        return f"ColumnStore({self.table.name!r}, rows={len(self)})"
