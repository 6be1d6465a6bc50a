"""Row-store tables with index maintenance and change listeners.

Tables hold tuples in schema order under integer row ids. Secondary
indexes and materialized views register as listeners and are maintained
synchronously on every insert/delete — the behaviour the ablation
experiment (E2) toggles.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from operator import itemgetter
from typing import TYPE_CHECKING, Any

from repro.errors import StorageError
from repro.storage.index import HashIndex, Index, SortedIndex
from repro.storage.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.durable.db import DurableTableAdapter

#: Change listeners receive (row_id, row_tuple).
ChangeListener = Callable[[int, tuple[Any, ...]], None]


class Table:
    """An in-memory row store with typed schema and secondary indexes.

    With a :class:`~repro.storage.durable.db.DurableTableAdapter`
    attached, every mutation is logged to the write-ahead log *before*
    it touches the in-memory state — so what recovery replays is
    exactly what the listeners saw. Without one (the default), nothing
    changes: the table is purely in-memory, as before.
    """

    def __init__(self, name: str, schema: Schema,
                 durable: "DurableTableAdapter | None" = None) -> None:
        if not name:
            raise StorageError("table needs a name")
        self.name = name
        self.schema = schema
        self.durable = durable
        self._rows: dict[int, tuple[Any, ...]] = {}
        self._next_row_id = 0
        self._indexes: dict[str, Index] = {}
        self._on_insert: list[ChangeListener] = []
        self._on_delete: list[ChangeListener] = []
        self._column_store = None

    # -- rows -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def insert(self, values: dict[str, Any]) -> int:
        """Validate and insert one row; returns its row id.

        In durable mode the row hits the WAL before any in-memory
        structure: a crash between the two leaves the committed (WAL)
        state a superset of memory, never the reverse, and recovery
        replays the difference.
        """
        row = self.schema.validate_row(values)
        row_id = self._next_row_id
        if self.durable is not None:
            self.durable.log_insert(row_id, row)
        self._next_row_id = row_id + 1
        self._rows[row_id] = row
        for index in self._indexes.values():
            index.insert(index.key_of(row), row_id)
        for listener in self._on_insert:
            listener(row_id, row)
        return row_id

    def delete(self, row_id: int) -> None:
        row = self._rows.get(row_id)
        if row is None:
            raise StorageError(
                f"table {self.name!r}: no row {row_id}"
            )
        if self.durable is not None:
            self.durable.log_delete(row_id, self._next_row_id)
        del self._rows[row_id]
        for index in self._indexes.values():
            index.delete(index.key_of(row), row_id)
        for listener in self._on_delete:
            listener(row_id, row)

    def restore_row(self, row_id: int, row: tuple[Any, ...]) -> None:
        """Re-apply one recovered row, bypassing the WAL.

        The recovery path's insert: the row was already committed, so
        logging it again would double it. Indexes and listeners fire
        exactly as on a live insert, which is how column stores and
        materialized aggregates rebuild themselves on reopen. Rows
        only ever append: an id at or below one already issued is
        refused, so insertion order stays row-id order.
        """
        if row_id < self._next_row_id:
            raise StorageError(
                f"table {self.name!r}: row {row_id} is not above every "
                f"id issued so far (next is {self._next_row_id})"
            )
        self._rows[row_id] = row
        self._next_row_id = row_id + 1
        for index in self._indexes.values():
            index.insert(index.key_of(row), row_id)
        for listener in self._on_insert:
            listener(row_id, row)

    @property
    def next_row_id(self) -> int:
        """The id the next insert gets; every row held is below it."""
        return self._next_row_id

    def bump_next_row_id(self, watermark: int) -> None:
        """Raise the next row id to *watermark* (recovery only).

        Deleting the highest rows and compacting away their tombstones
        would otherwise let a reopened table re-issue their ids.
        """
        self._next_row_id = max(self._next_row_id, watermark)

    def get(self, row_id: int) -> tuple[Any, ...]:
        try:
            return self._rows[row_id]
        except KeyError:
            raise StorageError(
                f"table {self.name!r}: no row {row_id}"
            ) from None

    def get_dict(self, row_id: int) -> dict[str, Any]:
        return self.schema.row_as_dict(self.get(row_id))

    def scan(self) -> Iterator[tuple[int, tuple[Any, ...]]]:
        """All (row_id, row) pairs in insertion order."""
        yield from self._rows.items()

    def scan_rows(self) -> Iterator[tuple[Any, ...]]:
        yield from self._rows.values()

    def value(self, row: tuple[Any, ...], column: str) -> Any:
        return row[self.schema.index_of(column)]

    # -- indexes -----------------------------------------------------------

    def create_index(self, column_names: list[str],
                     kind: str = "hash",
                     name: str = "") -> Index:
        """Create and backfill a secondary index (a sorted index is
        bulk-loaded with one sort).

        *kind* is ``"hash"`` (equality, any number of columns) or
        ``"sorted"`` (single column, supports ranges).
        """
        positions = [self.schema.index_of(column)  # validates existence
                     for column in column_names]
        index_name = name or f"{self.name}_{'_'.join(column_names)}_{kind}"
        if index_name in self._indexes:
            raise StorageError(f"index {index_name!r} already exists")
        if kind == "hash":
            index: Index = HashIndex(index_name, tuple(column_names))
        elif kind == "sorted":
            if len(column_names) != 1:
                raise StorageError("sorted indexes take exactly one column")
            index = SortedIndex(index_name, tuple(column_names))
        else:
            raise StorageError(f"unknown index kind {kind!r}")
        index.key_of = key_of = itemgetter(*positions)
        index.load((key_of(row), row_id)
                   for row_id, row in self._rows.items())
        self._indexes[index_name] = index
        return index

    def indexes(self) -> dict[str, Index]:
        return dict(self._indexes)

    def index_on(self, column: str,
                 require_range: bool = False) -> Index | None:
        """Best index whose leading column is *column* (or None)."""
        best: Index | None = None
        for index in self._indexes.values():
            if index.column_names[0] != column:
                continue
            if require_range and not index.supports_range:
                continue
            if len(index.column_names) != 1:
                continue
            if best is None or (index.supports_range
                                and not best.supports_range):
                best = index
        return best

    # -- columnar projection ---------------------------------------------------

    def column_store(self):
        """The table's columnar projection, built on first use.

        Lazily constructed (the row engine never pays for it) and then
        listener-maintained like any secondary index; subsequent calls
        return the same instance. Imported here, not at module level,
        because :mod:`repro.storage.columnar` imports this module's
        types for annotation.
        """
        if self._column_store is None:
            from repro.storage.columnar import ColumnStore
            self._column_store = ColumnStore(self)
        return self._column_store

    # -- listeners -----------------------------------------------------------

    def add_insert_listener(self, listener: ChangeListener) -> None:
        self._on_insert.append(listener)

    def add_delete_listener(self, listener: ChangeListener) -> None:
        self._on_delete.append(listener)

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={len(self._rows)}, "
            f"indexes={sorted(self._indexes)})"
        )
