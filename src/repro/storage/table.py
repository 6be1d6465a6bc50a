"""Append-only row-store tables with their indexes and insert listeners.

Tables hold tuples in schema order under integer row ids, issued in
ascending order and never reused. Every insert reaches the column
store, then the secondary indexes, then the insert listeners
(materialized views and the overlay's data-version stamp),
synchronously — the behaviour the ablation experiment (E2) toggles.
"""

from __future__ import annotations

import threading
from collections.abc import Callable, Iterable, Iterator
from operator import itemgetter
from typing import TYPE_CHECKING, Any

from repro.errors import StorageError
from repro.storage.index import HashIndex, Index, SortedIndex
from repro.storage.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.durable.db import DurableTableAdapter

#: Insert listeners receive (row_id, row_tuple).
ChangeListener = Callable[[int, tuple[Any, ...]], None]


class Table:
    """An in-memory row store with typed schema and secondary indexes.

    Rows only append: once inserted, a row stays as it is.

    With a :class:`~repro.storage.durable.db.DurableTableAdapter`
    attached, every insert is logged to the write-ahead log *before*
    it touches the in-memory state — so what recovery replays is
    exactly what the listeners saw. Without one (the default), nothing
    changes: the table is purely in-memory, as before.

    One writer, any number of readers. Each insert runs under
    ``_lock``; readers take it to build the column store, so no insert
    lands between the store's backfill and its attach, and to snapshot
    the rows a scan walks.
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
        self._column_store = None
        self._lock = threading.Lock()

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
        with self._lock:
            self._append(row_id, row)
        return row_id

    def restore_rows(self, pairs: Iterable[tuple[int, tuple]]) -> None:
        """Re-apply recovered ``(row_id, row)`` pairs, bypassing the WAL.

        The recovery path's insert: the rows were already committed, so
        logging them again would double them. The column store, indexes
        and listeners take each exactly as on a live insert, which is
        how materialized aggregates rebuild themselves on reopen. Rows
        only ever append: an id at or below one already issued is
        refused, so insertion order stays row-id order.
        """
        with self._lock:
            for row_id, row in pairs:
                if row_id < self._next_row_id:
                    raise StorageError(
                        f"table {self.name!r}: row {row_id} is not above "
                        f"every id issued so far (next is "
                        f"{self._next_row_id})"
                    )
                self._append(row_id, row)

    def _append(self, row_id: int, row: tuple[Any, ...]) -> None:
        """Store, mirror, index, announce (the caller holds the lock): no
        index or listener (the overlay's data-version stamp) names a row
        the column store or the row map lacks."""
        self._next_row_id = row_id + 1
        self._rows[row_id] = row
        if self._column_store is not None:
            self._column_store.append(row_id, row)
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

        A store may hold a watermark above its highest recovered row
        (rows it tombstoned while tables could still drop them): those
        ids stay burned, never reissued.
        """
        with self._lock:
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
        """All (row_id, row) pairs in insertion order, as of the call:
        rows inserted while the caller iterates are not seen."""
        with self._lock:
            return zip(tuple(self._rows), tuple(self._rows.values()))

    def scan_rows(self) -> Iterator[tuple[Any, ...]]:
        """Every row in insertion order, as of the call."""
        with self._lock:
            return iter(tuple(self._rows.values()))

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
        with self._lock:
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

        Built lazily (the row engine never pays for it) under the lock,
        as a reader may build it while the writer inserts, then kept
        like an index; later calls return the same instance. Imported
        here because :mod:`repro.storage.columnar` imports this
        module's types for annotation.
        """
        if self._column_store is None:
            from repro.storage.columnar import ColumnStore
            with self._lock:
                if self._column_store is None:
                    self._column_store = ColumnStore(self)
        return self._column_store

    # -- listeners -----------------------------------------------------------

    def add_insert_listener(self, listener: ChangeListener) -> None:
        with self._lock:
            self._on_insert.append(listener)

    def __repr__(self) -> str:
        return (
            f"Table({self.name!r}, rows={len(self._rows)}, "
            f"indexes={sorted(self._indexes)})"
        )
