"""Append-only row-store tables with their indexes and insert listeners.

Tables hold tuples in schema order under integer row ids, issued in
ascending order and never reused. Every row arrives through
:meth:`Table.append_rows`, a batch at a time, and the column store,
the secondary indexes, the value counts and the insert listeners
(materialized views, the overlay's data-version stamp) each take the
batch at once; E10 (``bench_e10_write_amplification.py``) measures it.
"""

from __future__ import annotations

import threading
from collections import Counter
from collections.abc import Callable, Iterator, Mapping
from operator import itemgetter
from typing import TYPE_CHECKING, Any

from repro.errors import StorageError
from repro.storage.index import HashIndex, Index, SortedIndex
from repro.storage.schema import Schema

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.durable.db import DurableTableAdapter

#: ``(row_id, row)`` pairs in ascending row id.
Rows = list[tuple[int, tuple[Any, ...]]]
#: Insert listeners receive each appended batch, once.
ChangeListener = Callable[[Rows], None]


class Table:
    """An in-memory row store with typed schema and secondary indexes.

    Rows only append: once inserted, a row stays as it is.

    With a :class:`~repro.storage.durable.db.DurableTableAdapter`
    attached, every insert is logged to the write-ahead log *before*
    it touches the in-memory state — so what recovery replays is
    exactly what the listeners saw. Without one (the default), nothing
    changes: the table is purely in-memory, as before.

    One writer, any number of readers. Each batch is applied under
    ``_lock``; readers take it to build the column store, so no batch
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
        #: column -> (position, how many rows hold each value).
        self._value_counts: dict[str, tuple[int, Counter]] = {}
        self._on_insert: list[ChangeListener] = []
        #: Rows logged inside the store's open batch, not yet applied.
        self._staged: Rows = []
        self._column_store = None
        self._lock = threading.Lock()

    # -- rows -------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def row_count(self) -> int:
        return len(self._rows)

    def insert(self, values: dict[str, Any]) -> int:
        """Validate and insert one row; returns its row id (a one-row
        :meth:`append_rows`)."""
        row_id = self.next_row_id
        self.append_rows([(row_id, self.schema.validate_row(values))])
        return row_id

    def check_append(self, pairs: Rows) -> None:
        """Refuse *pairs* unless their ids ascend above every id issued
        so far: rows only append, so insertion order is row-id order
        (the order a wide range's mirror mask emits rows in)."""
        previous = self.next_row_id - 1
        for row_id, _ in pairs:
            if row_id <= previous:
                raise StorageError(f"table {self.name!r}: row {row_id} "
                                   f"is not above {previous}")
            previous = row_id

    def append_rows(self, pairs: Rows, log: bool = True) -> None:
        """Append validated ``(row_id, row)`` *pairs*: the one write path.

        Every id is checked before anything is logged or applied. With
        *log*, a durable table logs the rows first, so the committed
        (WAL) state is a superset of memory, never the reverse; inside
        an open ``Database.batch()`` they are then staged for its
        outermost exit (:meth:`apply_staged`). Recovery and cluster
        views pass ``log=False``: their rows were committed already.
        Applying takes the lock once: the row map, the column store,
        each index, the value counts, then each listener with the whole
        batch — no index or listener names a row the store lacks, and
        a reader sees a batch whole or not at all.
        """
        if not pairs:
            return
        self.check_append(pairs)
        if log and self.durable is not None \
                and self.durable.log_rows(self, pairs):
            with self._lock:
                self._staged += pairs
            return
        row_ids = [row_id for row_id, _ in pairs]
        rows = [row for _, row in pairs]
        with self._lock:
            self._next_row_id = row_ids[-1] + 1
            self._rows.update(pairs)
            if self._column_store is not None:
                self._column_store.extend(row_ids, rows)
            for index in self._indexes.values():
                index.extend(zip(map(index.key_of, rows), row_ids))
            for position, counts in self._value_counts.values():
                for row in rows:
                    counts[row[position]] += 1
            for listener in self._on_insert:
                listener(pairs)

    def apply_staged(self) -> None:
        """Apply the rows staged for the store's batch, at its exit."""
        with self._lock:
            pairs, self._staged = self._staged, []
        self.append_rows(pairs, log=False)

    @property
    def next_row_id(self) -> int:
        """The id the next insert gets; every row held or staged is
        below it."""
        staged = self._staged
        return staged[-1][0] + 1 if staged else self._next_row_id

    def batch_boundary(self) -> int:
        """The id every row below which has been applied everywhere (row
        map, column store, indexes), read between two batches: a reader
        that drops the ids an index returns at or above it sees the
        table whole as of one batch."""
        with self._lock:
            return self._next_row_id

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

    def keep_value_counts(self, column: str) -> None:
        """Count how many rows hold each value of *column*, current on
        every insert: an exact equality count for a low-cardinality
        column that no index serves (a bool)."""
        position = self.schema.index_of(column)
        with self._lock:
            counts = Counter(row[position] for row in self._rows.values())
            self._value_counts[column] = (position, counts)

    def value_counts(self, column: str) -> Mapping[Any, int] | None:
        """Rows per value of *column* (``None`` keys the NULLs), if
        :meth:`keep_value_counts` was asked for it."""
        kept = self._value_counts.get(column)
        return None if kept is None else kept[1]

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
