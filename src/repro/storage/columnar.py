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

Typed mirrors
-------------
The lists are what a gather returns: every value a scan emits is the
row store's own object. Beside them, each schema ``FLOAT``/``INT``/
``BOOL`` column keeps a typed numpy **mirror** (``float64``/``int64``/
``bool_``, plus a validity mask when the column is nullable) that the
vectorized engine compares and folds instead of calling Python per
row. A mirror holds only values it represents exactly and that compare
and sum as the Python value does: no NaN, no int with ``|v| >= 2**53``,
no value of another type (an unlogged ``append_rows`` bypasses
validation, so a bool can reach an INT column). The first such value
drops the column's mirror for good; readers then take the list path.

The table appends a batch at a time, and the store's backfill is one
such batch. A mirror grows by capacity doubling. A batch's values are
checked together (:func:`_mirrored`) and written into the mirror by
slice — into a new, larger buffer that is swapped in whole when the
old one is too small — before the lists, and the row ids are
published last. The table runs the append under its lock, before its
indexes see the rows, so a reader that holds a position (from
``live_positions`` or an index) and *then* takes :meth:`typed` always
finds it filled.
"""

from __future__ import annotations

from collections.abc import Sequence
from math import isnan
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.errors import StorageError
from repro.storage.schema import ColumnType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.storage.table import Table

#: The Python type each mirrored schema type holds (``type(v) is t``:
#: a bool is not an int here, and numpy scalars are refused).
_EXACT = {ColumnType.FLOAT: float, ColumnType.INT: int,
          ColumnType.BOOL: bool}
#: The mirror dtype of each of those types.
_DTYPES = {float: np.float64, int: np.int64, bool: np.bool_}
#: Ints at or beyond this magnitude do not round-trip through float64,
#: so comparisons with float literals (and float sums) would differ.
EXACT_INT_LIMIT = 2 ** 53

#: A mirror: the typed buffer and, for a nullable column, its validity
#: mask. Both have the same capacity, at least ``len(store)``.
Mirror = tuple[np.ndarray, "np.ndarray | None"]


def _mirrored(exact: type, nullable: bool,
              values: Sequence[Any]) -> tuple[Sequence[Any], Any] | None:
    """*values* as a mirror of *exact* holds them (a NULL as 0) and
    their validity (``True``: no NULL), or None when one refuses it: a
    NULL without a mask, another type (a FLOAT mirror takes an exact
    int), a NaN, or an int with ``|v| >= 2**53``."""
    present = set(map(type, values))
    validity: Any = True
    if type(None) in present:
        if not nullable:
            return None
        present.discard(type(None))
        validity = [value is not None for value in values]
        values = [0 if value is None else value for value in values]
    if not present <= ({float, int} if exact is float else {exact}):
        return None
    ints = values if exact is int else ()
    if exact is float and int in present:
        ints = [value for value in values if type(value) is int]
    if ints and not (-EXACT_INT_LIMIT < min(ints)
                     and max(ints) < EXACT_INT_LIMIT):
        return None
    if exact is float and any(map(isnan, values)):
        return None
    return values, validity


class _MirrorWriter:
    """The appending side of one mirror: which row value feeds it, and
    its current buffers."""

    __slots__ = ("name", "index", "exact", "data", "valid")

    def __init__(self, name: str, index: int, exact: type,
                 data: np.ndarray, valid: np.ndarray | None) -> None:
        self.name = name
        self.index = index
        self.exact = exact
        self.data = data
        self.valid = valid


class ColumnStore:
    """Per-column buffers over one table, maintained by the table."""

    def __init__(self, table: "Table") -> None:
        self.table = table
        self.column_names: tuple[str, ...] = tuple(
            table.schema.column_names
        )
        self._positions = tuple(range(len(self.column_names)))
        #: (name, row position, Python type, nullable) of each mirrored
        #: column.
        self._typed_specs = tuple(
            (column.name, position, _EXACT[column.type], column.nullable)
            for position, column in enumerate(table.schema.columns)
            if column.type in _EXACT
        )
        #: The Python type each numeric/bool column's mirror holds
        #: (``float``, ``int`` or ``bool``), mirror held or refused.
        self.mirror_types = {name: exact
                             for name, _, exact, _ in self._typed_specs}
        self._columns: dict[str, list[Any]] = {
            name: [] for name in self.column_names}
        self._writers = [
            _MirrorWriter(name, index, exact, np.zeros(0, _DTYPES[exact]),
                          np.zeros(0, np.bool_) if nullable else None)
            for name, index, exact, nullable in self._typed_specs]
        self._typed: dict[str, Mirror] = {
            writer.name: (writer.data, writer.valid)
            for writer in self._writers}
        self._row_ids: list[int] = []
        self._position_of: dict[int, int] = {}
        # The backfill: the table builds the store under its lock, so
        # this reads the row map itself (a scan would take the lock).
        if table._rows:
            self.extend(list(table._rows), list(table._rows.values()))

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

    def typed(self, name: str) -> Mirror | None:
        """The typed mirror ``(data, valid)`` of a column, or None (not
        a numeric/bool column, or a value refused it). Both buffers may
        be longer than the store; positions a caller obtained before
        this call are filled."""
        return self._typed.get(name)

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

    def positions_of(self, row_ids: list[int]) -> np.ndarray:
        """Buffer positions of *row_ids*, in order, in one C-level pass."""
        try:
            return np.fromiter(map(self._position_of.__getitem__, row_ids),
                               dtype=np.intp, count=len(row_ids))
        except KeyError as error:
            raise StorageError(
                f"table {self.table.name!r}: no row {error.args[0]} in "
                "column store"
            ) from None

    def gather(self, name: str, positions: list[int]) -> list[Any]:
        buffer = self.column(name)
        return [buffer[p] for p in positions]

    # -- maintenance -------------------------------------------------------

    def extend(self, row_ids: list[int],
               rows: list[tuple[Any, ...]]) -> None:
        """Mirrors by slice, then lists, then the row ids: a position is
        published only once every buffer holds it."""
        start = len(self._row_ids)
        stop = start + len(rows)
        values = list(zip(*rows))
        refused = []
        for writer in self._writers:
            held = _mirrored(writer.exact, writer.valid is not None,
                             values[writer.index])
            if held is None:
                refused.append(writer)
                continue
            if stop > len(writer.data):
                self._grow(writer, stop)
            writer.data[start:stop] = held[0]
            if writer.valid is not None:
                writer.valid[start:stop] = held[1]
        if refused:
            self._writers = [w for w in self._writers if w not in refused]
            for writer in refused:
                del self._typed[writer.name]
        for name, value_index in zip(self.column_names, self._positions):
            self._columns[name].extend(values[value_index])
        self._position_of.update(zip(row_ids, range(start, stop)))
        self._row_ids.extend(row_ids)

    def _grow(self, writer: "_MirrorWriter", size: int) -> None:
        """Swap in copies of a mirror with room for *size* positions, at
        least double its capacity."""
        capacity = max(size, 2 * len(writer.data))
        data = np.zeros(capacity, dtype=writer.data.dtype)
        data[:len(writer.data)] = writer.data
        valid = writer.valid
        if valid is not None:
            valid = np.zeros(capacity, dtype=np.bool_)
            valid[:len(writer.valid)] = writer.valid
        writer.data, writer.valid = data, valid
        self._typed[writer.name] = (data, valid)

    def verify_against_rows(self) -> bool:
        """True when every position mirrors the row store, in the
        lists and in every typed mirror still held.

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
                held, value = self._columns[name][position], row[value_index]
                if held is not value and held != value:
                    return False
        for name, (data, valid) in list(self._typed.items()):
            values = self._columns[name]
            if len(data) < len(values):
                return False
            for position, value in enumerate(values):
                if value is None:
                    if valid is None or valid[position]:
                        return False
                elif data[position] != value or (
                        valid is not None and not valid[position]):
                    return False
        return True

    def __repr__(self) -> str:
        return f"ColumnStore({self.table.name!r}, rows={len(self)})"
