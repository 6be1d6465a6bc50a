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
no value of another type (``restore_rows`` bypasses validation, so a
bool can reach an INT column). The first such value drops the column's
mirror for good; readers then take the list path.

A mirror grows by capacity doubling. An append writes its value into
the mirror — into a new, larger buffer that is swapped in whole when
the old one is full — before the lists, and the row id is published
last. The table runs the append under its lock, before its indexes see
the row, so a reader that holds a position (from ``live_positions`` or
an index) and *then* takes :meth:`typed` always finds it filled.
"""

from __future__ import annotations

from itertools import repeat
from operator import is_not
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


def _build_mirror(exact: type, nullable: bool,
                  values: list[Any]) -> Mirror | None:
    """The mirror of a whole column, or None when a value refuses it.
    A FLOAT mirror also takes an exact int (only ``restore_rows`` can
    put one there)."""
    present = set(map(type, values))
    has_null = type(None) in present
    present.discard(type(None))
    admits = {float, int} if exact is float else {exact}
    if not present <= admits or (has_null and not nullable):
        return None
    valid = None
    if has_null:
        valid = np.fromiter(map(is_not, values, repeat(None)),
                            dtype=np.bool_, count=len(values))
        values = [0 if value is None else value for value in values]
    elif nullable:
        valid = np.ones(len(values), dtype=np.bool_)
    if exact is float and int in present and not all(
            -EXACT_INT_LIMIT < value < EXACT_INT_LIMIT
            for value in values if type(value) is int):
        return None
    try:
        data = np.array(values, dtype=_DTYPES[exact])
    except OverflowError:  # an int past int64
        return None
    if len(data) and exact is not bool:
        low = data.min()
        if low != low:  # NaN
            return None
        if exact is int and not (-EXACT_INT_LIMIT < low
                                 and data.max() < EXACT_INT_LIMIT):
            return None
    return data, valid


class _MirrorWriter:
    """The appending side of one mirror: which row value feeds it, and
    memoryviews of its current buffers (storing through one costs about
    half a numpy item assignment)."""

    __slots__ = ("name", "index", "exact", "data", "valid",
                 "data_view", "valid_view")

    def __init__(self, name: str, index: int, exact: type,
                 data: np.ndarray, valid: np.ndarray | None) -> None:
        self.name = name
        self.index = index
        self.exact = exact
        self.attach(data, valid)

    def attach(self, data: np.ndarray, valid: np.ndarray | None) -> None:
        self.data = data
        self.valid = valid
        self.data_view = memoryview(data)
        self.valid_view = None if valid is None else memoryview(valid)


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
        self._columns: dict[str, list[Any]] = {}
        self._typed: dict[str, Mirror] = {}
        self._writers: list[_MirrorWriter] = []
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

    def append(self, row_id: int, row: tuple[Any, ...]) -> None:
        """Mirrors, then lists, then the row id: a position is
        published only once every buffer holds it."""
        position = len(self._row_ids)
        refused = []
        for writer in self._writers:
            value = row[writer.index]
            exact = writer.exact
            if not (type(value) is exact and value == value
                    and (exact is not int
                         or -EXACT_INT_LIMIT < value < EXACT_INT_LIMIT)):
                if value is None and writer.valid is not None:
                    pass
                elif (exact is float and type(value) is int
                      and -EXACT_INT_LIMIT < value < EXACT_INT_LIMIT):
                    value = float(value)  # an exact int
                else:
                    refused.append(writer)
                    continue
            if position == len(writer.data):
                self._grow(writer)
            if value is not None:
                writer.data_view[position] = value
            if writer.valid is not None:
                writer.valid_view[position] = value is not None
        if refused:
            self._writers = [w for w in self._writers if w not in refused]
            for writer in refused:
                del self._typed[writer.name]
        for name, value_index in zip(self.column_names, self._positions):
            self._columns[name].append(row[value_index])
        self._position_of[row_id] = position
        self._row_ids.append(row_id)
        self.appends += 1

    def _grow(self, writer: "_MirrorWriter") -> None:
        """Swap in copies of a full mirror at double the capacity."""
        capacity = max(16, 2 * len(writer.data))
        data = np.zeros(capacity, dtype=writer.data.dtype)
        data[:len(writer.data)] = writer.data
        valid = writer.valid
        if valid is not None:
            valid = np.zeros(capacity, dtype=np.bool_)
            valid[:len(writer.valid)] = writer.valid
        writer.attach(data, valid)
        self._typed[writer.name] = (data, valid)

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
        self._typed = {}
        self._writers = []
        for name, index, exact, nullable in self._typed_specs:
            mirror = _build_mirror(exact, nullable, self._columns[name])
            if mirror is not None:
                self._typed[name] = mirror
                self._writers.append(_MirrorWriter(name, index, exact,
                                                   *mirror))

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
