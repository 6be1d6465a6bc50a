"""Secondary indexes for the embedded store.

Two access structures cover every plan the optimizer produces:

* :class:`HashIndex` — O(1) equality lookups;
* :class:`SortedIndex` — bisect-backed ordered index supporting range
  scans, which is what makes the tree interval labeling (the paper's
  "novel mechanism") turn subtree queries into cheap range lookups.

Both are also the optimizer's statistics: a bucket's length and a
sorted band's :meth:`SortedIndex.count` are exact row counts that no
insert leaves stale (:mod:`repro.core.query.cards`).

Indexes only grow, and their table hands them row ids in ascending
order (inserts, recovery and a backfill all append), so a hash bucket
and a sorted index's NULL keys are each an ascending list of row ids.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Iterable, Iterator
from operator import itemgetter
from time import sleep
from typing import Any

from repro.errors import StorageError


class Index(ABC):
    """Maps column value(s) to the row ids holding them."""

    def __init__(self, name: str, column_names: tuple[str, ...]) -> None:
        if not column_names:
            raise StorageError("index needs at least one column")
        self.name = name
        self.column_names = column_names
        #: Extracts this index's key from a row tuple (the bare value
        #: for one column, a tuple for several); set by the owning
        #: table, which knows the column positions.
        self.key_of: Callable[[tuple], Any] | None = None

    def insert(self, key: Any, row_id: int) -> None:
        """Add *row_id*, above every row id added so far."""
        self.extend(((key, row_id),))

    @abstractmethod
    def extend(self, entries: Iterable[tuple[Any, int]]) -> None:
        """Add ``(key, row_id)`` *entries*, row ids ascending."""

    @abstractmethod
    def lookup(self, key: Any) -> list[int]:
        """Row ids with exactly this key, ascending."""

    def load(self, entries: Iterable[tuple[Any, int]]) -> None:
        """Add ``(key, row_id)`` *entries* (a backfill)."""
        self.extend(entries)

    @property
    @abstractmethod
    def supports_range(self) -> bool: ...

    def __repr__(self) -> str:
        cols = ",".join(self.column_names)
        return f"{type(self).__name__}({self.name!r} on {cols})"


class HashIndex(Index):
    """Equality-only index backed by a dict of ascending row-id lists."""

    def __init__(self, name: str, column_names: tuple[str, ...]) -> None:
        super().__init__(name, column_names)
        self._buckets: dict[Any, list[int]] = {}

    @property
    def supports_range(self) -> bool:
        return False

    def extend(self, entries: Iterable[tuple[Any, int]]) -> None:
        for key, row_id in entries:
            self._buckets.setdefault(key, []).append(row_id)

    def lookup(self, key: Any) -> list[int]:
        return self._buckets.get(key, [])[:]

    def count(self, key: Any) -> int:
        """How many entries have exactly this key (``None``: the NULL
        keys), no row id copied."""
        return len(self._buckets.get(key, ()))

    def distinct(self) -> int:
        """How many non-NULL keys the index holds."""
        buckets = self._buckets
        return len(buckets) - (None in buckets)


#: A sorted index's chunk list: (chunk maxima, key chunks, row-id chunks).
_Layout = tuple[list[Any], list[list[Any]], list[list[int]]]
#: (chunk, offset) into a layout; ``(len(chunks), 0)`` is the end.
_Position = tuple[int, int]


class SortedIndex(Index):
    """Ordered index over one column supporting range scans.

    Keys must be mutually comparable (the schema's typing guarantees
    that); ``None`` keys are kept aside and only served by equality
    lookups for ``None``.

    Entries live in sorted *chunks* of about :attr:`CHUNK` keys, beside
    a parallel chunk of row ids, plus the list of chunk maxima that a
    bisect picks the chunk with. An insert shifts one chunk, not the
    whole index, so a write costs the same at any table size. A run of
    equal keys may span chunks. The three lists are published as one
    tuple, and a chunk that splits or empties is replaced by swapping
    that tuple whole: a reader takes it once and keeps a consistent
    view of the chunk list while a writer inserts. Within a chunk an
    insert shifts entries in place, so ``range`` and ``lookup`` read
    again when an insert overlapped them; the lazy ``ordered`` walk
    does not.
    """

    #: Keys per chunk a bulk load writes; a chunk splits in two when it
    #: grows past twice this. A constant, not a knob: no output depends
    #: on it (tests shrink it to cross chunk boundaries).
    CHUNK = 512

    def __init__(self, name: str, column_names: tuple[str, ...]) -> None:
        super().__init__(name, column_names)
        if len(column_names) != 1:
            raise StorageError("sorted indexes are single-column")
        self._layout: _Layout = ([], [], [])
        self._nulls: list[int] = []
        #: Keyed entries held, and whether an insert is shifting a chunk
        #: in place: a read that found no insert under way and the same
        #: count before and after itself overlapped none (``_read``).
        self._count = 0
        self._inserting = False

    @property
    def supports_range(self) -> bool:
        return True

    def extend(self, entries: Iterable[tuple[Any, int]]) -> None:
        """A read that overlaps the batch reads again (``_read``)."""
        self._inserting = True
        try:
            for key, row_id in entries:
                if key is None:
                    self._nulls.append(row_id)
                else:
                    self._place(key, row_id)
                    self._count += 1
        finally:
            self._inserting = False

    def _place(self, key: Any, row_id: int) -> None:
        maxes, keys, row_ids = self._layout
        if not maxes:
            self._layout = ([key], [[key]], [[row_id]])
            return
        at = min(bisect_right(maxes, key), len(maxes) - 1)
        chunk = keys[at]
        position = bisect_right(chunk, key)
        chunk.insert(position, key)
        row_ids[at].insert(position, row_id)
        if position == len(chunk) - 1:
            maxes[at] = key
        if len(chunk) > 2 * self.CHUNK:
            half = len(chunk) // 2
            self._layout = (
                maxes[:at] + [chunk[half - 1], chunk[-1]] + maxes[at + 1:],
                keys[:at] + [chunk[:half], chunk[half:]] + keys[at + 1:],
                row_ids[:at] + [row_ids[at][:half], row_ids[at][half:]]
                + row_ids[at + 1:],
            )

    def load(self, entries: Iterable[tuple[Any, int]]) -> None:
        """Bulk-load: one sort, then full chunks (any entries already
        held are merged in)."""
        pairs = []
        for key, row_id in entries:
            if key is None:
                self._nulls.append(row_id)
            else:
                pairs.append((key, row_id))
        _, keys, row_ids = self._layout
        for chunk, ids in zip(keys, row_ids):
            pairs.extend(zip(chunk, ids))
        pairs.sort(key=itemgetter(0))
        step = self.CHUNK
        keys = [[key for key, _ in pairs[start:start + step]]
                for start in range(0, len(pairs), step)]
        row_ids = [[row_id for _, row_id in pairs[start:start + step]]
                   for start in range(0, len(pairs), step)]
        self._layout = ([chunk[-1] for chunk in keys], keys, row_ids)
        self._count = len(pairs)

    # -- positions -----------------------------------------------------------

    @staticmethod
    def _first(layout: _Layout, key: Any, above: bool) -> _Position:
        """Position of the first key ``> key`` (*above*) or ``>= key``."""
        maxes, keys, _ = layout
        search = bisect_right if above else bisect_left
        at = search(maxes, key)
        if at == len(maxes):
            return at, 0
        return at, search(keys[at], key)

    def _bounds(self, layout: _Layout, low: Any, high: Any,
                include_low: bool,
                include_high: bool) -> tuple[_Position, _Position]:
        """``[start, stop)`` positions of the interval (may cross)."""
        start = (0, 0) if low is None \
            else self._first(layout, low, not include_low)
        stop = (len(layout[0]), 0) if high is None \
            else self._first(layout, high, include_high)
        return start, stop

    @staticmethod
    def _row_ids_between(row_ids: list[list[int]], start: _Position,
                         stop: _Position) -> list[int]:
        (first, offset), (last, end) = start, stop
        if start >= stop:
            return []
        if first == last:
            return row_ids[first][offset:end]
        found = row_ids[first][offset:]
        for chunk in range(first + 1, last):
            found += row_ids[chunk]
        if end:
            found += row_ids[last][:end]
        return found

    # -- reads -------------------------------------------------------------

    def _read(self, low: Any, high: Any, include_low: bool,
              include_high: bool) -> list[int]:
        """Row ids with keys in the interval, sorted, read from a state
        no insert touched.

        Readers take no lock, and an insert shifts one chunk in place:
        one landing between the bisect and the slice would move the
        slice off the keys it was meant for. So a read that overlapped
        an insert (one under way, or a count that moved) is read again.
        """
        while True:
            count = self._count
            if self._inserting:
                sleep(0)  # let the writer finish its insert
                continue
            layout = self._layout
            found = self._row_ids_between(
                layout[2],
                *self._bounds(layout, low, high, include_low, include_high))
            if not self._inserting and self._count == count:
                found.sort()
                return found

    def lookup(self, key: Any) -> list[int]:
        if key is None:
            return self._nulls[:]
        return self._read(key, key, True, True)

    def range(self, low: Any = None, high: Any = None,
              include_low: bool = True,
              include_high: bool = True) -> list[int]:
        """Row ids with key in the given (optionally open) interval."""
        return self._read(low, high, include_low, include_high)

    def count(self, low: Any = None, high: Any = None,
              include_low: bool = True, include_high: bool = True) -> int:
        """How many keyed entries lie in the interval: two bisects and
        the lengths of the chunks between, no row id read. It reads one
        layout and does not retry like ``_read``: an insert it overlaps
        moves the count by one, and the planner only estimates with it."""
        layout = self._layout
        start, stop = self._bounds(layout, low, high, include_low,
                                   include_high)
        if start >= stop:
            return 0
        (first, offset), (last, end) = start, stop
        return sum(map(len, layout[1][first:last])) - offset + end

    def ordered(self, descending: bool = False, low: Any = None,
                high: Any = None, include_low: bool = True,
                include_high: bool = True) -> Iterator[int]:
        """Row ids in key order from either end, lazily. Equal keys
        come back in ascending row id both ways — what a stable sort of
        a row-id-ordered scan yields. ``None`` keys join only an
        unbounded walk (no range predicate matches NULL): first
        ascending, last descending, like the executor's sort key."""
        layout = self._layout
        start, stop = self._bounds(layout, low, high, include_low,
                                   include_high)
        nulls = self._nulls[:] if low is None and high is None else ()
        walk = _runs_down if descending else _runs_up
        if not descending:
            yield from nulls
        for run in walk(layout[1], layout[2], start, stop):
            run.sort()
            yield from run
        if descending:
            yield from nulls

    def null_count(self) -> int:
        return len(self._nulls)

    def min_key(self) -> Any:
        keys = self._layout[1]
        return keys[0][0] if keys else None

    def max_key(self) -> Any:
        maxes = self._layout[0]
        return maxes[-1] if maxes else None

    def __len__(self) -> int:
        return self._count + len(self._nulls)


def _runs_up(keys: list[list[Any]], row_ids: list[list[int]],
             start: _Position, stop: _Position) -> Iterator[list[int]]:
    """Row ids of each run of equal keys in ``[start, stop)``, lowest
    key first; a run that reaches a chunk's end is held until the next
    chunk shows whether it goes on."""
    (first, offset), (last, end) = start, stop
    run: list[int] | None = None
    run_key = None
    for at in range(first, min(last + 1, len(keys))):
        chunk, ids = keys[at], row_ids[at]
        left = offset if at == first else 0
        right = end if at == last else len(chunk)
        while left < right:
            key = chunk[left]
            after = bisect_right(chunk, key, left, right)
            if run is not None and key == run_key:
                run += ids[left:after]
            else:
                if run is not None:
                    yield run
                run, run_key = ids[left:after], key
            if after < right:
                yield run
                run = None
            left = after
    if run is not None:
        yield run


def _runs_down(keys: list[list[Any]], row_ids: list[list[int]],
               start: _Position, stop: _Position) -> Iterator[list[int]]:
    """:func:`_runs_up` walked from the highest key down."""
    (first, offset), (last, end) = start, stop
    run: list[int] | None = None
    run_key = None
    for at in range(min(last, len(keys) - 1), first - 1, -1):
        chunk, ids = keys[at], row_ids[at]
        left = offset if at == first else 0
        right = end if at == last else len(chunk)
        while right > left:
            key = chunk[right - 1]
            before = bisect_left(chunk, key, left, right)
            if run is not None and key == run_key:
                run += ids[before:right]
            else:
                if run is not None:
                    yield run
                run, run_key = ids[before:right], key
            if before > left:
                yield run
                run = None
            right = before
    if run is not None:
        yield run
