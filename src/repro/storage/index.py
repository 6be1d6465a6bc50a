"""Secondary indexes for the embedded store.

Two access structures cover every plan the optimizer produces:

* :class:`HashIndex` — O(1) equality lookups;
* :class:`SortedIndex` — bisect-backed ordered index supporting range
  scans, which is what makes the tree interval labeling (the paper's
  "novel mechanism") turn subtree queries into cheap range lookups.
"""

from __future__ import annotations

import bisect
from abc import ABC, abstractmethod
from collections.abc import Callable, Iterator
from typing import Any

from repro.errors import StorageError


class Index(ABC):
    """Maps column value(s) to the set of row ids holding them."""

    def __init__(self, name: str, column_names: tuple[str, ...]) -> None:
        if not column_names:
            raise StorageError("index needs at least one column")
        self.name = name
        self.column_names = column_names
        #: Extracts this index's key from a row tuple (the bare value
        #: for one column, a tuple for several); set by the owning
        #: table, which knows the column positions.
        self.key_of: Callable[[tuple], Any] | None = None

    @abstractmethod
    def insert(self, key: Any, row_id: int) -> None: ...

    @abstractmethod
    def delete(self, key: Any, row_id: int) -> None: ...

    @abstractmethod
    def lookup(self, key: Any) -> list[int]:
        """Row ids with exactly this key."""

    @property
    @abstractmethod
    def supports_range(self) -> bool: ...

    def __repr__(self) -> str:
        cols = ",".join(self.column_names)
        return f"{type(self).__name__}({self.name!r} on {cols})"


class HashIndex(Index):
    """Equality-only index backed by a dict of row-id sets."""

    def __init__(self, name: str, column_names: tuple[str, ...]) -> None:
        super().__init__(name, column_names)
        self._buckets: dict[Any, set[int]] = {}

    @property
    def supports_range(self) -> bool:
        return False

    def insert(self, key: Any, row_id: int) -> None:
        self._buckets.setdefault(key, set()).add(row_id)

    def delete(self, key: Any, row_id: int) -> None:
        bucket = self._buckets.get(key)
        if bucket is None or row_id not in bucket:
            raise StorageError(
                f"index {self.name!r}: row {row_id} not found under "
                f"key {key!r}"
            )
        bucket.discard(row_id)
        if not bucket:
            del self._buckets[key]

    def lookup(self, key: Any) -> list[int]:
        return sorted(self._buckets.get(key, ()))


class SortedIndex(Index):
    """Ordered index over one column supporting range scans.

    Keys must be mutually comparable (the schema's typing guarantees
    that); ``None`` keys are kept aside and only served by equality
    lookups for ``None``.
    """

    def __init__(self, name: str, column_names: tuple[str, ...]) -> None:
        super().__init__(name, column_names)
        if len(column_names) != 1:
            raise StorageError("sorted indexes are single-column")
        self._keys: list[Any] = []
        self._row_ids: list[int] = []
        self._nulls: set[int] = set()

    @property
    def supports_range(self) -> bool:
        return True

    def insert(self, key: Any, row_id: int) -> None:
        if key is None:
            self._nulls.add(row_id)
            return
        position = bisect.bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._row_ids.insert(position, row_id)

    def delete(self, key: Any, row_id: int) -> None:
        if key is None:
            if row_id not in self._nulls:
                raise StorageError(
                    f"index {self.name!r}: null row {row_id} not found"
                )
            self._nulls.discard(row_id)
            return
        low = bisect.bisect_left(self._keys, key)
        for position in range(low, len(self._keys)):
            if self._keys[position] != key:
                break
            if self._row_ids[position] == row_id:
                del self._keys[position]
                del self._row_ids[position]
                return
        raise StorageError(
            f"index {self.name!r}: row {row_id} not found under "
            f"key {key!r}"
        )

    def lookup(self, key: Any) -> list[int]:
        if key is None:
            return sorted(self._nulls)
        low = bisect.bisect_left(self._keys, key)
        high = bisect.bisect_right(self._keys, key)
        return sorted(self._row_ids[low:high])

    def _slice(self, low: Any, high: Any, include_low: bool,
               include_high: bool) -> tuple[int, int]:
        """``[start, stop)`` of the keys in the interval (may cross)."""
        if low is None:
            start = 0
        elif include_low:
            start = bisect.bisect_left(self._keys, low)
        else:
            start = bisect.bisect_right(self._keys, low)
        if high is None:
            stop = len(self._keys)
        elif include_high:
            stop = bisect.bisect_right(self._keys, high)
        else:
            stop = bisect.bisect_left(self._keys, high)
        return start, stop

    def range(self, low: Any = None, high: Any = None,
              include_low: bool = True,
              include_high: bool = True) -> list[int]:
        """Row ids with key in the given (optionally open) interval."""
        start, stop = self._slice(low, high, include_low, include_high)
        return sorted(self._row_ids[start:stop])

    def ordered(self, descending: bool = False, low: Any = None,
                high: Any = None, include_low: bool = True,
                include_high: bool = True) -> Iterator[int]:
        """Row ids in key order from either end, lazily. Equal keys
        come back in ascending row id both ways — what a stable sort of
        a row-id-ordered scan yields. ``None`` keys join only an
        unbounded walk (no range predicate matches NULL): first
        ascending, last descending, like the executor's sort key."""
        keys, row_ids = self._keys, self._row_ids
        start, stop = self._slice(low, high, include_low, include_high)
        nulls = self._nulls if low is None and high is None else ()
        if descending:
            while start < stop:
                run = bisect.bisect_left(keys, keys[stop - 1], start, stop)
                yield from sorted(row_ids[run:stop])
                stop = run
            yield from sorted(nulls)
        else:
            yield from sorted(nulls)
            while start < stop:
                run = bisect.bisect_right(keys, keys[start], start, stop)
                yield from sorted(row_ids[start:run])
                start = run

    def min_key(self) -> Any:
        return self._keys[0] if self._keys else None

    def max_key(self) -> Any:
        return self._keys[-1] if self._keys else None

    def __len__(self) -> int:
        return len(self._keys) + len(self._nulls)
