"""Reference implementations the storage kernels are checked against.

Each is the straightforward version the kernel replaced, kept verbatim
in behaviour: a flat two-list sorted index and a row-at-a-time ANALYZE.
The tests hold the kernels to ``==`` with these on generated inputs.
The retired per-key footer of a segment is kept the same way, so a
directory in that format can be rebuilt byte for byte.
"""

from __future__ import annotations

import bisect
import hashlib
import struct
from collections.abc import Iterator
from typing import Any

from repro.storage.statistics import (
    DEFAULT_HISTOGRAM_BUCKETS,
    DEFAULT_MCV_COUNT,
    ColumnStatistics,
    Histogram,
    TableStatistics,
)


class FlatSortedIndex:
    """A sorted index as two parallel flat lists (O(n) inserts)."""

    def __init__(self) -> None:
        self._keys: list[Any] = []
        self._row_ids: list[int] = []
        self._nulls: set[int] = set()

    def insert(self, key: Any, row_id: int) -> None:
        if key is None:
            self._nulls.add(row_id)
            return
        position = bisect.bisect_right(self._keys, key)
        self._keys.insert(position, key)
        self._row_ids.insert(position, row_id)

    def lookup(self, key: Any) -> list[int]:
        if key is None:
            return sorted(self._nulls)
        low = bisect.bisect_left(self._keys, key)
        high = bisect.bisect_right(self._keys, key)
        return sorted(self._row_ids[low:high])

    def _slice(self, low, high, include_low, include_high):
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

    def range(self, low=None, high=None, include_low=True,
              include_high=True) -> list[int]:
        start, stop = self._slice(low, high, include_low, include_high)
        return sorted(self._row_ids[start:stop])

    def ordered(self, descending=False, low=None, high=None,
                include_low=True, include_high=True) -> Iterator[int]:
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


def analyze_rowwise(table, histogram_buckets=DEFAULT_HISTOGRAM_BUCKETS,
                    mcv_count=DEFAULT_MCV_COUNT) -> TableStatistics:
    """ANALYZE one column at a time, one row at a time."""
    row_count = table.row_count
    columns: dict[str, ColumnStatistics] = {}
    for position, column in enumerate(table.schema.columns):
        values = [row[position] for row in table.scan_rows()]
        non_null = [value for value in values if value is not None]
        counts: dict[Any, int] = {}
        for value in non_null:
            counts[value] = counts.get(value, 0) + 1
        most_common = tuple(sorted(
            counts.items(), key=lambda item: (-item[1], str(item[0])),
        )[:mcv_count])
        histogram = None
        numeric = non_null and all(
            isinstance(value, (int, float)) and not isinstance(value, bool)
            for value in non_null
        )
        if numeric:
            histogram = _equi_depth_rowwise(sorted(non_null),
                                            histogram_buckets)
        columns[column.name] = ColumnStatistics(
            name=column.name,
            row_count=row_count,
            null_count=row_count - len(non_null),
            distinct_count=len(counts),
            min_value=min(non_null) if non_null else None,
            max_value=max(non_null) if non_null else None,
            most_common=most_common,
            histogram=histogram,
        )
    return TableStatistics(table.name, row_count, columns)


def _equi_depth_rowwise(sorted_values: list[float],
                        buckets: int) -> Histogram:
    total = len(sorted_values)
    if total == 0:
        return Histogram((), 0)
    buckets = min(buckets, total)
    bounds = []
    for bucket in range(1, buckets + 1):
        position = min(total - 1, round(bucket * total / buckets) - 1)
        bounds.append(float(sorted_values[position]))
    return Histogram(tuple(bounds), total)


_ENTRY = struct.Struct("<BII")  # flag, key length, value length


def retired_key_index(data: bytes, block_bytes: int = 4096,
                      bits_per_key: int = 10,
                      k_hashes: int = 7) -> dict[str, Any]:
    """The ``block_index`` and ``bloom`` footer keys a segment whose
    entry area is *data* carried before segments were only read whole.

    ``block_index`` holds ``[first_key, offset]`` for the entry opening
    each ``block_bytes`` run of entries. ``bloom`` is a filter over
    every key, tombstones included: ``max(64, 10 * count)`` bits and 7
    positions per key, by md5 double hashing.
    """
    keys: list[str] = []
    block_index: list[tuple[str, int]] = []
    offset = 0
    block_start = -block_bytes  # the first entry opens the first block
    while offset < len(data):
        _, key_len, value_len = _ENTRY.unpack_from(data, offset)
        key_start = offset + _ENTRY.size
        key = data[key_start:key_start + key_len].decode("utf-8")
        if offset - block_start >= block_bytes:
            block_index.append((key, offset))
            block_start = offset
        keys.append(key)
        offset = key_start + key_len + value_len
    m_bits = max(64, max(1, len(keys)) * bits_per_key)
    bits = bytearray((m_bits + 7) // 8)
    for key in keys:
        digest = hashlib.md5(key.encode("utf-8")).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        for i in range(k_hashes):
            position = (h1 + i * h2) % m_bits
            bits[position >> 3] |= 1 << (position & 7)
    return {"block_index": block_index,
            "bloom": {"m": m_bits, "k": k_hashes, "bits": bits.hex()}}
