"""Reference implementations the storage kernels are checked against.

Each is the straightforward version the kernel replaced, kept verbatim
in behaviour: a flat two-list sorted index, and a bindings table's
derived state kept one row at a time (the per-row append and clade
walk the batch append path replaced).
The tests hold the kernels to ``==`` with these on generated inputs.
The retired per-key footer of a segment and the retired writer of
tombstones are kept the same way, so a directory in those formats can
be rebuilt byte for byte; so are the WAL frame a put wrote when it
encoded its record as a dict, and the row validator that dispatched on
each column's type for every value. :func:`with_planted_bug` compiles a
program function with one line changed, for tests that check a property
fails on a known bug.
"""

from __future__ import annotations

import bisect
import hashlib
import inspect
import json
import struct
import sys
import textwrap
import zlib
from collections import Counter
from collections.abc import Iterator
from typing import Any

from repro.errors import SchemaError


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

    def count(self, low=None, high=None, include_low=True,
              include_high=True) -> int:
        start, stop = self._slice(low, high, include_low, include_high)
        return max(0, stop - start)

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


_ENCODE = json.JSONEncoder(separators=(",", ":")).encode
#: A value of the retired writer's items that marks a tombstone.
DELETED = object()


def with_tombstone_count(footer: dict[str, Any],
                         tombstones: int = 0) -> dict[str, Any]:
    """*footer* as the retired writer ordered it: a ``tombstones``
    count between ``count`` and ``data_end``."""
    keys = {key: value for key, value in footer.items()
            if key != "data_end"}
    return {**keys, "tombstones": tombstones,
            "data_end": footer["data_end"]}


def retired_segment(items: list[tuple[str, Any]]) -> bytes:
    """The segment the writer of the tombstone format made of sorted
    ``(key, value)`` *items*: a value of :data:`DELETED` became a
    flag-1 entry without value bytes, counted in the footer."""
    parts: list[bytes] = []
    tombstones = 0
    for key, value in items:
        key_bytes = key.encode("utf-8")
        if value is DELETED:
            tombstones += 1
            parts.append(_ENTRY.pack(1, len(key_bytes), 0) + key_bytes)
        else:
            value_bytes = _ENCODE(value).encode("utf-8")
            parts.append(_ENTRY.pack(0, len(key_bytes), len(value_bytes))
                         + key_bytes + value_bytes)
    data = b"".join(parts)
    footer = with_tombstone_count(
        {"min_key": items[0][0] if items else None,
         "max_key": items[-1][0] if items else None,
         "count": len(items), "data_end": len(data)}, tombstones)
    footer_bytes = _ENCODE(footer).encode("utf-8")
    return data + footer_bytes + struct.pack("<Q", len(footer_bytes))


def retired_delete_frame(key: str) -> bytes:
    """The WAL frame ``Database.delete(key)`` appended: a CRC-framed
    ``{"op":"del","key":…}`` record."""
    payload = _ENCODE({"op": "del", "key": key}).encode("utf-8")
    return struct.pack("<II", zlib.crc32(payload), len(payload)) + payload


def put_frame(key: str, value: Any) -> bytes:
    """The WAL frame ``Database.put(key, value)`` appended when it
    encoded the whole ``{"op","key","value"}`` record dict."""
    payload = _ENCODE({"op": "put", "key": key,
                       "value": value}).encode("utf-8")
    return struct.pack("<II", zlib.crc32(payload), len(payload)) + payload


def validate_row_loop(schema, values: dict[str, Any]) -> tuple[Any, ...]:
    """``Schema.validate_row`` as one loop over the columns, asking
    ``ColumnType.accepts`` about every value."""
    unknown = set(values) - set(schema._index)
    if unknown:
        raise SchemaError(f"unknown columns {sorted(unknown)}")
    row: list[Any] = []
    for column in schema.columns:
        value = values.get(column.name)
        if value is None:
            if not column.nullable:
                raise SchemaError(
                    f"column {column.name!r} is not nullable"
                )
            row.append(None)
            continue
        if not column.type.accepts(value):
            raise SchemaError(
                f"column {column.name!r} expects {column.type.value}, "
                f"got {type(value).__name__} ({value!r})"
            )
        row.append(column.type.coerce(value))
    return tuple(row)


def with_planted_bug(function, *bugs: tuple[str, str]):
    """*function* with, for each ``(old, new)`` of *bugs*, the one
    occurrence of ``old`` replaced by ``new``, compiled in memory
    against the globals of its own module."""
    module = sys.modules[function.__module__]
    source = textwrap.dedent(inspect.getsource(function))
    for bug in bugs:
        assert source.count(bug[0]) == 1
        source = source.replace(*bug)
    namespace = dict(vars(module))
    exec(compile(source, module.__file__, "exec"), namespace)
    return namespace[function.__name__]


def clade_states(aggregates) -> dict[int, tuple]:
    """``node_id -> (count, total as hex, max, potent)`` of every clade
    of a :class:`~repro.core.overlay.CladeAggregates` holding a binding:
    the hex makes two totals equal only bit for bit."""
    return {node_id: (aggregates._count[slot],
                      aggregates._total[slot].hex(),
                      aggregates._maximum[slot],
                      aggregates._potent[slot])
            for node_id, slot in aggregates._slots.items()
            if aggregates._count[slot]}


#: Ints at or beyond this magnitude refuse a typed mirror.
EXACT_INT_LIMIT = 2 ** 53
_MIRRORED = {"float": float, "int": int, "bool": bool}


class PerRowBindings:
    """A bindings table's rows, column lists, typed mirrors, indexes,
    value counts, clade statistics and data version, each kept one row
    at a time as the per-row append kept them.

    *sorted_on* and *hashed_on* name indexed columns (a
    :class:`FlatSortedIndex` and a dict of row-id lists), *counted* the
    value-counted ones. A mirror holds ``(valid, value)`` per position
    until the first value it cannot hold drops it for good: a value of
    the column's exact type (no NaN, no int with ``|v| >= 2**53``), a
    NULL in a nullable column, or an exact int in a FLOAT column (held
    as a float). Each clade's statistics are
    ``[count, total, max, potent]``, the total added row by row.
    """

    def __init__(self, schema, tree, labeling, sorted_on=(), hashed_on=(),
                 counted=()) -> None:
        self.schema = schema
        self.rows: dict[int, tuple] = {}
        self.columns = {name: [] for name in schema.column_names}
        self.mirrors = {column.name: [] for column in schema.columns
                        if column.type.value in _MIRRORED}
        self.sorted = {name: FlatSortedIndex() for name in sorted_on}
        self.hashed: dict[str, dict] = {name: {} for name in hashed_on}
        self.counts = {name: Counter() for name in counted}
        self.paths = {
            labeling.leaf_position(leaf.name):
                (leaf.node_id, *(node.node_id for node in leaf.ancestors()))
            for leaf in tree.leaves()}
        self.clades: dict[int, list] = {}
        self.version = 0

    def insert(self, row_id: int, row: tuple) -> None:
        position_of = self.schema.index_of
        self.rows[row_id] = row
        for name, value in zip(self.schema.column_names, row):
            self.columns[name].append(value)
        for name, held in self.mirrors.items():
            if held is None:
                continue
            column = self.schema.column(name)
            exact = _MIRRORED[column.type.value]
            value = row[position_of(name)]
            if type(value) is exact and value == value and (
                    exact is not int
                    or -EXACT_INT_LIMIT < value < EXACT_INT_LIMIT):
                held.append((True, value))
            elif value is None and column.nullable:
                held.append((False, None))
            elif exact is float and type(value) is int \
                    and -EXACT_INT_LIMIT < value < EXACT_INT_LIMIT:
                held.append((True, float(value)))
            else:
                self.mirrors[name] = None
        for name, index in self.sorted.items():
            index.insert(row[position_of(name)], row_id)
        for name, buckets in self.hashed.items():
            buckets.setdefault(row[position_of(name)], []).append(row_id)
        for name, counts in self.counts.items():
            counts[row[position_of(name)]] += 1
        p_affinity = row[position_of("p_affinity")]
        potent = 1 if row[position_of("potent")] else 0
        for node_id in self.paths[row[position_of("leaf_pre")]]:
            state = self.clades.setdefault(node_id, [0, 0.0, None, 0])
            state[0] += 1
            state[1] += p_affinity
            state[3] += potent
            if state[2] is None or p_affinity > state[2]:
                state[2] = p_affinity
        self.version += 1

    def clade_states(self) -> dict[int, tuple]:
        """The shape :func:`clade_states` reads off the real fold."""
        return {node_id: (count, total.hex(), maximum, potent)
                for node_id, (count, total, maximum, potent)
                in self.clades.items()}
