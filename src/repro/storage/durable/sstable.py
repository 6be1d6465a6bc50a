"""Immutable sorted segments (SSTables) with bloom and block index.

File layout::

    entry*  footer-json  footer-length:u64

Each entry is ``flag:u8 · key_len:u32 · value_len:u32 · key · value``;
``flag`` 1 marks a tombstone (no value bytes). Entries are written in
key order. The JSON footer carries everything a reader needs without
scanning the data area:

* ``block_index`` — ``[first_key, offset]`` pairs, one per
  ``block_bytes`` of entries, so point lookups read one block and
  prefix scans read only the blocks their keys can occupy;
* ``bloom`` — a bloom filter over every key (tombstones included), so
  lookups for absent keys skip the file without touching the data area;
* ``min_key`` / ``max_key`` — the segment's key range.

Segments are read to recover and compact the store; queries scan the
tables in memory. So a footer describes keys, never values. Older
footers also carry a ``meta`` key of per-column summaries, which a
reader ignores.

The bloom hashes derive from :func:`hashlib.md5` double hashing, not
Python's builtin ``hash`` — the builtin is salted per process, and a
filter written by one process must answer in the next (that is the
whole point of a durable store).
"""

from __future__ import annotations

import hashlib
import json
import operator
import os
import struct
from bisect import bisect_right
from collections.abc import Iterator
from typing import Any

from repro.errors import StorageError
from repro.storage.durable.memtable import TOMBSTONE

_ENTRY = struct.Struct("<BII")  # flag, key length, value length
_FOOTER_LEN = struct.Struct("<Q")

#: The one codec of entry values and WAL records (footers are written
#: with the encoder too): compact separators, everything else JSON's
#: defaults — the bytes ``json.dumps(value, separators=(",", ":"))``
#: writes, without building an encoder per value.
JSON_ENCODER = json.JSONEncoder(separators=(",", ":"))
JSON_DECODER = json.JSONDecoder()

_FLAG_PUT = 0
_FLAG_TOMBSTONE = 1


class BloomFilter:
    """Fixed-size bloom filter with deterministic double hashing."""

    def __init__(self, m_bits: int, k_hashes: int,
                 bits: bytearray | None = None) -> None:
        if m_bits <= 0 or k_hashes <= 0:
            raise StorageError("bloom filter needs positive m and k")
        self.m_bits = m_bits
        self.k_hashes = k_hashes
        self.bits = bits if bits is not None \
            else bytearray((m_bits + 7) // 8)

    @classmethod
    def for_count(cls, count: int,
                  bits_per_key: int = 10) -> "BloomFilter":
        """Sized for *count* keys (~1% false positives at 10 bits)."""
        return cls(max(64, count * bits_per_key), 7)

    def _positions(self, key: str) -> list[int]:
        digest = hashlib.md5(key.encode("utf-8")).digest()
        h1 = int.from_bytes(digest[:8], "little")
        h2 = int.from_bytes(digest[8:], "little") | 1
        return [(h1 + i * h2) % self.m_bits
                for i in range(self.k_hashes)]

    def add(self, key: str) -> None:
        for position in self._positions(key):
            self.bits[position >> 3] |= 1 << (position & 7)

    def might_contain(self, key: str) -> bool:
        """False means definitely absent; True means probably present."""
        return all(self.bits[p >> 3] & (1 << (p & 7))
                   for p in self._positions(key))

    def as_dict(self) -> dict[str, Any]:
        return {"m": self.m_bits, "k": self.k_hashes,
                "bits": self.bits.hex()}

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "BloomFilter":
        return cls(data["m"], data["k"], bytearray.fromhex(data["bits"]))


def write_sstable(path: str, items: list[tuple[str, Any]],
                  block_bytes: int = 4096) -> None:
    """Write sorted ``(key, value-or-TOMBSTONE)`` *items* to *path*.

    The file is complete only once the footer length lands; a crash
    mid-write leaves a file the manifest never references (recovery
    removes such orphans).
    """
    keys = [key for key, _ in items]
    if any(map(operator.ge, keys, keys[1:])):
        raise StorageError("sstable items must be strictly sorted by key")
    bloom = BloomFilter.for_count(max(1, len(items)))
    encode = JSON_ENCODER.encode
    pack = _ENTRY.pack
    parts: list[bytes] = []
    block_index: list[tuple[str, int]] = []
    offset = 0
    block_start = -block_bytes  # the first entry opens the first block
    tombstones = 0
    for key, value in items:
        bloom.add(key)
        key_bytes = key.encode("utf-8")
        if value is TOMBSTONE:
            tombstones += 1
            entry = pack(_FLAG_TOMBSTONE, len(key_bytes), 0) + key_bytes
        else:
            value_bytes = encode(value).encode("utf-8")
            entry = (pack(_FLAG_PUT, len(key_bytes), len(value_bytes))
                     + key_bytes + value_bytes)
        if offset - block_start >= block_bytes:
            block_index.append((key, offset))
            block_start = offset
        parts.append(entry)
        offset += len(entry)
    footer = {
        "block_index": block_index,
        "bloom": bloom.as_dict(),
        "min_key": keys[0] if keys else None,
        "max_key": keys[-1] if keys else None,
        "count": len(items),
        "tombstones": tombstones,
        "data_end": offset,
    }
    footer_bytes = JSON_ENCODER.encode(footer).encode("utf-8")
    parts += (footer_bytes, _FOOTER_LEN.pack(len(footer_bytes)))
    with open(path, "wb") as handle:
        handle.write(b"".join(parts))
        handle.flush()
        os.fsync(handle.fileno())


class SSTableReader:
    """Random and sequential access to one written segment."""

    def __init__(self, path: str) -> None:
        self.path = path
        with open(path, "rb") as handle:
            handle.seek(0, 2)
            size = handle.tell()
            if size < _FOOTER_LEN.size:
                raise StorageError(f"sstable {path!r} has no footer")
            handle.seek(size - _FOOTER_LEN.size)
            (footer_len,) = _FOOTER_LEN.unpack(handle.read(_FOOTER_LEN.size))
            if footer_len > size - _FOOTER_LEN.size:
                raise StorageError(f"sstable {path!r} footer truncated")
            handle.seek(size - _FOOTER_LEN.size - footer_len)
            footer = json.loads(handle.read(footer_len))
        self.block_index: list[tuple[str, int]] = [
            (key, offset) for key, offset in footer["block_index"]
        ]
        self.bloom = BloomFilter.from_dict(footer["bloom"])
        self.min_key: str | None = footer["min_key"]
        self.max_key: str | None = footer["max_key"]
        self.count: int = footer["count"]
        self.tombstones: int = footer["tombstones"]
        self.data_end: int = footer["data_end"]
        self.size_bytes = size
        #: Each block's first key, and its data offset (one more
        #: offset: the end of the data area), for bisecting.
        self._first_keys = [key for key, _ in self.block_index]
        self._edges = [offset for _, offset in self.block_index] \
            + [self.data_end]

    # -- reads -------------------------------------------------------------

    def get(self, key: str) -> tuple[bool, Any]:
        """``(found, value-or-TOMBSTONE)`` for *key* in this segment."""
        if self.min_key is None or not (self.min_key <= key <= self.max_key):
            return False, None
        if not self.bloom.might_contain(key):
            return False, None
        block = bisect_right(self._first_keys, key) - 1
        if block < 0:
            return False, None
        entry = next(self._entries(self._edges[block],
                                   self._edges[block + 1], key), None)
        if entry is None or entry[0] != key:
            return False, None
        return True, entry[1]

    def scan(self, prefix: str = "") -> Iterator[tuple[str, Any]]:
        """``(key, value-or-TOMBSTONE)`` of every key starting with
        *prefix*, in key order. Reads from the block that could hold
        the first such key to the first block that starts past them,
        and decodes only their values."""
        if not self.count:
            return
        first_keys = self._first_keys
        above = bisect_right(first_keys, prefix)
        stop = above
        while stop < len(first_keys) and first_keys[stop].startswith(prefix):
            stop += 1
        yield from self._entries(self._edges[max(above - 1, 0)],
                                 self._edges[stop], prefix)

    def entries(self) -> Iterator[tuple[str, Any]]:
        """Every ``(key, value-or-TOMBSTONE)`` in key order."""
        return self.scan()

    def _entries(self, start: int, end: int,
                 prefix: str) -> Iterator[tuple[str, Any]]:
        """The entries of data bytes ``[start, end)`` whose key starts
        with *prefix*: one read, keys below *prefix* skipped without
        decoding their value, the walk ended by the first key past it."""
        with open(self.path, "rb") as handle:
            handle.seek(start)
            data = handle.read(end - start)
        decode = JSON_DECODER.decode
        unpack = _ENTRY.unpack_from
        header = _ENTRY.size
        position = 0
        while position < len(data):
            flag, key_len, value_len = unpack(data, position)
            key_end = position + header + key_len
            key = data[position + header:key_end].decode("utf-8")
            position = key_end + value_len
            if key < prefix:
                continue
            if not key.startswith(prefix):
                return
            if flag == _FLAG_TOMBSTONE:
                yield key, TOMBSTONE
            else:
                yield key, decode(data[key_end:position].decode("utf-8"))

    def __repr__(self) -> str:
        return (f"SSTableReader({self.path!r}, count={self.count}, "
                f"tombstones={self.tombstones})")
